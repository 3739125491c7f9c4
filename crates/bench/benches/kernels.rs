//! Kernel bench: the join kernels (compiled plans over encoded columns,
//! emit-side suppression, encoded lattice inserts) with and without
//! provenance recording, on the two workload shapes the kernels target:
//!
//! * a lattice-heavy fixpoint — single-source shortest paths, where
//!   almost all derivations are candidate cells for the `MinCost`
//!   lattice and the encoded-insert fast path carries the round trip;
//! * a relation-heavy fixpoint — transitive closure, where the win is
//!   single-word join keys and emit-side membership suppression.
//!
//! The `_on` runs solve plainly; the `_prov` runs also instantiate every
//! derivation's premises and keep the event log behind
//! `Solution::explain`. Both run the same plans, so the committed
//! `BENCH_kernels.json` profiles differ only in `wall_ns` — the ratio is
//! the price of provenance.

use flix_analyses::shortest_paths;
use flix_analyses::workloads::graphs;
use flix_bench::harness::{BenchmarkId, Criterion};
use flix_bench::{criterion_group, criterion_main};
use flix_core::{BodyItem, Head, HeadTerm, Program, ProgramBuilder, Solver, Strategy, Term};

/// Transitive closure over a chain plus random extra edges (the same
/// shape as the `ablation` bench's engine micro-workload).
fn closure_program(nodes: i64, extra: usize, seed: u64) -> Program {
    use flix_lattice::rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();
    let e = b.relation("Edge", 2);
    let p = b.relation("Path", 2);
    for n in 0..nodes - 1 {
        b.fact(e, vec![n.into(), (n + 1).into()]);
    }
    for _ in 0..extra {
        let x = rng.gen_range(0..nodes);
        let y = rng.gen_range(0..nodes);
        b.fact(e, vec![x.into(), y.into()]);
    }
    b.rule(
        Head::new(p, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(e, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
        ],
    );
    b.build().expect("valid")
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    let on = Solver::new();
    let prov = Solver::new().record_provenance(true);

    for &(nodes, extra) in &[(200u32, 800usize), (600, 2_400)] {
        let graph = graphs::generate(nodes, extra, 0x5907);
        let program = shortest_paths::build_single_source(&graph, 0);
        group.bench_with_input(
            BenchmarkId::new("shortest_paths_on", nodes),
            &program,
            |b, program| b.iter(|| on.solve(program).expect("solves")),
        );
        group.bench_with_input(
            BenchmarkId::new("shortest_paths_prov", nodes),
            &program,
            |b, program| b.iter(|| prov.solve(program).expect("solves")),
        );
    }

    for &nodes in &[120i64, 240] {
        let program = closure_program(nodes, nodes as usize * 2, 11);
        group.bench_with_input(
            BenchmarkId::new("closure_on", nodes),
            &program,
            |b, program| b.iter(|| on.solve(program).expect("solves")),
        );
        group.bench_with_input(
            BenchmarkId::new("closure_prov", nodes),
            &program,
            |b, program| b.iter(|| prov.solve(program).expect("solves")),
        );
    }
    group.finish();

    // Instrumented runs outside the timing loops so `--metrics-json`
    // carries comparable on/prov profiles — every statistic except
    // `wall_ns` must coincide pairwise.
    for &(nodes, extra) in &[(200u32, 800usize), (600, 2_400)] {
        let graph = graphs::generate(nodes, extra, 0x5907);
        let program = shortest_paths::build_single_source(&graph, 0);
        for (label, solver) in [("on", &on), ("prov", &prov)] {
            let solution = solver.solve(&program).expect("solves");
            flix_bench::metrics::record(
                format!("kernels/shortest_paths_{label}/{nodes}"),
                Strategy::SemiNaive.name(),
                1,
                solution.stats(),
            );
        }
    }
    for &nodes in &[120i64, 240] {
        let program = closure_program(nodes, nodes as usize * 2, 11);
        for (label, solver) in [("on", &on), ("prov", &prov)] {
            let solution = solver.solve(&program).expect("solves");
            flix_bench::metrics::record(
                format!("kernels/closure_{label}/{nodes}"),
                Strategy::SemiNaive.name(),
                1,
                solution.stats(),
            );
        }
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
