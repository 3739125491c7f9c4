//! Strategy parity: naïve, semi-naïve, and parallel semi-naïve
//! evaluation must agree — not only on the minimal model (§3.7 proves
//! the strategies compute the same fixed point) but also on the
//! *strategy-invariant* statistics documented on `SolveStats`: net
//! insertions, per-rule insertion credit, and per-stratum convergence
//! profiles. Gross work (`rule_evaluations`, `facts_derived`, probes,
//! scans, timings) legitimately differs and is not compared.
//!
//! The workloads are the paper's case studies: shortest paths (§4.4),
//! the Figure 2 combined dataflow analysis, and the Figure 5 IFDS
//! encoding on a generated JVM-shaped supergraph.

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::workloads::graphs;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::analyses::{dataflow, shortest_paths};
use flix::{
    BodyItem, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solution, Solver, Strategy,
    Term, Value,
};
use std::sync::Arc;

/// The three configurations under comparison.
fn configurations() -> Vec<(&'static str, Solver)> {
    vec![
        ("naive", Solver::new().strategy(Strategy::Naive)),
        ("semi-naive", Solver::new().strategy(Strategy::SemiNaive)),
        (
            "semi-naive x4",
            Solver::new().strategy(Strategy::SemiNaive).threads(4),
        ),
    ]
}

/// Canonical dump of every relation tuple and lattice cell, sorted, so
/// two solutions can be compared for semantic equality.
fn dump(program: &Program, solution: &Solution) -> Vec<String> {
    let mut lines = Vec::new();
    for (_, decl) in program.predicates() {
        let name = decl.name();
        if let Some(rows) = solution.relation(name) {
            for row in rows {
                lines.push(format!(
                    "{name}({})",
                    row.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        if let Some(cells) = solution.lattice(name) {
            for (key, value) in cells {
                let mut parts: Vec<String> = key.iter().map(ToString::to_string).collect();
                parts.push(value.to_string());
                lines.push(format!("{name}({})", parts.join(", ")));
            }
        }
    }
    lines.sort();
    lines
}

/// Solves `program` under every configuration and asserts that the
/// model and all strategy-invariant statistics coincide.
fn assert_strategy_parity(label: &str, program: &Program) {
    let runs: Vec<(&str, Solution)> = configurations()
        .into_iter()
        .map(|(name, solver)| (name, solver.solve(program).expect("solves")))
        .collect();
    let (base_name, base) = &runs[0];
    let base_dump = dump(program, base);
    let base_inserted: Vec<(usize, u64)> = base
        .stats()
        .per_rule
        .iter()
        .map(|r| (r.rule, r.inserted))
        .collect();
    assert!(
        base.stats().per_rule.iter().any(|r| r.inserted > 0),
        "{label}: the baseline run credits at least one rule"
    );
    for (name, solution) in &runs[1..] {
        assert_eq!(
            dump(program, solution),
            base_dump,
            "{label}: {name} and {base_name} disagree on the minimal model"
        );
        let stats = solution.stats();
        assert_eq!(
            stats.facts_inserted,
            base.stats().facts_inserted,
            "{label}: {name} net insertions"
        );
        assert_eq!(
            stats.total_facts,
            base.stats().total_facts,
            "{label}: {name} total facts"
        );
        let inserted: Vec<(usize, u64)> = stats
            .per_rule
            .iter()
            .map(|r| (r.rule, r.inserted))
            .collect();
        assert_eq!(
            inserted, base_inserted,
            "{label}: {name} and {base_name} credit rules differently"
        );
        // Convergence profile: same rounds per stratum and the same net
        // delta fed into each round.
        assert_eq!(
            stats.per_stratum,
            base.stats().per_stratum,
            "{label}: {name} and {base_name} converge differently"
        );
    }
}

#[test]
fn shortest_paths_single_source_parity() {
    let graph = graphs::generate(40, 120, 7);
    let program = shortest_paths::build_single_source(&graph, 0);
    assert_strategy_parity("single-source shortest paths", &program);
}

#[test]
fn shortest_paths_all_pairs_parity() {
    let graph = graphs::generate(12, 25, 3);
    let program = shortest_paths::build_all_pairs(&graph);
    assert_strategy_parity("all-pairs shortest paths", &program);
}

#[test]
fn figure_2_dataflow_parity() {
    let program = dataflow::build_program(&dataflow::example_input());
    assert_strategy_parity("Figure 2 dataflow", &program);
}

// ---------------------------------------------------------------------------
// Differential property suite: seeded random programs, every strategy,
// against the reference least fixed point.
//
// `model::reference_lfp` iterates a plain nested-loop T_P per stratum; it
// shares no code with the solver's join kernels, so agreeing with it cell
// for cell checks the kernels' semantics rather than their consistency
// with themselves. Structured-random programs exercise the corners the
// hand-written workloads miss: lattice heads at several key widths
// (including past the kernels' inline-key width, which forces the
// wide-key fallback), relational heads, filters, negated relation atoms
// (ground and with wildcards), negated lattice atoms, single and tuple
// choice bindings (one of them recursive), multiple seeds, and
// disconnected graphs.
// ---------------------------------------------------------------------------

use flix::core::model;
use flix::lattice::rng::SmallRng;
use flix::lattice::MinCost;
use flix::ValueLattice;

/// One random weighted digraph plus derived-predicate program. The shape
/// is drawn from the seed: node/edge counts, weights, the lattice key
/// width, an optional weight filter, optional negations, optional choice
/// rules, and an optional second seed fact.
fn random_program(seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = rng.gen_range(4i64..11);
    let num_edges = rng.gen_range(nodes..3 * nodes);
    let key_width = *[1usize, 1, 2, 2, 5]
        .get(rng.gen_range(0usize..5))
        .expect("in range");
    let with_filter = rng.gen_bool(0.5);
    let two_sources = rng.gen_bool(0.4);
    let neg_ground = rng.gen_bool(0.5);
    let neg_wild = rng.gen_bool(0.5);
    let neg_lattice = rng.gen_bool(0.6);
    let choose_single = rng.gen_bool(0.5);
    let choose_tuple = rng.gen_bool(0.5);

    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let reach = b.relation("Reach", 1);
    let blocked = b.relation("Blocked", 1);
    let cut = b.relation("Cut", 2);
    let dist = b.lattice("Dist", key_width + 1, LatticeOps::of::<MinCost>());
    let cap = b.lattice("Cap", 2, LatticeOps::of::<MinCost>());
    let far = b.relation("Far", 1);
    let hop = b.relation("Hop", 1);
    let twin = b.relation("Twin", 2);
    let pair = b.relation("Pair", 3);
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    let cheap = b.function("cheap", |args| {
        (args[0].as_int().expect("weight") <= 7).into()
    });
    let step = b.function("step", move |args| {
        let x = args[0].as_int().expect("node");
        Value::set([((x + 1) % nodes).into(), ((2 * x) % nodes).into()])
    });
    let split = b.function("split", move |args| {
        let x = args[0].as_int().expect("node");
        Value::set([
            Value::tuple([x.into(), ((x + 1) % nodes).into()]),
            Value::tuple([((x + 2) % nodes).into(), x.into()]),
        ])
    });

    for _ in 0..num_edges {
        let x = rng.gen_range(0i64..nodes);
        let y = rng.gen_range(0i64..nodes);
        let c = rng.gen_range(1i64..10);
        b.fact(edge, vec![x.into(), y.into(), c.into()]);
    }
    for _ in 0..rng.gen_range(0..3) {
        b.fact(blocked, vec![rng.gen_range(0i64..nodes).into()]);
    }
    for _ in 0..rng.gen_range(0..3) {
        let x = rng.gen_range(0i64..nodes);
        b.fact(cut, vec![x.into(), rng.gen_range(0i64..nodes).into()]);
    }
    for x in 0..nodes {
        if rng.gen_bool(0.5) {
            let limit = MinCost::finite(rng.gen_range(0u64..20)).to_value();
            b.fact(cap, vec![x.into(), limit]);
        }
    }
    let mut sources = vec![rng.gen_range(0i64..nodes)];
    if two_sources {
        sources.push(rng.gen_range(0i64..nodes));
    }
    for &s in &sources {
        b.fact(reach, vec![s.into()]);
        b.fact(hop, vec![s.into()]);
        let mut key: Vec<Value> = vec![Value::from(s); key_width];
        key.push(MinCost::finite(0).to_value());
        b.fact(dist, key);
    }

    // Reach(y) :- Reach(x), Edge(x, y, c) [, cheap(c)] [, !Blocked(y)]
    //             [, !Cut(x, _)].
    let mut body = vec![
        BodyItem::atom(reach, [Term::var("x")]),
        BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
    ];
    if with_filter {
        body.push(BodyItem::filter(cheap, [Term::var("c")]));
    }
    if neg_ground {
        body.push(BodyItem::not(blocked, [Term::var("y")]));
    }
    if neg_wild {
        body.push(BodyItem::not(cut, [Term::var("x"), Term::Wildcard]));
    }
    b.rule(Head::new(reach, [HeadTerm::var("y")]), body);

    // Dist(y…, d + c) :- Dist(x…, d), Edge(x, y, c) — the key repeats
    // one node variable `key_width` times, so width 5 exercises the
    // kernels' wide-key fallback while staying a shortest-path fixpoint.
    let mut head_terms: Vec<HeadTerm> = (0..key_width).map(|_| HeadTerm::var("y")).collect();
    head_terms.push(HeadTerm::app(extend, [Term::var("d"), Term::var("c")]));
    let mut dist_atom: Vec<Term> = vec![Term::var("x")];
    dist_atom.extend((1..key_width).map(|i| Term::var(format!("k{i}"))));
    dist_atom.push(Term::var("d"));
    b.rule(
        Head::new(dist, head_terms),
        [
            BodyItem::atom(dist, dist_atom),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );

    // Far(x) :- Reach(x) [, Cap(x, v)], !Dist(x, x|_…, _|limit|v) — a
    // negated lattice atom one stratum above Dist; the value column is a
    // wildcard, a literal, or a variable bound by a lattice atom.
    if neg_lattice {
        let mut body = vec![BodyItem::atom(reach, [Term::var("x")])];
        let mut neg: Vec<Term> = vec![Term::var("x")];
        neg.extend((1..key_width).map(|_| {
            if rng.gen_bool(0.5) {
                Term::var("x")
            } else {
                Term::Wildcard
            }
        }));
        neg.push(match rng.gen_range(0u32..3) {
            0 => Term::Wildcard,
            1 => Term::Lit(MinCost::finite(rng.gen_range(0u64..15)).to_value()),
            _ => {
                body.push(BodyItem::atom(cap, [Term::var("x"), Term::var("v")]));
                Term::var("v")
            }
        });
        body.push(BodyItem::not(dist, neg));
        b.rule(Head::new(far, [HeadTerm::var("x")]), body);
    }

    // Hop(z) :- Hop(x), z <- step(x) — recursive, so the choice runs in a
    // delta variant too. Twin(x, z) :- Hop(x), z <- step(x), Reach(z)
    // joins on the chosen (boxed) value.
    if choose_single {
        b.rule(
            Head::new(hop, [HeadTerm::var("z")]),
            [
                BodyItem::atom(hop, [Term::var("x")]),
                BodyItem::choose(step, [Term::var("x")], "z"),
            ],
        );
        b.rule(
            Head::new(twin, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(hop, [Term::var("x")]),
                BodyItem::choose(step, [Term::var("x")], "z"),
                BodyItem::atom(reach, [Term::var("z")]),
            ],
        );
    }

    // Pair(u, w, c) :- Reach(x), (u, w) <- split(x), Edge(u, w, c) — a
    // tuple choice whose components key an index probe.
    if choose_tuple {
        b.rule(
            Head::new(
                pair,
                [HeadTerm::var("u"), HeadTerm::var("w"), HeadTerm::var("c")],
            ),
            [
                BodyItem::atom(reach, [Term::var("x")]),
                BodyItem::choose_tuple(split, [Term::var("x")], ["u", "w"]),
                BodyItem::atom(edge, [Term::var("u"), Term::var("w"), Term::var("c")]),
            ],
        );
    }

    b.build().expect("the generated program is well-formed")
}

/// Solves one random program under every strategy and asserts that each
/// model equals the reference least fixed point cell for cell, and that
/// the strategy-invariant statistics coincide across the strategies.
fn assert_differential_parity(seed: u64) {
    let program = random_program(seed);
    let reference = dump(
        &program,
        &model::reference_lfp(&program).expect("stratifiable"),
    );
    let runs: Vec<(&str, Solution)> = configurations()
        .into_iter()
        .map(|(name, solver)| (name, solver.solve(&program).expect("solves")))
        .collect();
    for (name, solution) in &runs {
        assert_eq!(
            dump(&program, solution),
            reference,
            "seed {seed}: {name} disagrees with the reference least fixed point"
        );
    }
    let (base_name, base) = &runs[0];
    for (name, solution) in &runs[1..] {
        let stats = solution.stats();
        assert_eq!(
            stats.facts_inserted,
            base.stats().facts_inserted,
            "seed {seed}: {name} vs {base_name} net insertions"
        );
        assert_eq!(
            stats.total_facts,
            base.stats().total_facts,
            "seed {seed}: {name} vs {base_name} total facts"
        );
        assert_eq!(
            stats.per_stratum,
            base.stats().per_stratum,
            "seed {seed}: {name} vs {base_name} convergence profile"
        );
    }
}

#[test]
fn differential_random_programs_agree() {
    for seed in 0..40 {
        assert_differential_parity(seed);
    }
}

#[test]
fn figure_5_ifds_parity() {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 6,
        nodes_per_proc: 12,
        vars_per_proc: 6,
        call_percent: 15,
        seed: 11,
    }));
    let problem = Arc::new(Taint::new(model.clone()));
    let program = ifds::flix::build_program(&model.graph, problem);
    assert_strategy_parity("Figure 5 IFDS", &program);
}
