//! The `table1_su` workload: the Strong Update analysis of the paper's
//! Table 1, through `strong_update::flix::analyze`.
//!
//! Closed loop, one thread, no front end and no service. Each call
//! analyzes one generated C-like program; calls cycle through a pool of
//! programs drawn from the seed, because the cost of one program varies
//! tenfold with its points-to structure. The reference is
//! `strong_update::imperative::analyze` on the same input.

use crate::tracer::Tracer;
use crate::{sub_seed, Ctx, Outcome, Sample};
use flix_analyses::strong_update::{self, parse_obj, SuInput, SuResult};
use flix_analyses::workloads::c_program;
use flix_core::{Solution, SolveStats, Solver, ValueLattice};
use flix_lattice::SuLattice;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Input facts per program (`c_program::generate` target).
pub const FACTS: usize = 300;
/// Programs per seed; calls cycle through them.
pub const POOL: usize = 1024;
/// Head of the one rule with a negated body atom, Figure 4's
/// `SUAfter(l, a, t) :- SUBefore(l, a, t), !Kill(l, a)`: the first rule
/// deriving `SUAfter` in `strong_update::flix::build_program`.
const NEGATED_RULE_HEAD: &str = "SUAfter";

/// Pool entry `index` for `seed`.
pub fn input(seed: u64, index: usize) -> SuInput {
    c_program::generate(FACTS, sub_seed(sub_seed(seed, index), 0))
}

/// A digest of what two analyses must agree on: `Pt`, `PtH` and the
/// flow-sensitive `SUAfter` cells. References are kept as digests so
/// that a large pool costs little memory.
pub fn digest(result: &SuResult) -> u64 {
    let mut h = DefaultHasher::new();
    (&result.pt, &result.pt_heap, &result.su_after).hash(&mut h);
    h.finish()
}

/// `strong_update::flix::analyze` taken apart at its calls into the
/// analyses and core layers, so that a traced call has one span per
/// layer. The body follows `strong_update::flix::analyze_with`.
fn traced_call(tr: &mut Tracer, input: &SuInput) -> Result<(SuResult, SolveStats), String> {
    tr.span("analyses.su_flix", None, |tr| {
        let program = tr.span("analyses.build_program", None, |_| {
            strong_update::flix::build_program(input)
        });
        let solution = tr
            .span("core.solve", None, |_| Solver::new().solve(&program))
            .map_err(|e| e.to_string())?;
        let stats = solution.stats().clone();
        let result = tr.span("analyses.extract", None, |_| extract(&solution));
        tr.span("core.drop", None, |_| drop((program, solution)));
        Ok((result, stats))
    })
}

fn extract(solution: &Solution) -> SuResult {
    let mut result = SuResult {
        derived_facts: solution.total_facts(),
        ..SuResult::default()
    };
    for row in solution.relation("Pt").expect("declared") {
        result.pt.insert((
            row[0].as_int().expect("var id") as u32,
            parse_obj(row[1].as_str().expect("object")),
        ));
    }
    for row in solution.relation("PtH").expect("declared") {
        result.pt_heap.insert((
            parse_obj(row[0].as_str().expect("object")),
            parse_obj(row[1].as_str().expect("object")),
        ));
    }
    for (key, value) in solution.lattice("SUAfter").expect("declared") {
        let l = key[0].as_int().expect("label") as u32;
        let a = parse_obj(key[1].as_str().expect("object"));
        result
            .su_after
            .insert((l, a), SuLattice::expect_from(value));
    }
    result
}

/// The cold first call in this process on pool entry `index`, in ms.
pub fn cold(seed: u64, index: usize) -> Result<f64, String> {
    let input = input(seed, index);
    let start = Instant::now();
    let got = strong_update::flix::analyze(&input);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if digest(&got) != digest(&strong_update::imperative::analyze(&input)) {
        return Err("cold run disagrees with the imperative analysis".into());
    }
    Ok(ms)
}

/// The pool for `seed` with the digests of its reference results, one
/// discarded call made so that lazy set-up has finished.
fn warm_pool(seed: u64) -> (Vec<SuInput>, Vec<u64>) {
    let pool: Vec<SuInput> = (0..POOL).map(|i| input(seed, i)).collect();
    let expected = pool
        .iter()
        .map(|input| digest(&strong_update::imperative::analyze(input)))
        .collect();
    let _ = strong_update::flix::analyze(&pool[0]);
    (pool, expected)
}

/// Calls `analyze` back to back for `window`, from pool entry `offset`
/// on, checking every result. Also returns the pool entry of each call.
fn measure(
    (pool, expected): &(Vec<SuInput>, Vec<u64>),
    mut analyze: impl FnMut(&SuInput) -> Option<SuResult>,
    offset: usize,
    window: Duration,
    inject_wrong_answer: bool,
) -> (Sample, Vec<usize>) {
    let mut sample = Sample::default();
    let mut used = Vec::new();
    let deadline = Instant::now() + window;
    let mut i = offset % POOL;
    while Instant::now() < deadline {
        let start = Instant::now();
        let got = analyze(&pool[i]);
        sample.ms.push(start.elapsed().as_secs_f64() * 1e3);
        let ok = got.is_some_and(|mut got| {
            if inject_wrong_answer && sample.attempted == 0 {
                got.pt.insert((u32::MAX, 0));
            }
            digest(&got) == expected[i]
        });
        sample.count(ok);
        used.push(i);
        i = (i + 1) % POOL;
    }
    (sample, used)
}

/// One measuring process's share of the window.
pub fn worker(seed: u64, offset: usize, window: Duration, inject_wrong_answer: bool) -> Sample {
    let pool = warm_pool(seed);
    let analyze = |input: &SuInput| Some(strong_update::flix::analyze(input));
    let offset = offset * POOL / crate::WORKERS;
    measure(&pool, analyze, offset, window, inject_wrong_answer).0
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    crate::cold_setup(ctx, &mut out);
    if !ctx.trace {
        crate::run_workers(ctx, &mut out);
        return out;
    }

    // A traced run measures half its window untraced, then the same
    // inputs traced, so that the two halves differ only in tracing.
    let pool = warm_pool(ctx.seed);
    let (untraced, traced) = ctx.split_window();
    let analyze = |input: &SuInput| Some(strong_update::flix::analyze(input));
    let (plain, _) = measure(&pool, analyze, 0, untraced, ctx.inject_wrong_answer);
    let mut tr = Tracer::new(true, ctx.origin, "main");
    let mut stats = Vec::new();
    let traced_analyze = |input: &SuInput| {
        let (result, s) = traced_call(&mut tr, input).ok()?;
        stats.push(s);
        Some(result)
    };
    let (with_spans, used) = measure(&pool, traced_analyze, 0, traced, false);
    out.trace_overhead(&plain.ms, &with_spans.ms);
    out.add(&plain);
    out.add(&with_spans);
    let spans = tr.into_spans();
    let negated = stats
        .first()
        .and_then(|s| s.per_rule.iter().position(|r| r.head == NEGATED_RULE_HEAD));
    crate::layers::solver(&mut out, &stats, &spans, negated);
    out.coverage(&spans, "analyses.su_flix");

    // The imperative baseline on the same programs the traced calls
    // analyzed, timed outside any span; the ratio is taken per program.
    let mut imperative_ms = std::collections::BTreeMap::new();
    for &k in &used {
        imperative_ms.entry(k).or_insert_with(|| {
            let start = Instant::now();
            std::hint::black_box(strong_update::imperative::analyze(&pool.0[k]));
            start.elapsed().as_secs_f64() * 1e3
        });
    }
    let base: Vec<f64> = used.iter().map(|k| imperative_ms[k]).collect();
    let ratios: Vec<f64> = with_spans
        .ms
        .iter()
        .zip(&base)
        .map(|(f, i)| f / i)
        .collect();
    out.layer("analyses.imperative_ms", crate::median_of(&base));
    out.layer("analyses.su_over_imperative", crate::median_of(&ratios));
    out.spans = spans;
    out
}
