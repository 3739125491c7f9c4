//! Per-layer metrics shared by several workloads, each computed from the
//! spans and statistics of a traced run or from a side measurement made
//! after it.

use crate::tracer::{durations_ms, Span};
use crate::{median_of, Outcome};
use flix_analyses::shortest_paths;
use flix_analyses::workloads::graphs::WeightedGraph;
use flix_core::{SolveStats, Solver};
use std::time::Instant;

/// `lang.*` front-end metrics from the `lang.parse`, `lang.typeck` and
/// `lang.lower` spans of calls on sources about as long as `source`.
pub fn front_end(out: &mut Outcome, spans: &[Span], source: &str) {
    let parse = median_of(&durations_ms(spans, "lang.parse"));
    out.layer("lang.parse_ms", parse);
    out.layer(
        "lang.typeck_ms",
        median_of(&durations_ms(spans, "lang.typeck")),
    );
    out.layer(
        "lang.lower_ms",
        median_of(&durations_ms(spans, "lang.lower")),
    );
    if parse > 0.0 {
        out.layer(
            "lang.parse_mb_per_s",
            source.len() as f64 / 1e6 / (parse / 1e3),
        );
    }
}

/// `core.solver.*` metrics from the statistics of traced solves and
/// their `core.solve` spans. `negated_rule` indexes the rule whose body
/// negates an atom, if the program has one.
pub fn solver(
    out: &mut Outcome,
    stats: &[SolveStats],
    spans: &[Span],
    negated_rule: Option<usize>,
) {
    if stats.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&SolveStats) -> f64| median_of(&stats.iter().map(f).collect::<Vec<_>>());
    let rule_eval_ns = |s: &SolveStats| s.per_rule.iter().map(|r| r.eval_ns).sum::<u64>() as f64;
    out.layer(
        "core.solver.ms",
        median_of(&durations_ms(spans, "core.solve")),
    );
    out.layer("core.solver.rounds", med(&|s| s.rounds as f64));
    out.layer(
        "core.solver.rule_evaluations",
        med(&|s| s.rule_evaluations as f64),
    );
    out.layer(
        "core.solver.facts_derived",
        med(&|s| s.facts_derived as f64),
    );
    out.layer(
        "core.solver.facts_inserted",
        med(&|s| s.facts_inserted as f64),
    );
    let derived: u64 = stats.iter().map(|s| s.facts_derived).sum();
    let inserted: u64 = stats.iter().map(|s| s.facts_inserted).sum();
    if derived > 0 {
        out.layer("core.solver.useful_ratio", inserted as f64 / derived as f64);
    }
    out.layer("core.solver.index_probes", med(&|s| s.index_probes as f64));
    out.layer(
        "core.solver.scan_fallbacks",
        med(&|s| s.scan_fallbacks as f64),
    );
    out.layer("core.solver.rule_eval_ms", med(&|s| rule_eval_ns(s) / 1e6));
    let wall: u64 = stats.iter().map(|s| s.wall_ns).sum();
    let eval: f64 = stats.iter().map(rule_eval_ns).sum();
    if wall > 0 {
        out.layer("core.solver.unattributed_share", 1.0 - eval / wall as f64);
    }
    if let Some(rule) = negated_rule {
        out.layer(
            "core.solver.negated_rule_ms",
            med(&|s| s.per_rule.get(rule).map_or(0.0, |r| r.eval_ns as f64 / 1e6)),
        );
    }
}

/// The solve time of the FLIX-source program for `graph` (user lattice
/// and transfer function run by the interpreter) divided by the solve
/// time of `shortest_paths::build_single_source` (Rust closures) on the
/// same graph; returns `(ratio, closure_ms)`. Medians of three solves.
pub fn interp_ratio(graph: &WeightedGraph, source: &str) -> (f64, f64) {
    let solve_ms = |program: &flix_core::Program| {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(Solver::new().solve(program).expect("the program solves"));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median_of(&times)
    };
    let interpreted = solve_ms(&flix_lang::compile(source).expect("the generated source compiles"));
    let closures = solve_ms(&shortest_paths::build_single_source(graph, 0));
    (interpreted / closures, closures)
}
