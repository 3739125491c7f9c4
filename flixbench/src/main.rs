//! `flixbench` — the end-to-end benchmark of flix-rs.
//!
//! ```text
//! flixbench --workload NAME --seed N --seconds S --trace 0|1
//! flixbench compare DIR_A DIR_B [--benchmark BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, computes the references
//! they are checked against, measures the workload for `--seconds`, and
//! prints a human-readable report followed, as its last line, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around its calls into each layer and reports the
//! per-layer metrics instead. `compare` reads two directories of saved
//! run outputs and says, per workload and metric, whether they agree
//! within the bounds in `BENCHMARK.json`. See `README.md` beside this
//! package for the workloads and the meaning of every metric.
//!
//! Exit codes: 0 success; 1 usage or set-up error; 2 some answer was
//! wrong (the result is still printed); 3 the run tripped a validity
//! guard of the open loop, so its latencies are not reported.

mod compare;
mod layers;
mod service;
mod sssp;
mod stats;
mod table1;
mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use tracer::Span;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "flixr_sssp",
    "table1_su",
    "service_query",
    "service_insert",
    "service_retract",
];

/// The end-to-end metrics every workload reports with `--trace 0`. The
/// tail percentile is printed beside them but not reported: on a shared
/// host it moved by 30% to 130% between runs of the same code, so no
/// bound could hold it.
pub const END_TO_END: [(&str, &str); 3] =
    [("p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every workload reports with `--trace 1`: name,
/// unit, and the end-to-end metric and workload a change in it should
/// move. A workload that does not exercise a layer reports 0 for it.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("lang.parse_ms", "ms", "p50_ms on flixr_sssp; setup_s on service_*"),
    ("lang.typeck_ms", "ms", "p50_ms on flixr_sssp; setup_s on service_*"),
    ("lang.lower_ms", "ms", "p50_ms on flixr_sssp; setup_s on service_*"),
    ("lang.parse_mb_per_s", "MB/s", "p50_ms on flixr_sssp; setup_s on service_*"),
    ("lang.parse_query_us", "us", "p50_ms on service_query"),
    ("lang.compile_update_us", "us", "p50_ms on service_insert, service_retract"),
    ("lang.interp_ratio", "ratio", "p50_ms on flixr_sssp, service_retract"),
    ("lang.closure_solve_ms", "ms", "base of lang.interp_ratio"),
    ("core.solver.ms", "ms", "p50_ms on flixr_sssp, table1_su; setup_s on service_*"),
    ("core.solver.rounds", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.rule_evaluations", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.facts_derived", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.facts_inserted", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.useful_ratio", "ratio", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.index_probes", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.scan_fallbacks", "count", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.rule_eval_ms", "ms", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.unattributed_share", "ratio", "p50_ms on flixr_sssp, table1_su"),
    ("core.solver.negated_rule_ms", "ms", "p50_ms on table1_su"),
    ("core.render_ms", "ms", "p50_ms on flixr_sssp"),
    ("analyses.su_over_imperative", "ratio", "p50_ms on table1_su"),
    ("analyses.imperative_ms", "ms", "base of analyses.su_over_imperative"),
    ("core.incremental.insert_ms", "ms", "p50_ms on service_insert"),
    ("core.incremental.retract_ms", "ms", "p50_ms on service_retract"),
    ("core.incremental.insert_over_scratch", "ratio", "p50_ms on service_insert"),
    ("core.incremental.retract_over_scratch", "ratio", "p50_ms on service_retract"),
    ("core.incremental.scratch_ms", "ms", "base of core.incremental.*_over_scratch"),
    ("core.incremental.facts_derived_per_update", "count", "p50_ms on service_insert, service_retract"),
    ("core.persist.wal_append_ms", "ms", "p50_ms on service_insert, service_retract"),
    ("core.persist.wal_bytes_per_update", "bytes", "p50_ms on service_insert, service_retract"),
    ("core.persist.snapshot_save_ms", "ms", "setup_s on service_*"),
    ("core.persist.snapshot_bytes_per_fact", "bytes", "setup_s on service_*"),
    ("flixd.server.query_us", "us", "p50_ms on service_query"),
    ("flixd.wire.query_us", "us", "p50_ms on service_query"),
    ("flixd.proto.reply_bytes_per_query", "bytes", "p50_ms on service_query"),
    ("flixd.writer.resume_ms", "ms", "p50_ms on service_insert, service_retract"),
    ("flixd.writer.wal_append_ms", "ms", "p50_ms on service_insert, service_retract"),
    ("flixd.writer.publish_gap_ms", "ms", "p50_ms on service_insert, service_retract"),
    ("flixd.writer.entries_per_batch", "count", "bench.update_max_rate_per_s, failed"),
    ("flixd.writer.riders_per_batch", "count", "bench.update_max_rate_per_s, failed"),
    ("flixd.writer.pending_at_end", "count", "bench.update_max_rate_per_s, failed"),
    ("flixd.writer.batches_failed", "count", "bench.update_max_rate_per_s, failed"),
    ("flixd.server.busy_refusals", "count", "bench.update_max_rate_per_s, failed"),
    ("bench.update_max_rate_per_s", "1/s", "ladder result on service_insert, service_retract"),
    ("bench.generator_lag_p99_ms", "ms", "nothing: validity of the open loop"),
    ("trace.overhead_share", "ratio", "nothing: cost of tracing, traced minus untraced p50"),
    ("trace.top_span_coverage", "ratio", "nothing: share of a call its layer spans cover"),
];

/// Fresh processes whose first call `setup_s` takes the median of, for
/// the batch workloads.
const COLD_RUNS: usize = 15;

/// Processes a batch workload's measured window is shared among, one
/// after another. The engine's hash tables are seeded per process, so
/// one process's evaluation order, and with it the cost of its calls, is
/// one draw: the median call of one process can sit 25% above that of
/// the next on the same inputs. A run reports the mean of several draws.
pub const WORKERS: usize = 5;

/// Where runs keep their scratch files and traces, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".flixbench";

/// What a run was asked to do.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Corrupts one answer before it is checked, to show that the
    /// check counts it.
    pub inject_wrong_answer: bool,
    pub origin: Instant,
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The measured window as (untraced, traced) parts: all untraced in
    /// a measured run, halves in a traced one.
    pub fn split_window(&self) -> (Duration, Duration) {
        let all = Duration::from_secs(self.seconds);
        if self.trace {
            (all / 2, all / 2)
        } else {
            (all, Duration::ZERO)
        }
    }
}

/// Back-to-back calls as one process measured them.
#[derive(Default)]
pub struct Sample {
    /// Latency of each call, in order.
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Sample {
    /// Counts one checked call.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Peak memory of the processes that measured, when not this one.
    pub peak_rss_mb: Option<f64>,
    /// (p50, tail, tail percentile, samples) of the reported stream.
    pub latency: Option<(f64, f64, f64, usize)>,
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
    /// Why the run's latencies are not valid, if a guard tripped.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Records the reported stream's latencies: the median and the
    /// percentile `tail_p`.
    pub fn set_latencies(&mut self, ms: &[f64], tail_p: f64) {
        if let (Some(p50), Some(tail)) = (stats::median(ms), stats::percentile(ms, tail_p)) {
            self.latency = Some((p50, tail, tail_p, ms.len()));
        }
        if stats::beyond(ms.len(), tail_p) < 10 {
            self.note(format!(
                "warning: only {} samples beyond p{}; lengthen --seconds",
                stats::beyond(ms.len(), tail_p),
                tail_p * 100.0
            ));
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unregistered metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Counts a sample's calls.
    pub fn add(&mut self, sample: &Sample) {
        self.attempted += sample.attempted;
        self.failed += sample.failed;
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `trace.overhead_share`: the traced median over the untraced one,
    /// minus one.
    pub fn trace_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) {
        let (u, t) = (median_of(untraced_ms), median_of(traced_ms));
        if u > 0.0 {
            self.layer("trace.overhead_share", t / u - 1.0);
        }
    }

    /// `trace.top_span_coverage`: the median share of each `parent` span
    /// that its direct children cover.
    pub fn coverage(&mut self, spans: &[Span], parent: &str) {
        let cover = tracer::child_coverage(spans, parent);
        let min = cover.iter().copied().fold(f64::INFINITY, f64::min);
        self.note(format!(
            "layer spans cover {:.2}% of the median {parent} call, {:.2}% of the least covered",
            median_of(&cover) * 100.0,
            min * 100.0
        ));
        self.layer("trace.top_span_coverage", median_of(&cover));
    }
}

/// The seed of pool entry `index` of a run with `seed`.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
        .rotate_left(17)
}

/// The median, or 0 for no samples.
pub fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Runs this program again in a fresh process with `args`; its standard
/// output, if it succeeded.
fn child(args: &[&str]) -> Option<String> {
    let run = Command::new(std::env::current_exe().ok()?)
        .args(args)
        .output()
        .ok()?;
    run.status
        .success()
        .then(|| String::from_utf8_lossy(&run.stdout).into_owned())
}

/// `setup_s` of a batch workload: the median, over fresh processes, of
/// the first call each makes — what a one-shot invocation pays.
pub fn cold_setup(ctx: &Ctx, out: &mut Outcome) {
    let seed = ctx.seed.to_string();
    let mut times = Vec::new();
    for index in 0..COLD_RUNS {
        let index = index.to_string();
        let args = ["--cold", ctx.workload, "--seed", &seed, "--index", &index];
        let ms =
            child(&args).and_then(|text| text.trim().strip_prefix("cold_ms ")?.parse::<f64>().ok());
        out.attempted += 1;
        match ms {
            Some(ms) => times.push(ms / 1e3),
            None => out.failed += 1,
        }
    }
    out.setup_s = median_of(&times);
}

/// Runs a batch workload's measured window in `WORKERS` fresh processes,
/// one after another, each starting at its own part of the input pool,
/// and records in `out`: every call; the mean over the workers of each
/// one's median call as `p50_ms`; the tail over all calls; and the
/// median of the workers' peak memory.
pub fn run_workers(ctx: &Ctx, out: &mut Outcome) {
    let seed = ctx.seed.to_string();
    let window_ms = (ctx.seconds * 1000 / WORKERS as u64).to_string();
    let mut ms = Vec::new();
    let mut medians = Vec::new();
    let mut rss = Vec::new();
    for index in 0..WORKERS {
        let index_arg = index.to_string();
        let mut args = vec!["--worker", ctx.workload, "--seed", &seed];
        args.extend(["--index", &index_arg, "--window-ms", &window_ms]);
        if ctx.inject_wrong_answer && index == 0 {
            args.push("--inject-wrong-answer");
        }
        let text = child(&args).unwrap_or_default();
        let mut lines = text.lines();
        let head: Vec<f64> = lines
            .next()
            .and_then(|l| l.strip_prefix("worker "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let calls: Option<Vec<f64>> = lines.next().and_then(|l| l.strip_prefix("ms")).map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        });
        match (head.as_slice(), calls) {
            ([attempted, failed, peak], Some(calls)) => {
                out.attempted += *attempted as u64;
                out.failed += *failed as u64;
                rss.push(*peak);
                medians.extend(stats::median(&calls));
                ms.extend(calls);
            }
            _ => {
                out.note(format!("worker {index} failed"));
                out.attempted += 1;
                out.failed += 1;
            }
        }
    }
    out.peak_rss_mb = Some(median_of(&rss));
    let shown: Vec<String> = medians.iter().map(|m| format!("{m:.3}")).collect();
    out.note(format!(
        "p50_ms is the mean of the measuring processes' median calls: {} ms",
        shown.join(", ")
    ));
    out.set_latencies(&ms, 0.9);
    if let (Some(latency), Some(mean)) = (&mut out.latency, stats::mean(&medians)) {
        latency.0 = mean;
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

pub fn usage(message: &str) -> ExitCode {
    eprintln!("flixbench: {message}");
    eprintln!(
        "usage: flixbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       \
         flixbench compare DIR_A DIR_B [--benchmark BENCHMARK.json]",
        WORKLOADS.join(",")
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cold = None;
    let mut worker = None;
    let mut window_ms = 0u64;
    let mut index = 0usize;
    let mut inject_wrong_answer = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--cold" => cold = Some(value()),
            "--worker" => worker = Some(value()),
            "--window-ms" => window_ms = value().parse().unwrap_or(0),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = value().parse::<u8>().ok().filter(|&t| t <= 1),
            "--index" => index = value().parse().unwrap_or(0),
            "--inject-wrong-answer" => inject_wrong_answer = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(seed) = seed else {
        return usage("--seed N is required");
    };
    if let Some(name) = cold {
        let ms = match name.as_str() {
            "flixr_sssp" => sssp::cold(seed, index),
            "table1_su" => table1::cold(seed, index),
            other => Err(format!("no cold run for {other}")),
        };
        return match ms {
            Ok(ms) => {
                println!("cold_ms {ms}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("flixbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(name) = worker {
        let window = Duration::from_millis(window_ms);
        let sample = match name.as_str() {
            "flixr_sssp" => sssp::worker(seed, index, window, inject_wrong_answer),
            "table1_su" => table1::worker(seed, index, window, inject_wrong_answer),
            other => return usage(&format!("no worker for {other}")),
        };
        println!(
            "worker {} {} {}",
            sample.attempted,
            sample.failed,
            peak_rss_mb()
        );
        let ms: Vec<String> = sample.ms.iter().map(f64::to_string).collect();
        println!("ms {}", ms.join(" "));
        return ExitCode::SUCCESS;
    }
    let Some(workload) = WORKLOADS
        .iter()
        .copied()
        .find(|w| workload.as_deref() == Some(*w))
    else {
        return usage("--workload must name one of the workloads");
    };
    let (Some(seconds), Some(trace)) = (seconds, trace) else {
        return usage("--seconds S (at least 1) and --trace 0|1 are required");
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("flixbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace: trace == 1,
        inject_wrong_answer,
        origin: Instant::now(),
        work_dir,
    };
    println!("# flixbench workload={workload} seed={seed} seconds={seconds} trace={trace}");
    let outcome = match workload {
        "flixr_sssp" => Ok(sssp::run(&ctx)),
        "table1_su" => Ok(table1::run(&ctx)),
        "service_query" => service::run(&ctx, service::Kind::Query),
        "service_insert" => service::run(&ctx, service::Kind::Insert),
        _ => service::run(&ctx, service::Kind::Retract),
    };
    match outcome {
        Ok(outcome) => report(&ctx, outcome),
        Err(e) => {
            eprintln!("flixbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the report and the result line; returns the exit code.
fn report(ctx: &Ctx, out: Outcome) -> ExitCode {
    for note in &out.notes {
        println!("# {note}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# error_rate {error_rate} ratio ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    if let Some(why) = &out.invalid {
        eprintln!("flixbench: invalid run, latencies not reported: {why}");
        return ExitCode::from(3);
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if ctx.trace {
        write_trace(ctx, &out.spans);
        println!(
            "# {:<44} {:>14} {:<6} should move",
            "per-layer metric", "value", "unit"
        );
        for (name, unit, moves) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            println!("# {name:<44} {value:>14.4} {unit:<6} {moves}");
            metrics.push((name, value, unit));
        }
    } else {
        let Some((p50, tail, tail_p, n)) = out.latency else {
            eprintln!("flixbench: {}: no latency samples", ctx.workload);
            return ExitCode::from(1);
        };
        println!(
            "# p50_ms over {n} samples; p{} {tail:.6} ms ({} samples beyond it, not bounded)",
            tail_p * 100.0,
            stats::beyond(n, tail_p)
        );
        let values = [
            p50,
            out.setup_s,
            out.peak_rss_mb.unwrap_or_else(peak_rss_mb),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            println!("# {name:<12} {value:>14.6} {unit}");
            metrics.push((name, value, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Writes the run's spans, and prints each layer's self time.
fn write_trace(ctx: &Ctx, spans: &[Span]) {
    let path = ctx.work_dir.join(format!("trace-{}.json", ctx.workload));
    match std::fs::write(&path, tracer::to_json(spans)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("flixbench: cannot write {}: {e}", path.display()),
    }
    println!(
        "# {:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in tracer::totals(spans) {
        println!(
            "# {name:<24} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flixd::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program reports, in the same order and units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(names(&doc, "per_layer"), own(&per_layer));
    }

    #[test]
    fn sub_seeds_differ() {
        let seeds: std::collections::HashSet<u64> = (0..1000)
            .map(|i| sub_seed(7, i))
            .chain((0..1000).map(|i| sub_seed(8, i)))
            .collect();
        assert_eq!(seeds.len(), 2000);
    }
}
