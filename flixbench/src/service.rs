//! The service workloads: two client streams against a `flixd::Server`
//! started in this process with snapshot and write-ahead log enabled,
//! telemetry on and the default solver, serving the `flixr_sssp` program.
//!
//! Load comes from two threads, each with its own connection:
//!
//! * the reader sends `Reach("nK", _)` queries, `K` uniform from the seed;
//! * the writer sends `Edge(a, b, 1).` inserts or `-Edge(a, b, 1).`
//!   retracts, for pairs absent from the base graph.
//!
//! The stream a workload reports runs as a closed loop: the next request
//! leaves when the previous reply arrives. The other stream runs as an
//! open loop at a fixed rate: requests go out when due, and latency is
//! timed from the due time, so a stall is charged to every request it
//! delays. See [`Kind`] for which is which.
//!
//! Every reply is checked: a query answer against `graphs::dijkstra` on
//! the edge set of the epoch the reply names, an update by its
//! acknowledgement and epoch, and the final model as a whole.

use crate::sssp::{self, reach_line, EDGE_DECL};
use crate::stats::percentile;
use crate::tracer::{durations_ms, Span, Tracer};
use crate::{median_of, sub_seed, Ctx, Outcome};
use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{save_snapshot, DeltaLog, Solver};
use flix_lattice::rng::SmallRng;
use flixd::json::{self, Json};
use flixd::{Client, Hooks, ReplyBody, Request, Server, ServerConfig};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Components of the served graph (see [`sssp::graph`]).
const COMPONENTS: u32 = 8;
/// Nodes of the served graph.
const NODES: u32 = COMPONENTS * sssp::COMPONENT_NODES;
/// Server starts in set-up; `setup_s` is their median.
const SETUP_STARTS: usize = 9;
/// Length of one ladder step.
const LADDER_STEP: Duration = Duration::from_secs(2);
/// Validity ceiling on the generator's own lateness, p99.
const LAG_CEILING_MS: f64 = 100.0;
/// Validity ceiling on due-but-unsent updates when a phase ends.
const BACKLOG_CEILING: usize = 2;
/// Validity ceiling on the daemon's queued updates when the fixed-rate
/// phase ends (one writer connection keeps at most one in flight).
const PENDING_CEILING: u64 = 1;
/// Requests per stream whose spans a traced phase keeps; a closed-loop
/// reader sends far more, and their spans add nothing but size.
const TRACED_REQUESTS: usize = 5000;
/// Updates replayed outside the daemon for the `core.incremental.*`
/// and `core.persist.*` metrics: this many inserts, then their retracts.
const REPLAY: usize = 8;

/// Which stream a service workload reports, and its rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `service_query`: reports queries from a closed-loop
    /// reader, beside a writer alternating insert and retract at 4/s.
    Query,
    /// `service_insert`: reports inserts from a closed-loop
    /// writer of fresh edges, beside a reader at 20/s.
    Insert,
    /// `service_retract`: reports retracts from a closed-loop
    /// writer alternately inserting an absent edge and retracting it,
    /// beside a reader at 20/s.
    Retract,
}

impl Kind {
    /// The reader's rate; `None` is a closed loop.
    fn query_rate(self) -> Option<f64> {
        match self {
            Kind::Query => None,
            Kind::Insert | Kind::Retract => Some(20.0),
        }
    }

    /// The writer's rate; `None` is a closed loop.
    fn write_rate(self) -> Option<f64> {
        match self {
            Kind::Query => Some(4.0),
            Kind::Insert | Kind::Retract => None,
        }
    }

    /// More updates per second than the writer can complete, to size
    /// its script.
    fn script_rate(self) -> f64 {
        match self {
            Kind::Query => 4.0,
            Kind::Insert => 250.0,
            Kind::Retract => 40.0,
        }
    }

    /// Open-loop writer rates of the ladder phase (traced runs only).
    fn ladder(self) -> &'static [f64] {
        match self {
            Kind::Query => &[],
            Kind::Insert => &[20.0, 40.0, 80.0, 160.0],
            Kind::Retract => &[8.0, 16.0, 32.0, 64.0],
        }
    }

    /// The tail percentile printed beside `p50_ms`.
    fn tail_p(self) -> f64 {
        match self {
            Kind::Query => 0.99,
            Kind::Insert | Kind::Retract => 0.9,
        }
    }

    /// The p90 latency limit a ladder step must meet.
    fn limit_ms(self) -> f64 {
        match self {
            Kind::Query => f64::INFINITY,
            Kind::Insert => 50.0,
            Kind::Retract => 250.0,
        }
    }
}

/// One update of the writer's script.
struct Op {
    text: String,
    retract: bool,
    /// Index into the reference distances of the model after this op.
    state: usize,
}

/// The generated inputs of one run.
struct Inputs {
    graph: WeightedGraph,
    source: String,
    /// The absent edges the script inserts, in order.
    pairs: Vec<(u32, u32)>,
    ops: Vec<Op>,
    /// `dist[state][k]`: the shortest distance from `n0` to `nK` in
    /// that model (every node stays reachable along the spine).
    dist: Vec<Vec<u32>>,
}

/// The update file inserting, or retracting, the edge `a → b` of weight 1.
fn update_text((a, b): (u32, u32), retract: bool) -> String {
    let sign = if retract { "-" } else { "" };
    format!("{EDGE_DECL}{sign}{}\n", sssp::edge_fact(a, b, 1))
}

fn distances(graph: &WeightedGraph) -> Vec<u32> {
    graphs::dijkstra(graph, 0)
        .into_iter()
        .map(|d| d.and_then(|d| u32::try_from(d).ok()).unwrap_or(u32::MAX))
        .collect()
}

/// The `Reach` fact the model holds for node `k`, if any.
fn reach(dist: &[u32], k: usize) -> Option<String> {
    (dist[k] != u32::MAX).then(|| reach_line(k as u32, u64::from(dist[k])))
}

fn inputs(kind: Kind, seed: u64, updates: usize) -> Inputs {
    let graph = sssp::graph(COMPONENTS, sub_seed(seed, 0));
    let source = sssp::source(&graph);
    let present: HashSet<(u32, u32)> = graph.edges.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 1));
    let mut chosen = HashSet::new();
    let mut pairs = Vec::with_capacity(updates);
    while pairs.len() < updates {
        let pair = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        if pair.0 != pair.1 && !present.contains(&pair) && chosen.insert(pair) {
            pairs.push(pair);
        }
    }
    let mut ops = Vec::with_capacity(updates);
    let dist = match kind {
        Kind::Query | Kind::Retract => {
            // Insert pair j, then retract it: the model alternates
            // between the base graph (state 0) and base + pair j.
            let mut dist = vec![distances(&graph)];
            for (j, &(a, b)) in pairs.iter().take(updates.div_ceil(2)).enumerate() {
                let mut g = graph.clone();
                g.edges.push((a, b, 1));
                dist.push(distances(&g));
                ops.push(Op {
                    text: update_text((a, b), false),
                    retract: false,
                    state: j + 1,
                });
                ops.push(Op {
                    text: update_text((a, b), true),
                    retract: true,
                    state: 0,
                });
            }
            dist
        }
        Kind::Insert => {
            // Each insert adds to the last: state i holds the first i.
            let mut g = graph.clone();
            let mut dist = vec![distances(&g)];
            for (i, &(a, b)) in pairs.iter().enumerate() {
                g.edges.push((a, b, 1));
                dist.push(distances(&g));
                ops.push(Op {
                    text: update_text((a, b), false),
                    retract: false,
                    state: i + 1,
                });
            }
            dist
        }
    };
    Inputs {
        graph,
        source,
        pairs,
        ops,
        dist,
    }
}

/// Server-side spans of the language hooks, recorded while `on`, up to
/// `TRACED_REQUESTS` per hook.
struct HookLog {
    on: AtomicBool,
    origin: Instant,
    queries: Mutex<Vec<Span>>,
    updates: Mutex<Vec<Span>>,
}

impl HookLog {
    fn time<R>(&self, spans: &Mutex<Vec<Span>>, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = spans.lock().expect("a hook panicked while recording");
        if spans.len() < TRACED_REQUESTS {
            spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: None,
                request: None,
                thread: "server",
            });
        }
        out
    }
}

/// The three `flix_lang` one-liners the `flixd` binary installs; the two
/// the workloads call are wrapped in a span when tracing.
fn hooks(log: &Arc<HookLog>) -> Hooks {
    let (q, u) = (Arc::clone(log), Arc::clone(log));
    Hooks {
        parse_query: Box::new(move |text| {
            q.time(&q.queries, "lang.parse_query", || {
                flix_lang::parse_query_atom(text)
            })
            .map_err(|e| e.to_string())
        }),
        parse_atom: Box::new(|text| flix_lang::parse_ground_atom(text).map_err(|e| e.to_string())),
        compile_update: Box::new(move |text| {
            u.time(&u.updates, "lang.compile_update", || {
                flix_lang::compile_update(text)
            })
            .map_err(|e| e.to_string())
        }),
    }
}

fn config(dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.snapshot = Some(dir.join("model.snap"));
    config.wal = Some(dir.join("deltas.wal"));
    config
}

/// Sleeps until well before `due`, then yields until it passes. Waking
/// from a sleep can take milliseconds on a virtual machine whose idle
/// CPUs halt; yielding keeps the generator's CPU awake, so requests leave
/// on time, while the daemon's threads still get the CPU when they run.
fn wait_until(due: Instant) {
    const MARGIN: Duration = Duration::from_millis(20);
    let now = Instant::now();
    if due > now + MARGIN {
        std::thread::sleep(due - now - MARGIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One request as the client saw it, kept small: a closed-loop reader
/// sends hundreds of thousands.
struct Rec {
    /// From due to reply.
    latency_ms: f64,
    /// The generator's own lateness: from when the request was due and
    /// the connection free to when it left.
    lag_ms: f64,
    /// Client round trip, send to reply.
    rtt_ms: f64,
    /// Query key or script index.
    item: u32,
    /// Whether the reply was right.
    ok: bool,
}

fn send(client: &mut Client, request: &Request) -> Result<(u64, Vec<String>), String> {
    match client.request(request) {
        Ok(reply) => match reply.body {
            ReplyBody::Answers(lines) | ReplyBody::Facts(lines) => Ok((reply.epoch, lines)),
            ReplyBody::Updated { .. } => Ok((reply.epoch, Vec::new())),
            ReplyBody::Error { code, message } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("unexpected reply {other:?}")),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// A stream of requests from one connection. Open loop (`rate` given):
/// request `i` is due at `start + i / rate` while that is before `end`.
/// Closed loop: each request is due when the previous reply arrives.
/// `next` yields an item and its request; `check` judges the reply to
/// the item after the clock has stopped. Returns the records and how
/// many requests were still unsent when `end` passed.
fn stream(
    client: &mut Client,
    tr: &mut Tracer,
    (start, end): (Instant, Instant),
    rate: Option<f64>,
    mut next: impl FnMut() -> Option<(usize, Request)>,
    mut check: impl FnMut(usize, Result<(u64, Vec<String>), String>) -> bool,
    id_base: u64,
) -> (Vec<Rec>, usize) {
    // Reserved up front so that growing the list never doubles it: the
    // process's peak memory is a reported metric.
    let expected = rate.unwrap_or(40_000.0) * (end - start).as_secs_f64();
    let mut recs = Vec::with_capacity(expected as usize + 16);
    let mut backlog = 0;
    let mut free = start;
    wait_until(start);
    for i in 0u64.. {
        let due = match rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        if due >= end {
            break;
        }
        let Some((item, request)) = next() else { break };
        wait_until(due);
        let sent = Instant::now();
        if sent > end {
            backlog += 1;
        }
        let reply = send(client, &request);
        let done = Instant::now();
        if recs.len() < TRACED_REQUESTS {
            let id = Some(id_base + i);
            let top = tr.record("service.request", id, (due, done), None);
            tr.record("bench.wait", id, (due, sent), top);
            tr.record("flixd.roundtrip", id, (sent, done), top);
        }
        let ok = check(item, reply);
        let ms =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
        recs.push(Rec {
            latency_ms: ms(due, done),
            lag_ms: ms(due.max(free), sent),
            rtt_ms: ms(sent, done),
            item: item as u32,
            ok,
        });
        free = done;
    }
    (recs, backlog)
}

/// What one phase of the two streams produced.
struct Phase {
    reads: Vec<Rec>,
    writes: Vec<Rec>,
    backlog: usize,
    /// The daemon's queued updates when the reader's window closed,
    /// while the writer may still be mid-request.
    pending_at_end: Option<u64>,
    spans: Vec<Span>,
}

struct Session<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    reader: Client,
    writer: Client,
    /// The epoch published before the first scripted update; update `i`
    /// publishes `base_epoch + i + 1`.
    base_epoch: u64,
    next_op: usize,
    keys: SmallRng,
    /// Corrupt the next query answer before checking it.
    inject_wrong_answer: bool,
}

/// The reference state of the model published as `epoch`, when update
/// `i` of the script publishes `base_epoch + i + 1`.
fn state_at(inputs: &Inputs, base_epoch: u64, epoch: u64) -> Option<usize> {
    match usize::try_from(epoch.checked_sub(base_epoch)?).ok()? {
        0 => Some(0),
        i => inputs.ops.get(i - 1).map(|op| op.state),
    }
}

impl Session<'_> {
    /// Runs both streams for `length`, the writer at `write_rate`.
    fn phase(
        &mut self,
        length: Duration,
        write_rate: Option<f64>,
        traced: bool,
        origin: Instant,
    ) -> Phase {
        let start = Instant::now() + Duration::from_millis(5);
        let window = (start, start + length);
        let inputs = self.inputs;
        let base_epoch = self.base_epoch;
        let mut wrong_once = std::mem::take(&mut self.inject_wrong_answer);
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let (next_op, keys) = (&mut self.next_op, &mut self.keys);
        let query_rate = self.kind.query_rate();
        let ((reads, _), pending_at_end, (writes, backlog), spans) = std::thread::scope(|s| {
            let r = s.spawn(move || {
                let mut tr = Tracer::new(traced, origin, "reader");
                let next = || {
                    let key = keys.gen_range(0..NODES);
                    let atom = format!("Reach(\"n{key}\", _)");
                    Some((key as usize, Request::Query { atom }))
                };
                let check = |key: usize, reply: Result<(u64, Vec<String>), String>| {
                    let Ok((epoch, lines)) = reply else {
                        return false;
                    };
                    let Some(state) = state_at(inputs, base_epoch, epoch) else {
                        return false;
                    };
                    let expected = reach(&inputs.dist[state], key);
                    let wrong = std::mem::take(&mut wrong_once);
                    !wrong
                        && lines.len() == usize::from(expected.is_some())
                        && lines.first() == expected.as_ref()
                };
                let out = stream(reader, &mut tr, window, query_rate, next, check, 0);
                let pending =
                    reader
                        .request(&Request::Status)
                        .ok()
                        .and_then(|reply| match reply.body {
                            ReplyBody::Status(status) => Some(status.pending_updates),
                            _ => None,
                        });
                (out, pending, tr.into_spans())
            });
            let w = s.spawn(move || {
                let mut tr = Tracer::new(traced, origin, "writer");
                let next = || {
                    let op = inputs.ops.get(*next_op)?;
                    *next_op += 1;
                    let request = Request::Update {
                        text: op.text.clone(),
                        timeout_secs: None,
                    };
                    Some((*next_op - 1, request))
                };
                let check = |i: usize, reply: Result<(u64, Vec<String>), String>| {
                    reply.is_ok_and(|(epoch, _)| epoch == base_epoch + i as u64 + 1)
                };
                let out = stream(writer, &mut tr, window, write_rate, next, check, 1 << 32);
                (out, tr.into_spans())
            });
            let (reads, pending, mut spans) = r.join().expect("the reader thread panicked");
            let (writes, writer_spans) = w.join().expect("the writer thread panicked");
            crate::tracer::append(&mut spans, writer_spans);
            (reads, pending, writes, spans)
        });
        Phase {
            reads,
            writes,
            backlog,
            pending_at_end,
            spans,
        }
    }
}

/// (attempted, failed) over a phase's requests.
fn tally(phase: &Phase) -> (u64, u64) {
    let all = phase.reads.iter().chain(&phase.writes);
    let failed = all.clone().filter(|r| !r.ok).count();
    (all.count() as u64, failed as u64)
}

fn stats_doc(client: &mut Client) -> Option<Json> {
    match client
        .request(&Request::Stats { prometheus: false })
        .ok()?
        .body
    {
        ReplyBody::Stats(text) => json::parse(&text).ok(),
        _ => None,
    }
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// `sum / count` of a histogram's growth between two documents.
fn hist_mean(before: &Json, after: &Json, path: &[&str]) -> f64 {
    let field = |doc: &Json, f: &str| {
        let mut p = path.to_vec();
        p.push(f);
        num(doc, &p)
    };
    let count = field(after, "count") - field(before, "count");
    if count > 0.0 {
        (field(after, "sum") - field(before, "sum")) / count
    } else {
        0.0
    }
}

/// `flixd.*` metrics from two `flixd-stats/1` documents around the traced
/// window, plus the client's own round trips over the same window.
fn daemon_layers(out: &mut Outcome, before: &Json, after: &Json, rtt_us: &[f64]) {
    let q = ["requests", "query"];
    let server_us = hist_mean(before, after, &["requests", "query", "latency_ns"]) / 1e3;
    out.layer("flixd.server.query_us", server_us);
    if let Some(rtt) = crate::stats::mean(rtt_us) {
        out.layer("flixd.wire.query_us", rtt - server_us);
    }
    let queries = num(after, &[q[0], q[1], "count"]) - num(before, &[q[0], q[1], "count"]);
    if queries > 0.0 {
        let bytes =
            num(after, &[q[0], q[1], "bytes_out"]) - num(before, &[q[0], q[1], "bytes_out"]);
        out.layer("flixd.proto.reply_bytes_per_query", bytes / queries);
    }
    out.layer(
        "flixd.writer.resume_ms",
        hist_mean(before, after, &["writer", "resume_ns"]) / 1e6,
    );
    out.layer(
        "flixd.writer.wal_append_ms",
        hist_mean(before, after, &["writer", "wal_append_ns"]) / 1e6,
    );
    out.layer(
        "flixd.writer.publish_gap_ms",
        hist_mean(before, after, &["writer", "publish_gap_ns"]) / 1e6,
    );
    out.layer(
        "flixd.writer.entries_per_batch",
        hist_mean(before, after, &["writer", "entries_per_batch"]),
    );
    out.layer(
        "flixd.writer.riders_per_batch",
        hist_mean(before, after, &["writer", "riders_per_batch"]),
    );
    out.layer(
        "flixd.writer.batches_failed",
        num(after, &["writer", "batches_failed"]) - num(before, &["writer", "batches_failed"]),
    );
    let busy = ["requests", "update", "errors", "busy"];
    out.layer(
        "flixd.server.busy_refusals",
        num(after, &busy) - num(before, &busy),
    );
}

/// Replays inserts of `pairs`, then their retracts, outside the daemon through
/// `DeltaLog::append` and `Solver::resume`, for the `core.incremental.*`
/// and `core.persist.*` metrics.
fn replay(
    out: &mut Outcome,
    inputs: &Inputs,
    pairs: &[(u32, u32)],
    dir: &Path,
) -> Result<(), String> {
    let program = flix_lang::compile(&inputs.source).map_err(|e| e.to_string())?;
    let solver = Solver::new();
    let mut model = solver.solve(&program).map_err(|e| e.to_string())?;
    let wal_path = dir.join("replay.wal");
    let (mut wal, _) = DeltaLog::open(&wal_path, &program).map_err(|e| e.to_string())?;
    let wal_start = std::fs::metadata(&wal_path)
        .map_err(|e| e.to_string())?
        .len();
    let (mut insert_ms, mut retract_ms, mut wal_ms, mut derived) = (vec![], vec![], vec![], 0u64);
    for retract in [false, true] {
        for pair in pairs {
            let delta = flix_lang::compile_update(&update_text(*pair, retract))
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            wal.append(&delta).map_err(|e| e.to_string())?;
            wal_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            model = solver
                .resume(&program, &model, &delta)
                .map_err(|e| e.to_string())?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if retract {
                &mut retract_ms
            } else {
                &mut insert_ms
            }
            .push(ms);
            derived += model.stats().facts_derived;
        }
    }
    let wal_end = std::fs::metadata(&wal_path)
        .map_err(|e| e.to_string())?
        .len();
    // After the retracts the model is the base graph's again: the
    // scratch solve of the same extensional facts is the ratios' base.
    let scratch: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(solver.solve(&program).expect("the base program solves"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let scratch = median_of(&scratch);
    let snap = dir.join("replay.snap");
    let start = Instant::now();
    save_snapshot(&snap, &program, &model).map_err(|e| e.to_string())?;
    let snap_ms = start.elapsed().as_secs_f64() * 1e3;
    let snap_bytes = std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();

    let updates = (2 * pairs.len()) as f64;
    out.layer("core.incremental.insert_ms", median_of(&insert_ms));
    out.layer("core.incremental.retract_ms", median_of(&retract_ms));
    out.layer("core.incremental.scratch_ms", scratch);
    out.layer(
        "core.incremental.insert_over_scratch",
        median_of(&insert_ms) / scratch,
    );
    out.layer(
        "core.incremental.retract_over_scratch",
        median_of(&retract_ms) / scratch,
    );
    out.layer(
        "core.incremental.facts_derived_per_update",
        derived as f64 / updates,
    );
    out.layer("core.persist.wal_append_ms", median_of(&wal_ms));
    out.layer(
        "core.persist.wal_bytes_per_update",
        (wal_end - wal_start) as f64 / updates,
    );
    out.layer("core.persist.snapshot_save_ms", snap_ms);
    out.layer(
        "core.persist.snapshot_bytes_per_fact",
        snap_bytes as f64 / model.total_facts().max(1) as f64,
    );
    Ok(())
}

/// Notes the figures of every stream of `phase` under the names a
/// reader of the daemon's own documents would look for, with sample
/// counts, whichever stream the workload reports.
fn describe(out: &mut Outcome, inputs: &Inputs, phase: &Phase) {
    let reads: Vec<f64> = phase.reads.iter().map(|r| r.latency_ms).collect();
    let writes = |retract: bool| -> Vec<f64> {
        phase
            .writes
            .iter()
            .filter(|w| inputs.ops[w.item as usize].retract == retract)
            .map(|w| w.latency_ms)
            .collect()
    };
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(f64::NAN);
    out.note(format!(
        "query_p50_us {:.1}  query_p90_us {:.1}  query_p99_us {:.1}  (n={})",
        pct(&reads, 0.5) * 1e3,
        pct(&reads, 0.9) * 1e3,
        pct(&reads, 0.99) * 1e3,
        reads.len()
    ));
    for (name, v) in [("insert", writes(false)), ("retract", writes(true))] {
        out.note(format!(
            "{name}_p50_ms {:.3}  {name}_p90_ms {:.3}  (n={})",
            pct(&v, 0.5),
            pct(&v, 0.9),
            v.len()
        ));
    }
}

/// Runs a service workload.
pub fn run(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    let dir = ctx.work_dir.join(format!("service-{}", std::process::id()));
    let out = run_in(ctx, kind, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(ctx: &Ctx, kind: Kind, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let secs = ctx.seconds as f64;
    let ladder_updates: f64 = kind.ladder().iter().sum::<f64>() * LADDER_STEP.as_secs_f64();
    let updates = (kind.script_rate() * secs + ladder_updates).ceil() as usize + 8;
    let inputs = inputs(kind, ctx.seed, updates);

    // Set-up, as a user of the daemon pays it: compile, start (startup
    // solve, snapshot and log opened), connect until hello.
    let log = Arc::new(HookLog {
        on: AtomicBool::new(false),
        origin: ctx.origin,
        queries: Mutex::new(Vec::new()),
        updates: Mutex::new(Vec::new()),
    });
    let mut setup = Vec::new();
    let mut started = None;
    for i in 0..SETUP_STARTS {
        let sub: PathBuf = dir.join(format!("start{i}"));
        std::fs::create_dir_all(&sub)
            .map_err(|e| format!("cannot create {}: {e}", sub.display()))?;
        let start = Instant::now();
        let program = Arc::new(flix_lang::compile(&inputs.source).map_err(|e| e.to_string())?);
        let server =
            Server::start(program, config(&sub), hooks(&log)).map_err(|e| e.to_string())?;
        let reader = Client::connect(server.socket()).map_err(|e| e.to_string())?;
        let writer = Client::connect(server.socket()).map_err(|e| e.to_string())?;
        setup.push(start.elapsed().as_secs_f64());
        if let Some((server, reader, writer)) = started.replace((server, reader, writer)) {
            drop((reader, writer));
            server.shutdown();
            server.join();
        }
    }
    out.setup_s = median_of(&setup);
    let (server, reader, writer) = started.expect("at least one start");
    let base_epoch = reader.hello().epoch;

    let mut session = Session {
        kind,
        inputs: &inputs,
        reader,
        writer,
        base_epoch,
        next_op: 0,
        keys: SmallRng::seed_from_u64(sub_seed(ctx.seed, 2)),
        inject_wrong_answer: ctx.inject_wrong_answer,
    };
    let account = |out: &mut Outcome, phase: &Phase| {
        let (attempted, failed) = tally(phase);
        out.attempted += attempted;
        out.failed += failed;
    };
    let headline = |phase: &Phase| -> Vec<f64> {
        match kind {
            Kind::Query => phase.reads.iter().map(|r| r.latency_ms).collect(),
            Kind::Insert | Kind::Retract => phase
                .writes
                .iter()
                .filter(|w| inputs.ops[w.item as usize].retract == (kind == Kind::Retract))
                .map(|w| w.latency_ms)
                .collect(),
        }
    };

    let (untraced_s, traced_s) = ctx.split_window();
    let fixed = session.phase(untraced_s, kind.write_rate(), false, ctx.origin);
    let pending = fixed.pending_at_end.ok_or("the status request failed")?;
    account(&mut out, &fixed);
    let lag: Vec<f64> = fixed
        .reads
        .iter()
        .chain(&fixed.writes)
        .map(|r| r.lag_ms)
        .collect();
    let lag_p99 = percentile(&lag, 0.99).unwrap_or(0.0);
    describe(&mut out, &inputs, &fixed);
    if lag_p99 > LAG_CEILING_MS {
        out.invalid = Some(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds its {LAG_CEILING_MS} ms ceiling"
        ));
    } else if fixed.backlog > BACKLOG_CEILING || pending > PENDING_CEILING {
        out.invalid = Some(format!(
            "writer backlog {} (ceiling {BACKLOG_CEILING}) or daemon pending_updates {pending} \
             (ceiling {PENDING_CEILING}) at the end of the fixed-rate phase",
            fixed.backlog
        ));
    }

    if !ctx.trace {
        let l = headline(&fixed);
        out.set_latencies(&l, kind.tail_p());
    } else {
        out.layer("bench.generator_lag_p99_ms", lag_p99);
        out.layer("flixd.writer.pending_at_end", pending as f64);
        let before = stats_doc(&mut session.reader).ok_or("stats unavailable")?;
        log.on.store(true, Ordering::Relaxed);
        let traced = session.phase(traced_s, kind.write_rate(), true, ctx.origin);
        log.on.store(false, Ordering::Relaxed);
        let after = stats_doc(&mut session.reader).ok_or("stats unavailable")?;
        account(&mut out, &traced);
        out.trace_overhead(&headline(&fixed), &headline(&traced));
        let rtt_us: Vec<f64> = traced.reads.iter().map(|r| r.rtt_ms * 1e3).collect();
        daemon_layers(&mut out, &before, &after, &rtt_us);
        let mut spans = traced.spans;
        for (hook, name, metric) in [
            (&log.queries, "lang.parse_query", "lang.parse_query_us"),
            (
                &log.updates,
                "lang.compile_update",
                "lang.compile_update_us",
            ),
        ] {
            let hook_spans = std::mem::take(&mut *hook.lock().expect("hook log poisoned"));
            out.layer(metric, median_of(&durations_ms(&hook_spans, name)) * 1e3);
            crate::tracer::append(&mut spans, hook_spans);
        }

        // The ladder: raise the writer rate step by step while reads
        // continue; the highest step whose p90 stays under the limit
        // with no backlog is the sustainable update rate.
        let mut max_rate = 0.0;
        for &rate in kind.ladder() {
            let step = session.phase(LADDER_STEP, Some(rate), false, ctx.origin);
            let failed_before = out.failed;
            account(&mut out, &step);
            let p90 = percentile(&headline(&step), 0.9).unwrap_or(f64::INFINITY);
            let ok = out.failed == failed_before && step.backlog == 0 && p90 <= kind.limit_ms();
            out.note(format!(
                "ladder {rate}/s: p90 {p90:.3} ms (limit {} ms), backlog {}, {}",
                kind.limit_ms(),
                step.backlog,
                if ok { "met" } else { "missed" }
            ));
            if !ok {
                break;
            }
            max_rate = rate;
        }
        out.layer("bench.update_max_rate_per_s", max_rate);

        let replay_dir = dir.join("replay");
        std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
        let pairs = &inputs.pairs[..REPLAY.min(inputs.pairs.len())];
        replay(&mut out, &inputs, pairs, &replay_dir)?;
        let (interp, base) = crate::layers::interp_ratio(&inputs.graph, &inputs.source);
        out.layer("lang.interp_ratio", interp);
        out.layer("lang.closure_solve_ms", base);
        out.spans = spans;
    }

    // The final model, whole, against Dijkstra on the final edge set.
    out.attempted += 1;
    let facts = send(
        &mut session.reader,
        &Request::Facts {
            predicate: Some("Reach".into()),
        },
    );
    let last_epoch = session.base_epoch + session.next_op as u64;
    let final_ok = facts.is_ok_and(|(epoch, lines)| {
        epoch == last_epoch
            && state_at(&inputs, session.base_epoch, epoch).is_some_and(|state| {
                let dist = &inputs.dist[state];
                let mut expected: Vec<String> =
                    (0..dist.len()).filter_map(|k| reach(dist, k)).collect();
                expected.sort();
                lines == expected
            })
    });
    if !final_ok {
        out.failed += 1;
    }
    drop(session);
    server.shutdown();
    server.join();
    Ok(out)
}
