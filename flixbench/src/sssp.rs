//! The `flixr_sssp` workload: what one `flixr --print Reach FILE.flix`
//! invocation does, on FLIX sources that use the `Dist` lattice and rule
//! of `examples/flix/shortest_paths.flix` over generated `Edge` facts.
//!
//! Closed loop, one thread: each call runs `flix_lang::parse` → `check`
//! → `lower` → `Solver::solve` and renders every `Reach` fact, then the
//! next call starts. Calls cycle through a pool of sources drawn from
//! the seed, so that a run's median describes many graphs rather than
//! one. The reference is `graphs::dijkstra` on each source's graph.

use crate::tracer::Tracer;
use crate::{sub_seed, Ctx, Outcome, Sample};
use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{Solution, SolveStats, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Components per generated graph.
pub const COMPONENTS: u32 = 12;
/// Nodes per component.
pub const COMPONENT_NODES: u32 = 125;
/// Random edges per component on top of its spine `n → n+1`.
pub const COMPONENT_EDGES: usize = 500;
/// Sources per seed; calls cycle through them.
pub const POOL: usize = 64;

/// The lattice, transfer function and rule of
/// `examples/flix/shortest_paths.flix`; the generated facts follow it.
pub const PROGRAM: &str = r#"enum Dist { case Fin(Int), case Inf }

def leq(a: Dist, b: Dist): Bool =
  match (a, b) with {
    case (Dist.Inf, _) => true
    case (_, Dist.Inf) => false
    case (Dist.Fin(x), Dist.Fin(y)) => x >= y
  }

def lub(a: Dist, b: Dist): Dist =
  match (a, b) with {
    case (Dist.Inf, x) => x
    case (x, Dist.Inf) => x
    case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
  }

def glb(a: Dist, b: Dist): Dist =
  match (a, b) with {
    case (Dist.Inf, _) => Dist.Inf
    case (_, Dist.Inf) => Dist.Inf
    case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
  }

let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);

def plus(d: Dist, c: Int): Dist =
  match d with {
    case Dist.Inf => Dist.Inf
    case Dist.Fin(x) => Dist.Fin(x + c)
  }

rel Edge(x: Str, y: Str, c: Int);
lat Reach(node: Str, Dist<>);

Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).

Reach("n0", Dist.Fin(0)).
"#;

/// The declaration an update file repeats before its `Edge` facts.
pub const EDGE_DECL: &str = "rel Edge(x: Str, y: Str, c: Int);\n";

/// One `Edge` fact in source syntax.
pub fn edge_fact(a: u32, b: u32, w: u64) -> String {
    format!("Edge(\"n{a}\", \"n{b}\", {w}).")
}

/// A graph of `components` parts side by side, each from
/// `graphs::generate` with its own seed, and an edge of weight 1 from
/// `n0` to the first node of every other part. The cost of solving one
/// random graph varies with its depth; several side by side vary less
/// from seed to seed.
pub fn graph(components: u32, seed: u64) -> WeightedGraph {
    let mut edges = Vec::new();
    for c in 0..components {
        let offset = c * COMPONENT_NODES;
        let part = graphs::generate(COMPONENT_NODES, COMPONENT_EDGES, sub_seed(seed, c as usize));
        edges.extend(
            part.edges
                .iter()
                .map(|&(a, b, w)| (a + offset, b + offset, w)),
        );
        if c > 0 {
            edges.push((0, offset, 1));
        }
    }
    WeightedGraph {
        num_nodes: components * COMPONENT_NODES,
        edges,
    }
}

/// The FLIX source for `graph`, single source `n0`.
pub fn source(graph: &WeightedGraph) -> String {
    let mut src = String::with_capacity(PROGRAM.len() + graph.edges.len() * 28);
    src.push_str(PROGRAM);
    for &(a, b, w) in &graph.edges {
        src.push_str(&edge_fact(a, b, w));
        src.push('\n');
    }
    src
}

/// The `Reach` fact for node `k` at distance `d`, as the engine renders it.
pub fn reach_line(k: u32, d: u64) -> String {
    format!("Reach(\"n{k}\", Fin({d}))")
}

/// What `flixr --print Reach` prints for `dist`, computed by Dijkstra.
pub fn expected_output(dist: &[Option<u64>]) -> String {
    let mut lines: Vec<String> = dist
        .iter()
        .enumerate()
        .filter_map(|(k, d)| d.map(|d| reach_line(k as u32, d)))
        .collect();
    lines.sort();
    lines.join("\n")
}

/// Renders the sorted facts of `predicate`, one per line, as `flixr`
/// prints them.
pub fn render(solution: &Solution, predicate: &str) -> String {
    let mut lines: Vec<String> = solution
        .facts(predicate)
        .expect("the program declares the predicate")
        .map(|fact| format!("{predicate}({fact})"))
        .collect();
    lines.sort();
    lines.join("\n")
}

/// One graph of the pool with its source text and expected output.
pub struct Input {
    pub graph: WeightedGraph,
    pub source: String,
    pub expected: String,
}

/// Pool entry `index` for `seed`.
pub fn input(seed: u64, index: usize) -> Input {
    let graph = graph(COMPONENTS, sub_seed(seed, index));
    let source = source(&graph);
    let expected = expected_output(&graphs::dijkstra(&graph, 0));
    Input {
        graph,
        source,
        expected,
    }
}

/// One `flixr` invocation on `source`: the rendered `Reach` facts, plus
/// the solve statistics when tracing.
pub fn call(tr: &mut Tracer, source: &str) -> Result<(String, Option<SolveStats>), String> {
    tr.span("flixr.run", None, |tr| {
        let parsed = tr
            .span("lang.parse", None, |_| flix_lang::parse(source))
            .map_err(|e| e.to_string())?;
        let checked = tr
            .span("lang.typeck", None, |_| flix_lang::check(&parsed))
            .map_err(|e| e.to_string())?;
        let program = tr
            .span("lang.lower", None, |_| flix_lang::lower(Arc::new(checked)))
            .map_err(|e| e.to_string())?;
        let solution = tr
            .span("core.solve", None, |_| Solver::new().solve(&program))
            .map_err(|e| e.to_string())?;
        let stats = tr.on().then(|| solution.stats().clone());
        let text = tr.span("core.render", None, |_| render(&solution, "Reach"));
        tr.span("core.drop", None, |_| drop((parsed, program, solution)));
        Ok((text, stats))
    })
}

/// The cold first call in this process on pool entry `index`, in ms.
pub fn cold(seed: u64, index: usize) -> Result<f64, String> {
    let input = input(seed, index);
    let mut tr = Tracer::new(false, Instant::now(), "main");
    let start = Instant::now();
    let (text, _) = call(&mut tr, &input.source)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if text != input.expected {
        return Err("cold run printed a wrong model".into());
    }
    Ok(ms)
}

/// The pool for `seed`, with one discarded call made so that lazy
/// set-up has finished before anything is timed; the cold cost is what
/// `setup_s` reports.
fn warm_pool(seed: u64) -> Vec<Input> {
    let pool: Vec<Input> = (0..POOL).map(|i| input(seed, i)).collect();
    let _ = call(
        &mut Tracer::new(false, Instant::now(), "main"),
        &pool[0].source,
    );
    pool
}

/// Calls back to back for `window`, from pool entry `offset` on,
/// checking every answer; collects solve statistics when tracing.
fn measure(
    pool: &[Input],
    tr: &mut Tracer,
    offset: usize,
    window: Duration,
    inject_wrong_answer: bool,
    stats: &mut Vec<SolveStats>,
) -> Sample {
    let mut sample = Sample::default();
    let deadline = Instant::now() + window;
    let mut i = offset;
    while Instant::now() < deadline {
        let start = Instant::now();
        let got = call(tr, &pool[i % POOL].source);
        sample.ms.push(start.elapsed().as_secs_f64() * 1e3);
        let ok = got.is_ok_and(|(mut text, s)| {
            stats.extend(s);
            if inject_wrong_answer && sample.attempted == 0 {
                text.push_str("\nReach(\"n0\", Fin(1))");
            }
            text == pool[i % POOL].expected
        });
        sample.count(ok);
        i += 1;
    }
    sample
}

/// One measuring process's share of the window.
pub fn worker(seed: u64, offset: usize, window: Duration, inject_wrong_answer: bool) -> Sample {
    let pool = warm_pool(seed);
    let mut off = Tracer::new(false, Instant::now(), "main");
    measure(
        &pool,
        &mut off,
        offset * POOL / crate::WORKERS,
        window,
        inject_wrong_answer,
        &mut Vec::new(),
    )
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
    let mut off = Tracer::new(false, ctx.origin, "main");
    let plain = measure(
        &pool,
        &mut off,
        0,
        untraced,
        ctx.inject_wrong_answer,
        &mut Vec::new(),
    );
    let mut tr = Tracer::new(true, ctx.origin, "main");
    let mut stats = Vec::new();
    let with_spans = measure(&pool, &mut tr, 0, traced, false, &mut stats);
    out.trace_overhead(&plain.ms, &with_spans.ms);
    out.add(&plain);
    out.add(&with_spans);
    let spans = tr.into_spans();
    crate::layers::front_end(&mut out, &spans, &pool[0].source);
    crate::layers::solver(&mut out, &stats, &spans, None);
    out.layer(
        "core.render_ms",
        crate::median_of(&crate::tracer::durations_ms(&spans, "core.render")),
    );
    out.coverage(&spans, "flixr.run");
    let (interp, base) = crate::layers::interp_ratio(&pool[0].graph, &pool[0].source);
    out.layer("lang.interp_ratio", interp);
    out.layer("lang.closure_solve_ms", base);
    out.spans = spans;
    out
}
