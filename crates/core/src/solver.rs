//! The fixed-point solvers: naïve and semi-naïve evaluation (§3.2, §3.7).
//!
//! Both strategies compute the minimal model of a program by iterating the
//! immediate consequence operator with per-cell least-upper-bound
//! compaction. The naïve strategy re-evaluates every rule each round; the
//! semi-naïve strategy follows §3.7 of the paper: it maintains, per
//! predicate, an incremental relation `∆P` of ground atoms that *strictly
//! increased* (`ga(P', S) ⊐ ga(P, S)`), and re-evaluates each rule once per
//! body atom, instantiating that atom from `∆P` and the others from the
//! full database.

// The error path is terminal and cold: a `SolveError` is built at most
// once per solve, so the large-`Err`-variant lint's copy-cost concern
// does not apply to the internal `Result<_, SolveError>` plumbing. The
// public API already boxes it (`Box<SolveFailure>`).
#![allow(clippy::result_large_err)]

use crate::ast::{PredKind, ProgramError};
use crate::database::{Database, InsertFault, InsertOutcome, PredData, Row};
use crate::guard::{panic_payload, Budget, BudgetKind, EvalGuard, Guard};
use crate::kernel::{self, KernelSet};
use crate::observe::{Observer, RuleEvaluated, RuleStats, StratumStats};
use crate::ops::OpsPanic;
use crate::program::Program;
use crate::provenance::{key_matches, pattern_matches, DerivationTree, Event, Premise, Source};
use crate::stratify::stratify;
use crate::trace::{
    AscentCell, AscentConfig, AscentReport, AscentWarning, ExecutionTrace, Ring, SpanKind,
    TraceConfig, TraceEvent, Tracer,
};
use crate::verify::Violation;
use crate::{PredId, Value};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The evaluation strategy for [`Solver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Re-evaluate every rule whenever anything changed (§3.1: "this
    /// strategy is called naïve evaluation"). Correct but slow; kept as the
    /// baseline for the ablation benchmarks.
    Naive,
    /// The incremental strategy of §3.7, adapted for lattices.
    #[default]
    SemiNaive,
}

impl Strategy {
    /// The strategy's stable machine-readable name, as used in the
    /// metrics JSON (`"naive"` / `"semi-naive"`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "semi-naive",
        }
    }
}

/// Aggregate statistics of one solver run.
///
/// `facts_derived` counts gross derivations (before deduplication and
/// subsumption); `facts_inserted` counts net database changes. Their ratio,
/// together with `index_probes` vs `scan_fallbacks`, is the work profile
/// reported by the benchmark tables in place of the paper's memory column.
///
/// # Strategy invariance
///
/// The *outcome* fields — `rounds`, `strata`, `facts_inserted`,
/// `total_facts`, the per-rule `inserted` counters in `per_rule`, and the
/// whole of `per_stratum` (rounds and per-round net delta sizes) — are
/// invariant across evaluation strategies: [`Strategy::Naive`],
/// [`Strategy::SemiNaive`], and any thread count produce identical
/// values, because every strategy computes the same sequence of per-round
/// database states and the counters measure *net* changes between round
/// boundaries (the strategy-parity test suite pins this). The *work*
/// fields — `rule_evaluations`, `facts_derived`, `index_probes`,
/// `scan_fallbacks`, `wall_ns`, and the remaining per-rule counters —
/// describe how much work a particular strategy performed and differ
/// between strategies by design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Fixed-point rounds executed (across all strata).
    pub rounds: u64,
    /// Individual rule evaluations.
    pub rule_evaluations: u64,
    /// Head tuples produced by rule evaluation.
    pub facts_derived: u64,
    /// Net database changes: new tuples plus distinct lattice cells that
    /// strictly increased, counted once per cell per round (a cell
    /// climbing through several intermediate values within one round is
    /// one net change).
    pub facts_inserted: u64,
    /// Index probes performed.
    pub index_probes: u64,
    /// Full-scan fallbacks (no usable index).
    pub scan_fallbacks: u64,
    /// Number of strata evaluated.
    pub strata: u64,
    /// Total facts in the final database.
    pub total_facts: u64,
    /// Wall-clock time of the whole solve, in nanoseconds.
    pub wall_ns: u64,
    /// Per-rule work profile, indexed by rule number.
    pub per_rule: Vec<RuleStats>,
    /// Per-stratum rounds and per-round delta sizes, in evaluation order.
    pub per_stratum: Vec<StratumStats>,
}

/// An error during solving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The program is not stratifiable (§3.5).
    Program(ProgramError),
    /// The configured round limit was exceeded — the symptom of a lattice
    /// of unbounded height or a non-monotone function (§7 "Safety").
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
        /// The stratum (0-based evaluation order) that failed to converge.
        stratum: usize,
        /// Statistics at the moment the limit was hit.
        stats: SolveStats,
    },
    /// A user-supplied function or lattice operation panicked. The solver
    /// catches the panic (`catch_unwind`), names the function and the
    /// context it was invoked from, and returns the facts derived so far.
    /// A panic escaping a parallel worker *outside* the guarded user-code
    /// paths (an internal solver bug) is reported through this variant
    /// too, with `function` set to `"solver worker"`, rather than
    /// aborting the process.
    FunctionPanicked {
        /// The predicate being derived (or matched) when the panic fired.
        predicate: String,
        /// The rule index within the program, when attributable to a rule.
        rule: Option<usize>,
        /// The function that panicked (e.g. `Parity.lub` or a named
        /// transfer function).
        function: String,
        /// The rendered panic payload.
        payload: String,
    },
    /// A runtime safety sentinel caught the user's lattice or functions
    /// violating a required law *during* solving (§7 "Safety") — e.g. a
    /// `lub` whose result is not an upper bound, an irreflexive `leq`, or
    /// a filter returning a non-boolean.
    SafetyViolation {
        /// The predicate being derived when the sentinel tripped.
        predicate: String,
        /// The rule index within the program, when attributable to a rule.
        rule: Option<usize>,
        /// The concrete law violation observed.
        violation: Violation,
    },
    /// A configured [`Budget`] limit was reached before the fixed point.
    BudgetExceeded {
        /// Which limit tripped.
        kind: BudgetKind,
        /// Statistics at the moment the budget tripped.
        stats: SolveStats,
    },
    /// A [`crate::incremental::Delta`] handed to [`Solver::resume`] does
    /// not fit the program or the prior solution (unknown predicate,
    /// arity mismatch, mismatched solution). The partial solution is the
    /// unmodified pre-update model.
    Delta(crate::incremental::DeltaError),
    /// A [`crate::demand::Query`] handed to
    /// [`Solver::solve_query`](crate::Solver::solve_query) does not fit
    /// the program (unknown predicate, wrong pattern width). The partial
    /// solution is empty.
    Demand(crate::demand::DemandError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Program(e) => write!(f, "{e}"),
            SolveError::RoundLimitExceeded {
                limit,
                stratum,
                stats,
            } => write!(
                f,
                "fixed point not reached within {limit} rounds: stratum {stratum} did not \
                 converge after {} derivations; check that every lattice has finite height \
                 and every function is monotone",
                stats.facts_derived
            ),
            SolveError::FunctionPanicked {
                predicate,
                rule,
                function,
                payload,
                ..
            } => {
                write!(f, "function {function} panicked")?;
                if let Some(r) = rule {
                    write!(f, " in rule #{r}")?;
                }
                write!(f, " while deriving {predicate}: {payload}")
            }
            SolveError::SafetyViolation {
                predicate,
                rule,
                violation,
            } => {
                write!(f, "lattice safety violation")?;
                if let Some(r) = rule {
                    write!(f, " in rule #{r}")?;
                }
                write!(f, " while deriving {predicate}: {violation}")
            }
            SolveError::BudgetExceeded { kind, stats } => {
                write!(
                    f,
                    "{kind} after {} rounds and {} derivations",
                    stats.rounds, stats.facts_derived
                )
            }
            SolveError::Delta(e) => write!(f, "{e}"),
            SolveError::Demand(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ProgramError> for SolveError {
    fn from(e: ProgramError) -> SolveError {
        SolveError::Program(e)
    }
}

/// A failed solve, carrying the partial solution computed before failure.
///
/// Every failure mode of [`Solver::solve`] — a panicking user function, a
/// safety violation, an exhausted budget, a round limit — returns this
/// struct rather than discarding the work done: `partial` is a fully
/// queryable [`Solution`] over the facts derived up to the failure point,
/// and `stats` describes the run. The partial solution is *sound but
/// possibly incomplete*: every fact in it is derivable, but facts may be
/// missing (and lattice cells may sit below their fixed-point values).
#[derive(Debug)]
pub struct SolveFailure {
    /// Why the solve stopped.
    pub error: SolveError,
    /// The facts derived before the failure, queryable like any solution.
    pub partial: Solution,
    /// Statistics of the partial run.
    pub stats: SolveStats,
}

impl fmt::Display for SolveFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (partial solution retains {} facts)",
            self.error, self.stats.total_facts
        )
    }
}

impl std::error::Error for SolveFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A configurable fixed-point solver.
///
/// # Example
///
/// ```
/// use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let edge = b.relation("Edge", 2);
/// let path = b.relation("Path", 2);
/// b.fact(edge, vec![1.into(), 2.into()]);
/// b.fact(edge, vec![2.into(), 3.into()]);
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
///     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
/// );
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
///     [
///         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
///         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
///     ],
/// );
/// let program = b.build()?;
/// let solution = Solver::new().solve(&program)?;
/// assert!(solution.contains("Path", &[1.into(), 3.into()]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Solver {
    pub(crate) config: SolverConfig,
    /// Test hook: makes every parallel worker panic outside the
    /// `catch_unwind`-guarded user code, simulating an internal solver bug.
    pub(crate) inject_worker_panic: bool,
}

/// The complete set of [`Solver`] knobs, constructible in one place.
///
/// The chained builder methods on [`Solver`] remain thin wrappers over
/// this struct; [`Solver::with_config`] validates a configuration built
/// up front (e.g. from command-line flags) and rejects nonsensical
/// combinations — currently `threads == 0` — *before* any solving
/// starts.
///
/// # Example
///
/// ```
/// use flix_core::{Solver, SolverConfig, Strategy};
///
/// let solver = Solver::with_config(SolverConfig {
///     strategy: Strategy::Naive,
///     threads: 4,
///     ..SolverConfig::default()
/// })
/// .expect("4 threads is a valid configuration");
/// assert_eq!(solver.config().threads, 4);
/// assert!(Solver::with_config(SolverConfig {
///     threads: 0,
///     ..SolverConfig::default()
/// })
/// .is_err());
/// ```
#[derive(Clone)]
pub struct SolverConfig {
    /// The evaluation strategy (default: [`Strategy::SemiNaive`]).
    pub strategy: Strategy,
    /// Worker threads per round; `1` (the default) is sequential. Must be
    /// at least 1 — [`Solver::with_config`] rejects `0`.
    pub threads: usize,
    /// Whether to build hash indexes (default `true`; `false` is the
    /// index-selection ablation forcing full scans on every join).
    pub use_indexes: bool,
    /// Bound on fixed-point rounds, a safety net against lattices of
    /// unbounded height (default: unlimited).
    pub max_rounds: Option<u64>,
    /// Whether to log derivation provenance for [`Solution::explain`]
    /// (default `false`; costs memory proportional to insertions).
    pub record_provenance: bool,
    /// The resource budget: deadline, fact/derivation limits,
    /// cancellation (default: unlimited).
    pub budget: Budget,
    /// A progress observer receiving round/rule/stratum/budget events
    /// (default: none; the event paths are skipped entirely).
    pub observer: Option<Arc<dyn Observer>>,
    /// Execution-span tracing: when set, the solve records hierarchical
    /// spans into bounded per-worker ring buffers and the resulting
    /// [`Solution::trace`] carries an [`ExecutionTrace`] (default: none;
    /// the recording paths collapse to a single branch).
    pub trace: Option<TraceConfig>,
    /// Lattice-ascent telemetry: when set, every lattice cell counts its
    /// joins and strict increases, [`Solution::ascent_report`] becomes
    /// available, and cells crossing
    /// [`AscentConfig::warn_height`] fire
    /// [`Observer::ascent_warning`] (default: none).
    pub ascent: Option<AscentConfig>,
}

impl Default for SolverConfig {
    /// The default configuration: semi-naïve, sequential, indexed, no
    /// round limit, unlimited budget, no provenance, no observer.
    fn default() -> SolverConfig {
        SolverConfig {
            strategy: Strategy::SemiNaive,
            threads: 1,
            use_indexes: true,
            max_rounds: None,
            record_provenance: false,
            budget: Budget::new(),
            observer: None,
            trace: None,
            ascent: None,
        }
    }
}

impl fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverConfig")
            .field("strategy", &self.strategy)
            .field("threads", &self.threads)
            .field("use_indexes", &self.use_indexes)
            .field("max_rounds", &self.max_rounds)
            .field("record_provenance", &self.record_provenance)
            .field("budget", &self.budget)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "<dyn Observer>"),
            )
            .field("trace", &self.trace)
            .field("ascent", &self.ascent)
            .finish()
    }
}

/// An invalid [`SolverConfig`], rejected by [`Solver::with_config`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` was 0: zero worker threads cannot make progress.
    ZeroThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(
                f,
                "threads must be at least 1 (0 worker threads cannot make progress)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration: semi-naïve,
    /// sequential, indexed, no round limit, unlimited budget.
    pub fn new() -> Solver {
        Solver {
            config: SolverConfig::default(),
            inject_worker_panic: false,
        }
    }

    /// Creates a solver from a fully built [`SolverConfig`], validating
    /// it: `threads == 0` is rejected with [`ConfigError::ZeroThreads`]
    /// instead of being silently clamped.
    pub fn with_config(config: SolverConfig) -> Result<Solver, ConfigError> {
        if config.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(Solver {
            config,
            inject_worker_panic: false,
        })
    }

    /// The solver's current configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Records derivation provenance: every database-changing insertion is
    /// logged with its rule and instantiated premises, and the resulting
    /// [`Solution::explain`] reconstructs derivation trees. Costs memory
    /// proportional to the number of insertions.
    pub fn record_provenance(mut self, record: bool) -> Solver {
        self.config.record_provenance = record;
        self
    }

    /// Selects the evaluation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Solver {
        self.config.strategy = strategy;
        self
    }

    /// Evaluates rules within each round on `threads` worker threads
    /// (`1` = sequential). Rule evaluations within a round are independent,
    /// so this changes wall-clock time but never the solution. `0` is
    /// clamped to `1`; use [`Solver::with_config`] to reject it instead.
    pub fn threads(mut self, threads: usize) -> Solver {
        self.config.threads = threads.max(1);
        self
    }

    /// Enables or disables hash-index construction (the index-selection
    /// ablation; disabling forces full scans on every join).
    pub fn use_indexes(mut self, use_indexes: bool) -> Solver {
        self.config.use_indexes = use_indexes;
        self
    }

    /// Bounds the number of fixed-point rounds, as a safety net against
    /// lattices of unbounded height.
    pub fn max_rounds(mut self, limit: u64) -> Solver {
        self.config.max_rounds = Some(limit);
        self
    }

    /// Attaches a resource [`Budget`] (deadline, fact/derivation limits,
    /// cancellation token). When a limit trips, [`Solver::solve`] returns
    /// [`SolveError::BudgetExceeded`] inside a [`SolveFailure`] carrying
    /// the partial solution.
    pub fn budget(mut self, budget: Budget) -> Solver {
        self.config.budget = budget;
        self
    }

    /// Attaches a progress [`Observer`] that receives round-started,
    /// rule-evaluated, stratum-converged, and budget-checked events during
    /// the solve. All callbacks fire on the thread driving the solve.
    /// With no observer attached (the default), the event paths are
    /// skipped entirely.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Solver {
        self.config.observer = Some(observer);
        self
    }

    /// Enables execution-span tracing: the solve records solve → stratum
    /// → round → rule-eval spans (plus resume-seed and demand-rewrite
    /// phases) into bounded per-worker ring buffers, merged at solve end
    /// into [`Solution::trace`]. Export with
    /// [`ExecutionTrace::to_chrome_json`] or
    /// [`ExecutionTrace::to_folded`]. Disabled tracing (the default) adds
    /// no hot-path work.
    pub fn trace(mut self, config: TraceConfig) -> Solver {
        self.config.trace = Some(config);
        self
    }

    /// Enables lattice-ascent telemetry: per-cell join counts and
    /// ascending-chain heights, aggregated into
    /// [`Solution::ascent_report`], with optional non-fatal
    /// [`Observer::ascent_warning`]s when a cell crosses
    /// [`AscentConfig::warn_height`].
    pub fn ascent(mut self, config: AscentConfig) -> Solver {
        self.config.ascent = Some(config);
        self
    }

    /// Test hook: makes every parallel worker thread panic outside the
    /// guarded user-code paths, simulating an internal solver bug. Used
    /// by the fault-injection suite to pin that worker panics surface as
    /// a structured [`SolveError`] instead of aborting the process.
    /// Compiled only for the crate's own tests and under the
    /// `test-internals` feature, so it cannot be reached from downstream
    /// code.
    #[doc(hidden)]
    #[cfg(any(test, feature = "test-internals"))]
    pub fn inject_worker_panic_for_tests(mut self) -> Solver {
        self.inject_worker_panic = true;
        self
    }

    /// Computes the minimal model of `program`.
    ///
    /// # Errors
    ///
    /// On failure, returns a [`SolveFailure`] carrying the [`SolveError`]
    /// plus the partial [`Solution`] derived before the failure:
    ///
    /// - [`SolveError::Program`] if the program is not stratifiable;
    /// - [`SolveError::RoundLimitExceeded`] if a configured round limit is
    ///   hit before the fixed point;
    /// - [`SolveError::FunctionPanicked`] if a user-supplied function or
    ///   lattice operation panics (the panic is caught, not propagated);
    /// - [`SolveError::SafetyViolation`] if a runtime sentinel observes a
    ///   lattice-law violation;
    /// - [`SolveError::BudgetExceeded`] if the configured [`Budget`] runs
    ///   out.
    pub fn solve(&self, program: &Program) -> Result<Solution, Box<SolveFailure>> {
        let wall_start = Instant::now();
        let guard = Guard::new(&self.config.budget);
        let tracer = Tracer::new(self.config.trace.as_ref());
        let mut db = Database::for_program(program, self.config.use_indexes);
        if self.config.ascent.is_some() {
            db.enable_ascent();
        }
        let mut stats = SolveStats {
            per_rule: program
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| RuleStats {
                    rule: i,
                    head: program.decl(r.head_pred).name.to_string(),
                    ..RuleStats::default()
                })
                .collect(),
            ..SolveStats::default()
        };
        let mut events: Option<Vec<Event>> = self.config.record_provenance.then(Vec::new);

        let outcome = self.solve_inner(
            program,
            &guard,
            &mut db,
            FactSource::ProgramPlus(&[]),
            &mut stats,
            &mut events,
            &tracer,
        );

        stats.total_facts = db.total_facts() as u64;
        stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
        tracer.record(0, SpanKind::Solve, 0);
        let trace = tracer.finish(rule_heads(program));
        if let Some(obs) = &self.config.observer {
            obs.solve_finished(&stats);
        }
        let solution = make_solution(program, db, stats.clone(), events, trace);
        match outcome {
            Ok(()) => Ok(solution),
            Err(mut error) => {
                // The stats snapshot embedded at the failure site predates
                // the final counter fold; refresh it.
                if let SolveError::RoundLimitExceeded { stats: s, .. }
                | SolveError::BudgetExceeded { stats: s, .. } = &mut error
                {
                    *s = stats.clone();
                }
                Err(Box::new(SolveFailure {
                    error,
                    partial: solution,
                    stats,
                }))
            }
        }
    }

    /// Runs the full from-scratch fixed point: loads the extensional
    /// store described by `base_facts`, then evaluates every stratum in
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_inner(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        base_facts: FactSource<'_>,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let strata = stratify(program)?;
        let npreds = program.preds.len();

        // Load the extensional facts.
        let load_start = tracer.now_ns();
        let (own, extra_facts) = match base_facts {
            FactSource::ProgramPlus(extra) => (program.facts.as_slice(), extra),
            FactSource::Exact(store) => (&[][..], store),
        };
        let program_facts = own.iter().map(|(p, v)| (*p, v));
        let extra = extra_facts.iter().map(|(p, v)| (*p, v));
        for (pred, values) in program_facts.chain(extra) {
            match db.insert(pred, values.clone()) {
                Ok(InsertOutcome::Unchanged) => {}
                Ok(outcome) => {
                    stats.facts_inserted += 1;
                    if let InsertOutcome::LatIncrease(key, _) = &outcome {
                        self.check_ascent(program, db, pred, key);
                    }
                    if let Some(log) = events.as_mut() {
                        log.push(Event {
                            pred,
                            tuple: values.clone(),
                            source: Source::Fact,
                        });
                    }
                }
                Err(fault) => return Err(insert_fault_error(program, pred, None, fault)),
            }
        }
        tracer.record(0, SpanKind::LoadFacts, load_start);

        // Compile the join kernels once per solve, after fact loading
        // (literals in rule bodies are interned here, so their encodings
        // stay canonical for the run).
        let kernels = KernelSet::compile(program, db, &self.config);

        for (stratum, group) in strata.rule_groups.iter().enumerate() {
            stats.strata += 1;
            stats.per_stratum.push(StratumStats {
                stratum,
                rounds: 0,
                delta_sizes: Vec::new(),
            });
            let stratum_start = tracer.now_ns();
            let result = match self.config.strategy {
                Strategy::Naive => self.run_naive(
                    program, guard, db, &kernels, group, stratum, stats, events, None, tracer,
                ),
                Strategy::SemiNaive => self.run_semi_naive(
                    program, guard, db, &kernels, group, stratum, npreds, stats, events, tracer,
                ),
            };
            // Record the stratum span even when the stratum failed, so a
            // guarded failure still carries the partial trace.
            tracer.record(0, SpanKind::Stratum { stratum }, stratum_start);
            result?;
        }
        Ok(())
    }

    /// Fires a non-fatal [`AscentWarning`] when the cell at `pred`/`key`
    /// first crosses the configured chain-height threshold.
    pub(crate) fn check_ascent(
        &self,
        program: &Program,
        db: &mut Database,
        pred: PredId,
        key: &[Value],
    ) {
        let Some(threshold) = self.config.ascent.as_ref().and_then(|c| c.warn_height) else {
            return;
        };
        let Some(height) = db.ascent_crossed(pred, key, threshold) else {
            return;
        };
        if let Some(obs) = &self.config.observer {
            obs.ascent_warning(&AscentWarning {
                predicate: program.decl(pred).name.to_string(),
                key: key.to_vec(),
                height,
                threshold,
            });
        }
    }

    pub(crate) fn check_round(
        &self,
        guard: &Guard<'_>,
        db: &Database,
        stratum: usize,
        stats: &SolveStats,
    ) -> Result<(), SolveError> {
        if let Some(limit) = self.config.max_rounds {
            if stats.rounds >= limit {
                return Err(SolveError::RoundLimitExceeded {
                    limit,
                    stratum,
                    stats: stats.clone(),
                });
            }
        }
        let exceeded = guard.exceeded(stats.facts_derived, db.total_facts() as u64);
        if let Some(obs) = &self.config.observer {
            obs.budget_checked(stratum, exceeded.as_ref());
        }
        if let Some(kind) = exceeded {
            return Err(SolveError::BudgetExceeded {
                kind,
                stats: stats.clone(),
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_naive(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        kernels: &KernelSet,
        group: &[usize],
        stratum: usize,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        mut accumulate: Option<&mut Vec<Vec<Row>>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let mut derived_buf: Vec<Derived> = Vec::new();
        loop {
            self.check_round(guard, db, stratum, stats)?;
            stats.rounds += 1;
            let round = stats.rounds;
            self.note_round_started(stats, stratum, round, db.total_facts() as u64);
            let round_start = tracer.now_ns();
            let tasks: Vec<Task> = group
                .iter()
                .map(|&r| Task {
                    rule: r,
                    variant: None,
                })
                .collect();
            // A labelled block so the round span is recorded on the error
            // paths too (partial traces on guarded failures).
            let outcome: Result<u64, SolveError> = 'round: {
                if let Err(error) = self.run_tasks(
                    program,
                    guard,
                    db,
                    kernels,
                    &tasks,
                    &[],
                    stats,
                    stratum,
                    round,
                    tracer,
                    &mut derived_buf,
                ) {
                    break 'round Err(error);
                }
                let mut changed = 0u64;
                let mut touched = TouchedCells::new();
                for mut d in derived_buf.drain(..) {
                    stats.facts_derived += 1;
                    match insert_derived(db, &mut d) {
                        Ok(InsertOutcome::Unchanged) => {}
                        Ok(outcome) => {
                            if touched.first_change(&d, &outcome) {
                                stats.facts_inserted += 1;
                                stats.per_rule[d.rule].inserted += 1;
                                changed += 1;
                            }
                            if let InsertOutcome::LatIncrease(key, _) = &outcome {
                                self.check_ascent(program, db, d.pred, key);
                            }
                            if let Some(acc) = accumulate.as_deref_mut() {
                                accumulate_change(acc, d.pred, &outcome);
                            }
                            log_event(events, &mut d, outcome);
                        }
                        Err(fault) => {
                            break 'round Err(insert_fault_error(
                                program,
                                d.pred,
                                Some(d.rule),
                                fault,
                            ))
                        }
                    }
                }
                Ok(changed)
            };
            tracer.record(0, SpanKind::Round { stratum, round }, round_start);
            let changed = outcome?;
            if let Some(st) = stats.per_stratum.last_mut() {
                st.delta_sizes.push(changed);
            }
            if changed == 0 {
                self.note_stratum_converged(stats, stratum);
                return Ok(());
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_semi_naive(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        kernels: &KernelSet,
        group: &[usize],
        stratum: usize,
        npreds: usize,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        // Seed round: one full (naïve) evaluation of the stratum's rules.
        self.check_round(guard, db, stratum, stats)?;
        stats.rounds += 1;
        let round = stats.rounds;
        self.note_round_started(stats, stratum, round, db.total_facts() as u64);
        let round_start = tracer.now_ns();
        let seed_tasks: Vec<Task> = group
            .iter()
            .map(|&r| Task {
                rule: r,
                variant: None,
            })
            .collect();
        let mut derived_buf: Vec<Derived> = Vec::new();
        let outcome: Result<Vec<Vec<Row>>, SolveError> = 'round: {
            if let Err(error) = self.run_tasks(
                program,
                guard,
                db,
                kernels,
                &seed_tasks,
                &[],
                stats,
                stratum,
                round,
                tracer,
                &mut derived_buf,
            ) {
                break 'round Err(error);
            }
            let mut delta: Vec<Vec<Row>> = vec![Vec::new(); npreds];
            let mut changed = 0u64;
            let mut touched = TouchedCells::new();
            for d in derived_buf.drain(..) {
                stats.facts_derived += 1;
                if let Err(error) = self.record_insert(
                    program,
                    db,
                    d,
                    &mut delta,
                    &mut touched,
                    &mut changed,
                    stats,
                    events,
                ) {
                    break 'round Err(error);
                }
            }
            if let Some(st) = stats.per_stratum.last_mut() {
                st.delta_sizes.push(changed);
            }
            Ok(delta)
        };
        tracer.record(0, SpanKind::Round { stratum, round }, round_start);
        let delta = outcome?;

        self.run_semi_naive_rounds(
            program, guard, db, kernels, group, stratum, npreds, stats, events, delta, None, tracer,
        )
    }

    /// The incremental rounds of §3.7, starting from an explicit `∆`.
    ///
    /// [`Solver::run_semi_naive`] enters here after its seed round; the
    /// warm-start path of [`crate::incremental`] enters directly, with
    /// `delta` holding the changed cells of a resumed solve (skipping the
    /// full seed evaluation entirely). When `accumulate` is set, every
    /// net database change is also appended there, so a resume can seed
    /// later strata with this stratum's output.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_semi_naive_rounds(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        kernels: &KernelSet,
        group: &[usize],
        stratum: usize,
        npreds: usize,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        mut delta: Vec<Vec<Row>>,
        mut accumulate: Option<&mut Vec<Vec<Row>>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let mut derived_buf: Vec<Derived> = Vec::new();
        while delta.iter().any(|d| !d.is_empty()) {
            self.check_round(guard, db, stratum, stats)?;
            stats.rounds += 1;
            let round = stats.rounds;
            self.note_round_started(stats, stratum, round, db.total_facts() as u64);
            let round_start = tracer.now_ns();
            let mut tasks = Vec::new();
            for &r in group {
                let rule = &program.rules[r];
                for (vi, (pred, _)) in rule.delta_variants.iter().enumerate() {
                    if !delta[pred.0 as usize].is_empty() {
                        tasks.push(Task {
                            rule: r,
                            variant: Some(vi),
                        });
                    }
                }
            }
            let outcome: Result<Vec<Vec<Row>>, SolveError> = 'round: {
                if let Err(error) = self.run_tasks(
                    program,
                    guard,
                    db,
                    kernels,
                    &tasks,
                    &delta,
                    stats,
                    stratum,
                    round,
                    tracer,
                    &mut derived_buf,
                ) {
                    break 'round Err(error);
                }
                let mut new_delta: Vec<Vec<Row>> = vec![Vec::new(); npreds];
                let mut changed = 0u64;
                let mut touched = TouchedCells::new();
                for d in derived_buf.drain(..) {
                    stats.facts_derived += 1;
                    if let Err(error) = self.record_insert(
                        program,
                        db,
                        d,
                        &mut new_delta,
                        &mut touched,
                        &mut changed,
                        stats,
                        events,
                    ) {
                        break 'round Err(error);
                    }
                }
                if let Some(st) = stats.per_stratum.last_mut() {
                    st.delta_sizes.push(changed);
                }
                Ok(new_delta)
            };
            tracer.record(0, SpanKind::Round { stratum, round }, round_start);
            let new_delta = outcome?;
            if let Some(acc) = accumulate.as_deref_mut() {
                for (pred, rows) in new_delta.iter().enumerate() {
                    acc[pred].extend(rows.iter().cloned());
                }
            }
            delta = new_delta;
        }
        self.note_stratum_converged(stats, stratum);
        Ok(())
    }

    /// Fires the round-started observer event and counts the round on the
    /// current stratum's profile entry.
    fn note_round_started(&self, stats: &mut SolveStats, stratum: usize, round: u64, facts: u64) {
        if let Some(st) = stats.per_stratum.last_mut() {
            st.rounds += 1;
        }
        if let Some(obs) = &self.config.observer {
            obs.round_started(stratum, round, facts);
        }
    }

    /// Fires the stratum-converged observer event.
    fn note_stratum_converged(&self, stats: &SolveStats, stratum: usize) {
        if let Some(obs) = &self.config.observer {
            let rounds = stats.per_stratum.last().map_or(0, |st| st.rounds);
            obs.stratum_converged(stratum, rounds);
        }
    }

    /// Folds one finished task's counters into the per-rule profile and
    /// the global totals, and fires the rule-evaluated observer event.
    fn note_task(&self, stats: &mut SolveStats, stratum: usize, round: u64, report: &TaskReport) {
        let r = &mut stats.per_rule[report.rule];
        r.evaluations += 1;
        r.derived += report.derived;
        r.probes += report.probes;
        r.scans += report.scans;
        r.eval_ns += report.eval_ns;
        stats.index_probes += report.probes;
        stats.scan_fallbacks += report.scans;
        // Suppressed derivations never reach the per-item counting in the
        // insert loops; credit them here so `facts_derived` counts every
        // derivation.
        stats.facts_derived += report.suppressed;
        if let Some(obs) = &self.config.observer {
            obs.rule_evaluated(&RuleEvaluated {
                stratum,
                round,
                rule: report.rule,
                variant: report.variant,
                derived: report.derived,
                probes: report.probes,
                scans: report.scans,
                eval_ns: report.eval_ns,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    /// Evaluates one round's tasks, appending their derivations to `out`
    /// — a caller-owned buffer reused across rounds, so the (often tens
    /// of megabytes of) derivation storage is allocated once per stratum
    /// instead of once per round.
    #[allow(clippy::too_many_arguments)]
    fn run_tasks(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &Database,
        kernels: &KernelSet,
        tasks: &[Task],
        delta: &[Vec<Row>],
        stats: &mut SolveStats,
        stratum: usize,
        round: u64,
        tracer: &Tracer,
        out: &mut Vec<Derived>,
    ) -> Result<(), SolveError> {
        out.clear();
        stats.rule_evaluations += tasks.len() as u64;
        if self.config.threads <= 1 || tasks.len() <= 1 {
            let eval_guard = guard.eval_guard();
            let mut ring = tracer.local_ring();
            let mut scratch = kernel::KernelScratch::new();
            let mut failure = None;
            for task in tasks {
                let mut span = TaskSpan {
                    tracer,
                    ring: &mut ring,
                    tid: 0,
                    stratum,
                    round,
                };
                match run_one_task(
                    program,
                    db,
                    kernels,
                    task,
                    delta,
                    &eval_guard,
                    out,
                    &mut span,
                    &mut scratch,
                ) {
                    Ok(report) => self.note_task(stats, stratum, round, &report),
                    Err(error) => {
                        failure = Some(error);
                        break;
                    }
                }
            }
            // Merge even on failure, so the partial trace keeps the spans
            // recorded before the fault.
            tracer.merge(0, ring);
            return match failure {
                None => Ok(()),
                Some(error) => Err(error),
            };
        }
        // Parallel: rule evaluations within a round only read the database,
        // so they can proceed concurrently; outputs are merged afterwards
        // in chunk order, keeping insertion order (and therefore the
        // solution and the per-rule insertion credit) identical to the
        // sequential path. Each worker gets its own EvalGuard with the
        // poll period divided by the worker count, so the aggregate
        // deadline-check frequency matches the sequential path. A fault in
        // any worker fails the whole round.
        let chunk = tasks.len().div_ceil(self.config.threads);
        let inject_panic = self.inject_worker_panic;
        let threads = self.config.threads;
        let mut joined: Vec<std::thread::Result<WorkerResult>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .chunks(chunk)
                .enumerate()
                .map(|(w, task_chunk)| {
                    // Track ids are stable worker *slots* (chunk index + 1;
                    // 0 is the coordinator), so a worker's spans land on
                    // the same Perfetto track every round even though the
                    // scoped threads themselves are re-spawned per round.
                    let tid = (w + 1) as u32;
                    scope.spawn(move || {
                        if inject_panic {
                            panic!("injected worker panic (test hook)");
                        }
                        let eval_guard = guard.eval_guard_scaled(threads);
                        let mut out = Vec::new();
                        let mut reports = Vec::with_capacity(task_chunk.len());
                        let mut ring = tracer.local_ring();
                        let mut scratch = kernel::KernelScratch::new();
                        let mut failure = None;
                        for task in task_chunk {
                            let mut span = TaskSpan {
                                tracer,
                                ring: &mut ring,
                                tid,
                                stratum,
                                round,
                            };
                            match run_one_task(
                                program,
                                db,
                                kernels,
                                task,
                                delta,
                                &eval_guard,
                                &mut out,
                                &mut span,
                                &mut scratch,
                            ) {
                                Ok(report) => reports.push(report),
                                Err(error) => {
                                    failure = Some(error);
                                    break;
                                }
                            }
                        }
                        // Worker-local ring merges into the shared slot
                        // exactly once per round, off the evaluation path.
                        tracer.merge(tid, ring);
                        match failure {
                            None => Ok((out, reports)),
                            Some(error) => Err(error),
                        }
                    })
                })
                .collect();
            // Every handle must be joined — an unjoined panicked thread
            // would re-raise its panic when the scope exits, aborting the
            // process and losing the partial model. Result *draining*
            // stops at the first failure instead (see below).
            for h in handles {
                joined.push(h.join());
            }
        });
        let mut failure: Option<SolveError> = None;
        for result in joined {
            if failure.is_some() {
                // A worker already failed: drop the remaining chunks
                // rather than merging derivations past the fault.
                continue;
            }
            match result {
                Ok(Ok((chunk_out, reports))) => {
                    for report in &reports {
                        self.note_task(stats, stratum, round, report);
                    }
                    out.extend(chunk_out);
                }
                Ok(Err(error)) => failure = Some(error),
                // A panic that escaped the worker's guarded paths is an
                // internal solver bug; convert it into the structured
                // error instead of aborting the process, preserving the
                // PR-1 guarantee that failures return a partial model.
                Err(payload) => {
                    failure = Some(SolveError::FunctionPanicked {
                        predicate: "<internal>".to_string(),
                        rule: None,
                        function: "solver worker".to_string(),
                        payload: panic_payload(payload),
                    })
                }
            }
        }
        match failure {
            None => Ok(()),
            Some(error) => Err(error),
        }
    }
}

/// What one parallel worker returns: its derivations plus one
/// [`TaskReport`] per task it ran.
type WorkerResult = Result<(Vec<Derived>, Vec<TaskReport>), SolveError>;

/// Counters for one rule evaluation, reported back to the coordinating
/// thread (which owns the [`SolveStats`] and the [`Observer`]).
#[derive(Clone, Copy, Debug)]
struct TaskReport {
    rule: usize,
    variant: Option<usize>,
    /// All derivations of this evaluation, including kernel-suppressed
    /// ones.
    derived: u64,
    /// The suppressed subset of `derived`: counted into `facts_derived`
    /// here because those tuples never reach the insert loop's counter.
    suppressed: u64,
    probes: u64,
    scans: u64,
    eval_ns: u64,
}

/// Where one task records its rule-eval span: the worker's local ring
/// (`None` when tracing is disabled) plus the coordinates the span needs.
struct TaskSpan<'a, 'b> {
    tracer: &'a Tracer,
    ring: &'b mut Option<Ring>,
    tid: u32,
    stratum: usize,
    round: u64,
}

/// Evaluates one task, converting an [`EvalFault`] into a [`SolveError`]
/// attributed to the task's rule. Returns the task's work counters (time,
/// derivations, probe/scan counts) for the per-rule profile.
#[allow(clippy::too_many_arguments)]
fn run_one_task(
    program: &Program,
    db: &Database,
    kernels: &KernelSet,
    task: &Task,
    delta: &[Vec<Row>],
    eval_guard: &EvalGuard<'_>,
    out: &mut Vec<Derived>,
    span: &mut TaskSpan<'_, '_>,
    scratch: &mut kernel::KernelScratch,
) -> Result<TaskReport, SolveError> {
    eval_guard
        .check_now()
        .map_err(|kind| SolveError::BudgetExceeded {
            kind,
            stats: SolveStats::default(),
        })?;
    let before = out.len();
    let mut counters = EvalCounters::default();
    let start = Instant::now();
    let result = kernel::run_plan(
        program,
        db,
        kernels.plan(task.rule, task.variant),
        task.rule,
        delta,
        eval_guard,
        &mut counters,
        out,
        scratch,
    );
    let eval_ns = start.elapsed().as_nanos() as u64;
    if let Some(ring) = span.ring.as_mut() {
        // Reuses the timing this function already takes for the profile;
        // recorded before the error check so a faulting evaluation still
        // shows up in the partial trace.
        ring.push(TraceEvent {
            kind: SpanKind::RuleEval {
                stratum: span.stratum,
                round: span.round,
                rule: task.rule,
                variant: task.variant,
                derived: (out.len() - before) as u64 + counters.suppressed,
            },
            tid: span.tid,
            start_ns: span.tracer.at_ns(start),
            dur_ns: eval_ns,
        });
    }
    result.map_err(|fault| eval_fault_error(program, task.rule, fault))?;
    Ok(TaskReport {
        rule: task.rule,
        variant: task.variant,
        derived: (out.len() - before) as u64 + counters.suppressed,
        suppressed: counters.suppressed,
        probes: counters.probes,
        scans: counters.scans,
        eval_ns,
    })
}

/// Attributes an [`InsertFault`] (from [`Database::insert`]) to the
/// predicate and rule it happened under.
/// The extensional store a from-scratch run loads before the strata.
pub(crate) enum FactSource<'a> {
    /// The program's own facts plus extras: plain solves, and the resume
    /// fallback when the prior's extensional store is unknown (the extras
    /// are then the delta's insertions).
    ProgramPlus(&'a [(PredId, Vec<Value>)]),
    /// An explicit store replacing the program's facts entirely — the
    /// retraction paths of [`Solver::resume`](crate::incremental) solve
    /// from the updated store E′, where a retracted program fact must
    /// *not* be re-loaded.
    Exact(&'a [(PredId, Vec<Value>)]),
}

pub(crate) fn insert_fault_error(
    program: &Program,
    pred: PredId,
    rule: Option<usize>,
    fault: InsertFault,
) -> SolveError {
    let predicate = program.decl(pred).name.to_string();
    match fault {
        InsertFault::Panic(OpsPanic { function, payload }) => SolveError::FunctionPanicked {
            predicate,
            rule,
            function,
            payload,
        },
        InsertFault::Safety(violation) => SolveError::SafetyViolation {
            predicate,
            rule,
            violation,
        },
    }
}

/// Attributes an [`EvalFault`] (raised during rule-body evaluation) to the
/// rule's head predicate.
fn eval_fault_error(program: &Program, rule: usize, fault: EvalFault) -> SolveError {
    let predicate = program.decl(program.rules[rule].head_pred).name.to_string();
    match fault {
        EvalFault::Panic { function, payload } => SolveError::FunctionPanicked {
            predicate,
            rule: Some(rule),
            function,
            payload,
        },
        EvalFault::Safety(violation) => SolveError::SafetyViolation {
            predicate,
            rule: Some(rule),
            violation,
        },
        EvalFault::Budget(kind) => SolveError::BudgetExceeded {
            kind,
            stats: SolveStats::default(),
        },
    }
}

/// Assembles the queryable [`Solution`] from the (possibly partial)
/// database.
pub(crate) fn make_solution(
    program: &Program,
    db: impl Into<Arc<Database>>,
    stats: SolveStats,
    events: Option<Vec<Event>>,
    trace: Option<ExecutionTrace>,
) -> Solution {
    Solution {
        names: program
            .preds
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.to_string(), PredId(i as u32)))
            .collect(),
        kinds: program
            .preds
            .iter()
            .map(|d| matches!(d.kind, PredKind::Lattice(_)))
            .collect(),
        db: db.into(),
        stats,
        events_complete: events.is_some(),
        events,
        edb: Some(Arc::new(program.facts.clone())),
        trace,
    }
}

/// The head-predicate name of every rule, indexed by rule — the label
/// table an [`ExecutionTrace`] renders rule spans with.
pub(crate) fn rule_heads(program: &Program) -> Vec<String> {
    program
        .rules
        .iter()
        .map(|r| program.decl(r.head_pred).name.to_string())
        .collect()
}

/// One rule evaluation within a round: the full body (seed/naïve), or a
/// delta variant (delta atom first).
#[derive(Clone, Copy, Debug)]
struct Task {
    rule: usize,
    variant: Option<usize>,
}

/// One derived head tuple, optionally with instantiated premises.
#[derive(Clone, Debug)]
pub(crate) struct Derived {
    pub(crate) pred: PredId,
    pub(crate) payload: Payload,
    pub(crate) rule: usize,
    pub(crate) premises: Option<Vec<Premise>>,
}

/// Width of the inline encoded-key representation shared by the kernel's
/// shadow tables and the [`Payload::LatEnc`] fast path. Wider heads fall
/// back to materialized tuples.
pub(crate) const ENC_KEY: usize = 4;

/// The content of a [`Derived`] fact: a materialized head tuple, or — on
/// the kernel fast path — a lattice head kept in encoded form so the
/// insert loop can skip re-materializing and re-encoding the key columns.
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    /// A fully materialized head tuple (lattice heads carry the cell
    /// value as the last column).
    Tuple(Vec<Value>),
    /// A lattice head whose key slots are canonical encodings against the
    /// database the kernel probed; only the cell value is materialized.
    LatEnc {
        /// Number of live slots in `key`.
        arity: u8,
        /// Row id of the target cell when the kernel resolved it
        /// ([`crate::kernel::NO_ID`] otherwise). Ids are append-only, so
        /// a resolved id is still the same cell at insert time; the
        /// insert skips the hash lookup and joins the cell directly.
        id: u32,
        /// Encoded key columns, zero-padded past `arity`.
        key: [u64; ENC_KEY],
        /// The candidate cell value.
        cell: Value,
    },
}

/// Feeds a derived fact into the database, consuming the payload: the
/// event log rebuilds the logged tuple from the insert outcome (see
/// [`log_event`]).
fn insert_derived(db: &mut Database, d: &mut Derived) -> Result<InsertOutcome, InsertFault> {
    match &mut d.payload {
        Payload::Tuple(t) => db.insert(d.pred, std::mem::take(t)),
        Payload::LatEnc {
            arity,
            id,
            key,
            cell,
        } => {
            let value = std::mem::replace(cell, Value::Unit);
            db.insert_lat_encoded(d.pred, &key[..*arity as usize], *id, value)
        }
    }
}

/// Lattice cells already credited with a net change in the current
/// round.
///
/// Within one round a lattice cell can climb through several
/// intermediate values, and *how many* strict increases it takes depends
/// on the order candidate values are merged — which differs between
/// naïve and semi-naïve evaluation. Counting only the first increase per
/// cell per round makes `facts_inserted`, the per-rule `inserted`
/// credit, and the per-round `delta_sizes` *net* quantities (distinct
/// facts changed between round boundaries), which are strategy-invariant
/// (see the "Strategy invariance" section on [`SolveStats`]). Relational
/// tuples change at most once ever, so only lattice increases are
/// tracked.
pub(crate) struct TouchedCells(crate::fxhash::FxHashSet<(PredId, Row)>);

impl TouchedCells {
    pub(crate) fn new() -> TouchedCells {
        TouchedCells(crate::fxhash::FxHashSet::default())
    }

    /// Returns `true` when `outcome` is the first net change of its fact
    /// in this round (always true for new relational rows).
    fn first_change(&mut self, d: &Derived, outcome: &InsertOutcome) -> bool {
        match outcome {
            InsertOutcome::LatIncrease(key, _) => self.0.insert((d.pred, key.clone())),
            _ => true,
        }
    }
}

impl Solver {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_insert(
        &self,
        program: &Program,
        db: &mut Database,
        mut d: Derived,
        delta: &mut [Vec<Row>],
        touched: &mut TouchedCells,
        changed: &mut u64,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
    ) -> Result<(), SolveError> {
        let pred = d.pred;
        match insert_derived(db, &mut d)
            .map_err(|fault| insert_fault_error(program, pred, Some(d.rule), fault))?
        {
            InsertOutcome::Unchanged => {}
            outcome => {
                if touched.first_change(&d, &outcome) {
                    stats.facts_inserted += 1;
                    stats.per_rule[d.rule].inserted += 1;
                    *changed += 1;
                }
                match &outcome {
                    InsertOutcome::NewRow(row) => {
                        delta[pred.0 as usize].push(row.clone());
                    }
                    InsertOutcome::LatIncrease(key, value) => {
                        self.check_ascent(program, db, pred, key);
                        // Delta rows carry the full tuple: key columns plus
                        // the *new* cell value (§3.7's ga(P', S)).
                        let mut full: Vec<Value> = key.to_vec();
                        full.push(value.clone());
                        delta[pred.0 as usize].push(full.into());
                    }
                    InsertOutcome::Unchanged => unreachable!("outer match excludes Unchanged"),
                }
                log_event(events, &mut d, outcome);
            }
        }
        Ok(())
    }
}

/// Appends one net database change to a per-predicate accumulator, in
/// the same row format [`record_insert`] uses for `∆` rows: the full
/// tuple, with a lattice increase carrying the new cell value.
pub(crate) fn accumulate_change(acc: &mut [Vec<Row>], pred: PredId, outcome: &InsertOutcome) {
    match outcome {
        InsertOutcome::NewRow(row) => acc[pred.0 as usize].push(row.clone()),
        InsertOutcome::LatIncrease(key, value) => {
            let mut full: Vec<Value> = key.to_vec();
            full.push(value.clone());
            acc[pred.0 as usize].push(full.into());
        }
        InsertOutcome::Unchanged => {}
    }
}

/// Appends a provenance event for a database-changing insertion, taking
/// the derivation's premises.
fn log_event(events: &mut Option<Vec<Event>>, d: &mut Derived, outcome: InsertOutcome) {
    let Some(log) = events.as_mut() else {
        return;
    };
    // For lattice increases, log the *joined* cell value so explanations
    // show the state the database actually reached.
    let tuple = match outcome {
        InsertOutcome::LatIncrease(key, value) => {
            let mut full = key.to_vec();
            full.push(value);
            full
        }
        InsertOutcome::NewRow(row) => row.to_vec(),
        InsertOutcome::Unchanged => unreachable!("only changes are logged"),
    };
    log.push(Event {
        pred: d.pred,
        tuple,
        source: Source::Rule {
            rule: d.rule,
            premises: d.premises.take().unwrap_or_default(),
        },
    });
}

/// A fault raised while evaluating one rule body: a caught panic in user
/// code, a tripped safety sentinel, or a budget limit hit mid-evaluation.
#[derive(Clone, Debug)]
pub(crate) enum EvalFault {
    /// A user function or lattice operation panicked.
    Panic {
        /// The function that panicked.
        function: String,
        /// The rendered panic payload.
        payload: String,
    },
    /// A runtime sentinel tripped.
    Safety(Violation),
    /// A budget limit tripped during evaluation.
    Budget(BudgetKind),
}

impl From<OpsPanic> for EvalFault {
    fn from(p: OpsPanic) -> EvalFault {
        EvalFault::Panic {
            function: p.function,
            payload: p.payload,
        }
    }
}

/// Index-probe / scan-fallback counters for one rule evaluation. Local to
/// the evaluating thread (no shared atomics on the hot path); the solver
/// folds them into the per-rule profile after the task finishes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EvalCounters {
    pub(crate) probes: u64,
    pub(crate) scans: u64,
    /// Derivations a kernel suppressed at emit time because the database
    /// already subsumed them (the insert loop would have dropped them as
    /// `Unchanged`). Counted back into `facts_derived`, so that statistic
    /// counts every derivation whether or not it was suppressed.
    pub(crate) suppressed: u64,
}

/// The extensional store E a model is the least fixed point of: every
/// asserted relation tuple and lattice contribution, program facts
/// composed with absorbed deltas.
pub(crate) type ExtensionalStore = Arc<Vec<(PredId, Vec<Value>)>>;

/// The computed minimal model: the final fact database plus run statistics.
///
/// Query by predicate name; relations yield tuples, lattice predicates
/// yield `(key, element)` cells.
// Clone shares the database (it is behind an `Arc`), so cloning a
// solution is cheap even for large models; only the stats and any
// recorded provenance/trace are deep-copied.
#[derive(Clone, Debug)]
pub struct Solution {
    names: std::collections::HashMap<String, PredId>,
    kinds: Vec<bool>, // true = lattice
    // Shared, not owned: an empty-delta resume and a persistence
    // round-trip both hand back the same database without copying it.
    db: Arc<Database>,
    stats: SolveStats,
    events: Option<Vec<Event>>,
    // Whether `events` covers every insertion since the empty database —
    // the precondition for exact retraction handling in `resume`. False
    // when a recording resume extended a prior that had no log.
    events_complete: bool,
    // The extensional store E this model is the least fixed point of:
    // the program's facts composed with every delta absorbed by resumes.
    // `None` when unknown (solutions loaded from version-1 snapshots),
    // in which case retracting deltas are rejected.
    edb: Option<ExtensionalStore>,
    trace: Option<ExecutionTrace>,
}

impl Solution {
    /// Looks up a predicate id by name.
    pub fn predicate(&self, name: &str) -> Option<PredId> {
        self.names.get(name).copied()
    }

    /// Iterates the tuples of a relational predicate.
    ///
    /// Returns `None` for unknown names or lattice predicates.
    pub fn relation(&self, name: &str) -> Option<RelationIter<'_>> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Rel(rel) => Some(RelationIter { rows: rel.rows() }),
            PredData::Lat(_) => None,
        }
    }

    /// Iterates the `(key, element)` cells of a lattice predicate.
    ///
    /// Returns `None` for unknown names or relational predicates.
    pub fn lattice(&self, name: &str) -> Option<LatticeIter<'_>> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Lat(lat) => Some(LatticeIter {
                lat,
                ids: 0..lat.len() as u32,
            }),
            PredData::Rel(_) => None,
        }
    }

    /// Iterates every fact of a predicate, relational or lattice, as a
    /// uniform [`Fact`] view.
    ///
    /// This is the one enumeration that works regardless of predicate
    /// kind — model printing and the model-theory checker go through it.
    /// Returns `None` for unknown names.
    pub fn facts(&self, name: &str) -> Option<FactsIter<'_>> {
        let pred = self.predicate(name)?;
        let inner = match self.db.pred(pred) {
            PredData::Rel(rel) => FactsInner::Rel(RelationIter { rows: rel.rows() }),
            PredData::Lat(lat) => FactsInner::Lat(LatticeIter {
                lat,
                ids: 0..lat.len() as u32,
            }),
        };
        Some(FactsIter { inner })
    }

    /// The lattice element at `key`, or the lattice's `⊥` when the cell
    /// was never derived. Returns `None` for unknown or relational
    /// predicates.
    pub fn lattice_value(&self, name: &str, key: &[Value]) -> Option<Value> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Lat(lat) => Some(
                lat.value(key, self.db.spill())
                    .cloned()
                    .unwrap_or_else(|| lat.ops().bottom().clone()),
            ),
            PredData::Rel(_) => None,
        }
    }

    /// Returns `true` if the relational predicate contains the tuple.
    pub fn contains(&self, name: &str, row: &[Value]) -> bool {
        match self.predicate(name).map(|p| self.db.pred(p)) {
            Some(PredData::Rel(rel)) => rel.contains(row, self.db.spill()),
            _ => false,
        }
    }

    /// The number of facts stored for a predicate (tuples, or non-bottom
    /// cells for lattice predicates).
    pub fn len(&self, name: &str) -> Option<usize> {
        let pred = self.predicate(name)?;
        Some(self.db.len_of(pred))
    }

    /// Returns `true` if a predicate holds no facts.
    pub fn is_empty(&self, name: &str) -> Option<bool> {
        self.len(name).map(|n| n == 0)
    }

    /// Returns `true` if the named predicate is a lattice predicate.
    pub fn is_lattice(&self, name: &str) -> Option<bool> {
        self.predicate(name).map(|p| self.kinds[p.0 as usize])
    }

    /// Total facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.db.total_facts()
    }

    /// The run statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The provenance event log, if the solver ran with
    /// [`Solver::record_provenance`] — one entry per database-changing
    /// insertion, in insertion order.
    pub fn provenance(&self) -> Option<&[Event]> {
        self.events.as_deref()
    }

    /// The merged execution trace, if the solver ran with
    /// [`Solver::trace`]. Present on partial solutions from guarded
    /// failures too (the spans recorded before the fault).
    pub fn trace(&self) -> Option<&ExecutionTrace> {
        self.trace.as_ref()
    }

    /// Aggregates the per-cell ascent counters into an [`AscentReport`],
    /// if the solver ran with [`Solver::ascent`]. `top_k` bounds the
    /// hottest-cells list (by join count).
    pub fn ascent_report(&self, top_k: usize) -> Option<AscentReport> {
        if !self.db.ascent_enabled() {
            return None;
        }
        let mut by_pred: std::collections::HashMap<PredId, &str> = std::collections::HashMap::new();
        for (name, &pred) in &self.names {
            by_pred.insert(pred, name);
        }
        let cells = self.db.ascent_cells();
        let mut histogram: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut per_lattice: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        let mut max_height = 0u64;
        for (_, _, _, height, lattice) in &cells {
            *histogram.entry(*height).or_insert(0) += 1;
            let entry = per_lattice.entry((*lattice).to_string()).or_insert(0);
            *entry = (*entry).max(*height);
            max_height = max_height.max(*height);
        }
        let mut ranked: Vec<_> = cells.iter().collect();
        ranked.sort_by(|a, b| {
            b.2.cmp(&a.2) // joins, descending
                .then(b.3.cmp(&a.3)) // height, descending
                .then(a.0.cmp(&b.0)) // predicate id
                .then(a.1.cmp(&b.1)) // key, for determinism
        });
        let hottest = ranked
            .into_iter()
            .take(top_k)
            .map(|(pred, key, joins, height, _)| AscentCell {
                predicate: by_pred.get(pred).copied().unwrap_or("?").to_string(),
                key: format!(
                    "({})",
                    key.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                joins: *joins,
                height: *height,
            })
            .collect();
        Some(AscentReport {
            cells: cells.len() as u64,
            max_height,
            histogram: histogram.into_iter().collect(),
            hottest,
            per_lattice: per_lattice.into_iter().collect(),
        })
    }

    /// Reconstructs the derivation tree of a fact.
    ///
    /// For relational predicates, `row` is the full tuple; for lattice
    /// predicates, `row` may be the key columns alone (the explanation
    /// covers the last insertion that changed the cell) or the full tuple
    /// including a cell value (the explanation covers the last insertion
    /// at which the cell held exactly that value).
    ///
    /// Returns `None` when provenance was not recorded, the predicate is
    /// unknown, or no matching insertion exists. Premises blocked behind
    /// filters, negations, or choice bindings appear only through their
    /// positive atoms, per the provenance model documented in
    /// [`crate::provenance`].
    pub fn explain(&self, name: &str, row: &[Value]) -> Option<DerivationTree> {
        let events = self.events.as_deref()?;
        let pred = self.predicate(name)?;
        let is_lattice = self.kinds[pred.0 as usize];
        let idx = events.iter().rposition(|e| {
            e.pred == pred
                && if is_lattice {
                    if row.len() == e.tuple.len() {
                        e.tuple == row
                    } else {
                        row.len() + 1 == e.tuple.len() && e.tuple[..row.len()] == *row
                    }
                } else {
                    e.tuple == row
                }
        })?;
        Some(self.build_tree(events, idx))
    }

    fn build_tree(&self, events: &[Event], idx: usize) -> DerivationTree {
        let event = &events[idx];
        let name = self
            .names
            .iter()
            .find(|(_, &p)| p == event.pred)
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        let (rule, premises) = match &event.source {
            Source::Fact => (None, &[][..]),
            Source::Rule { rule, premises } => (Some(*rule), premises.as_slice()),
        };
        let children = premises
            .iter()
            .filter_map(|premise| {
                let is_lattice = self.kinds[premise.pred.0 as usize];
                // Resolve to the latest earlier event establishing the
                // premise; indices strictly decrease, so this terminates.
                events[..idx]
                    .iter()
                    .rposition(|e| {
                        e.pred == premise.pred
                            && if is_lattice {
                                key_matches(&premise.pattern, &e.tuple)
                            } else {
                                pattern_matches(&premise.pattern, &e.tuple)
                            }
                    })
                    .map(|j| self.build_tree(events, j))
            })
            .collect();
        DerivationTree {
            predicate: name,
            tuple: event.tuple.clone(),
            rule,
            children,
        }
    }

    pub(crate) fn database(&self) -> &Database {
        &self.db
    }

    /// The database behind this solution, shared. The empty-delta
    /// short-circuit in [`Solver::resume`](crate::incremental) returns a
    /// new [`Solution`] over the same allocation instead of cloning.
    pub(crate) fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    pub(crate) fn events(&self) -> Option<&Vec<Event>> {
        self.events.as_ref()
    }

    /// The number of predicates this solution was solved over, used by
    /// [`crate::incremental`] to reject a prior solution whose program
    /// does not match the one being resumed.
    pub(crate) fn num_predicates(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the event log covers every insertion since the empty
    /// database (see the field). Meaningful only when `events` is some.
    pub(crate) fn events_complete(&self) -> bool {
        self.events_complete
    }

    pub(crate) fn set_events_complete(&mut self, complete: bool) {
        self.events_complete = complete;
    }

    /// The extensional store this model is the fixed point of, or `None`
    /// when unknown (version-1 snapshot loads).
    pub(crate) fn edb(&self) -> Option<&ExtensionalStore> {
        self.edb.as_ref()
    }

    pub(crate) fn set_edb(&mut self, edb: Option<ExtensionalStore>) {
        self.edb = edb;
    }

    /// A cheap, immutable, shareable read view of this solution's fact
    /// database — the handle a resident service publishes per epoch.
    ///
    /// # Cost model
    ///
    /// The fact data itself is **never copied**: the snapshot bumps the
    /// reference count on the `Arc`-shared database and copies only the
    /// predicate name table (one `String` + id per declared predicate,
    /// `O(#predicates)`, independent of fact count). Contrast with
    /// cloning the whole [`Solution`], which additionally deep-copies
    /// the run statistics, any recorded provenance event log (one entry
    /// per insertion — easily larger than the model itself), and any
    /// execution trace. Cloning the returned [`Snapshot`] is `O(1)`:
    /// two `Arc` bumps.
    ///
    /// The view is immutable: the solver never mutates a database behind
    /// a published [`Solution`] (updates build a new database and a new
    /// solution), so a snapshot taken before an update keeps observing
    /// the pre-update model — the snapshot-isolation primitive of the
    /// `flixd` service.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            names: Arc::new(self.names.clone()),
            kinds: Arc::new(self.kinds.clone()),
            db: Arc::clone(&self.db),
        }
    }
}

/// An immutable, cheaply cloneable read view of a solved model's facts,
/// produced by [`Solution::snapshot`].
///
/// Offers the read-only query surface of [`Solution`] (facts, membership,
/// lattice cells) without the statistics, provenance, or trace baggage —
/// see [`Solution::snapshot`] for the cost model. `Clone` is `O(1)`
/// (reference-count bumps only), and the type is `Send + Sync`, so many
/// reader threads can serve queries from one snapshot while a writer
/// computes the next fixed point.
#[derive(Clone, Debug)]
pub struct Snapshot {
    names: Arc<std::collections::HashMap<String, PredId>>,
    kinds: Arc<Vec<bool>>,
    db: Arc<Database>,
}

impl Snapshot {
    /// Looks up a predicate id by name.
    pub fn predicate(&self, name: &str) -> Option<PredId> {
        self.names.get(name).copied()
    }

    /// The declared predicate names, in declaration order.
    pub fn predicate_names(&self) -> Vec<&str> {
        let mut names: Vec<(&str, PredId)> =
            self.names.iter().map(|(n, &p)| (n.as_str(), p)).collect();
        names.sort_by_key(|(_, p)| p.0);
        names.into_iter().map(|(n, _)| n).collect()
    }

    /// Iterates every fact of a predicate, relational or lattice, as a
    /// uniform [`Fact`] view. Returns `None` for unknown names.
    pub fn facts(&self, name: &str) -> Option<FactsIter<'_>> {
        let pred = self.predicate(name)?;
        let inner = match self.db.pred(pred) {
            PredData::Rel(rel) => FactsInner::Rel(RelationIter { rows: rel.rows() }),
            PredData::Lat(lat) => FactsInner::Lat(LatticeIter {
                lat,
                ids: 0..lat.len() as u32,
            }),
        };
        Some(FactsIter { inner })
    }

    /// The lattice element at `key`, or `⊥` when the cell was never
    /// derived. Returns `None` for unknown or relational predicates.
    pub fn lattice_value(&self, name: &str, key: &[Value]) -> Option<Value> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Lat(lat) => Some(
                lat.value(key, self.db.spill())
                    .cloned()
                    .unwrap_or_else(|| lat.ops().bottom().clone()),
            ),
            PredData::Rel(_) => None,
        }
    }

    /// Returns `true` if the relational predicate contains the tuple.
    pub fn contains(&self, name: &str, row: &[Value]) -> bool {
        match self.predicate(name).map(|p| self.db.pred(p)) {
            Some(PredData::Rel(rel)) => rel.contains(row, self.db.spill()),
            _ => false,
        }
    }

    /// The number of facts stored for a predicate (tuples, or non-bottom
    /// cells for lattice predicates).
    pub fn len(&self, name: &str) -> Option<usize> {
        let pred = self.predicate(name)?;
        Some(self.db.len_of(pred))
    }

    /// Returns `true` if a predicate holds no facts.
    pub fn is_empty(&self, name: &str) -> Option<bool> {
        self.len(name).map(|n| n == 0)
    }

    /// Returns `true` if the named predicate is a lattice predicate.
    pub fn is_lattice(&self, name: &str) -> Option<bool> {
        self.predicate(name).map(|p| self.kinds[p.0 as usize])
    }

    /// Total facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.db.total_facts()
    }
}

// The service shares solutions and snapshots across reader and writer
// threads; losing either bound is an API break, caught at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solution>();
    assert_send_sync::<Snapshot>();
};

/// Iterator over the tuples of a relational predicate, returned by
/// [`Solution::relation`]. Tuples come back in insertion order, which is
/// deterministic for a given program and solver configuration.
#[derive(Clone, Debug)]
pub struct RelationIter<'a> {
    rows: crate::database::RowsIter<'a>,
}

impl<'a> Iterator for RelationIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.rows.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for RelationIter<'_> {}

/// Iterator over the `(key, element)` cells of a lattice predicate,
/// returned by [`Solution::lattice`]. Cells come back in first-derived
/// key order; `⊥` cells are never stored, so never yielded.
#[derive(Clone, Debug)]
pub struct LatticeIter<'a> {
    lat: &'a crate::database::LatticeData,
    ids: std::ops::Range<u32>,
}

impl<'a> Iterator for LatticeIter<'a> {
    type Item = (&'a [Value], &'a Value);

    fn next(&mut self) -> Option<(&'a [Value], &'a Value)> {
        let id = self.ids.next()?;
        Some((self.lat.key(id), self.lat.cell(id)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for LatticeIter<'_> {}

/// One fact of a [`Solution`], as yielded by [`Solution::facts`]: either
/// a relational tuple or a lattice cell.
///
/// `Display` renders the comma-separated column list (key columns plus
/// the cell element for lattice facts), so `format!("{name}({fact})")`
/// reproduces the canonical `Pred(a, b, c)` form used by flixr.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fact<'a> {
    /// A relational tuple.
    Row(&'a [Value]),
    /// A lattice cell: the key columns and the cell's element.
    Cell(&'a [Value], &'a Value),
}

impl Fact<'_> {
    /// The key columns: the full tuple for relational facts, the key
    /// columns (without the element) for lattice cells.
    pub fn key(&self) -> &[Value] {
        match self {
            Fact::Row(row) => row,
            Fact::Cell(key, _) => key,
        }
    }

    /// The lattice element, for lattice cells.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Fact::Row(_) => None,
            Fact::Cell(_, value) => Some(value),
        }
    }
}

impl fmt::Display for Fact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.key().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if let Some(value) = self.value() {
            if self.key().is_empty() {
                write!(f, "{value}")?;
            } else {
                write!(f, ", {value}")?;
            }
        }
        Ok(())
    }
}

/// Iterator over every fact of one predicate, returned by
/// [`Solution::facts`]; works uniformly for relations and lattices.
#[derive(Clone, Debug)]
pub struct FactsIter<'a> {
    inner: FactsInner<'a>,
}

#[derive(Clone, Debug)]
enum FactsInner<'a> {
    Rel(RelationIter<'a>),
    Lat(LatticeIter<'a>),
}

impl<'a> Iterator for FactsIter<'a> {
    type Item = Fact<'a>;

    fn next(&mut self) -> Option<Fact<'a>> {
        match &mut self.inner {
            FactsInner::Rel(rel) => rel.next().map(Fact::Row),
            FactsInner::Lat(lat) => lat.next().map(|(k, v)| Fact::Cell(k, v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            FactsInner::Rel(rel) => rel.size_hint(),
            FactsInner::Lat(lat) => lat.size_hint(),
        }
    }
}

impl ExactSizeIterator for FactsIter<'_> {}
