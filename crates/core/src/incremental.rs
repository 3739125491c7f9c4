//! Incremental re-solving: warm-starting the fixed point from a prior
//! model plus a delta of extensional updates.
//!
//! A [`Delta`] is a sequence of [`DeltaOp`]s applied to the *extensional
//! store* E — the set of asserted facts the model is the least fixed
//! point of. Inserts and lub-raises grow E; retracts and lowers shrink
//! it. [`Solver::resume`] computes the model of the updated store E′
//! from the prior model, re-doing as little work as possible:
//!
//! * **Monotone deltas** (inserts and raises only) re-enter the
//!   semi-naïve loop directly. The strategy (§3.7 of the paper) already
//!   works in deltas: each round re-evaluates rules only against the
//!   ground atoms that *strictly increased* since the previous round,
//!   and a finished solve is simply the state where that delta has
//!   drained — so a monotone update seeds the loop as the initial `∆`,
//!   skipping the seed round and every untouched stratum entirely.
//!   FLIX programs are monotone, so `M(E) ⊑ M(E ∪ ∆)`: the prior model
//!   is a sound under-approximation of the updated one and nothing ever
//!   needs to be taken back.
//!
//! * **Retracting deltas** (any retract or lower with net effect) run a
//!   DRed-style over-delete/re-derive pass adapted to lattice semantics
//!   (see DESIGN §16). The provenance event log of the prior solve is a
//!   well-founded proof forest: premises are logged before conclusions.
//!   One forward pass over it marks the *cone of consequences* of the
//!   removed assertions — every derivation with a removed or already-
//!   marked premise, and for lattice cells every join at or after the
//!   first contaminated one. The database is rebuilt without the cone
//!   (an over-deletion: survivors are provably derivable from E′, so
//!   the result is a sound under-approximation), E′ is re-asserted, and
//!   the affected strata re-run to the fixed point, restoring every
//!   over-deleted fact that has an alternative derivation. Lattice
//!   cells converge to the lub of their *surviving* justifications
//!   rather than keeping a stale upper bound.
//!
//! * **Fallback.** Deltas the warm paths cannot handle exactly degrade
//!   to a from-scratch solve of E′ — the same model, without the
//!   speedup: deltas reaching a negated body atom (insertions into a
//!   negated predicate invalidate derivations; retractions create new
//!   ones), and retractions when the prior solve did not record a
//!   complete provenance log. Retractions additionally require the
//!   prior's extensional store to be known; a solution loaded from a
//!   version-1 snapshot rejects them with
//!   [`DeltaError::NoExtensionalBase`].
//!
//! # Example
//!
//! ```
//! use flix_core::incremental::Delta;
//! use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 2);
//! let path = b.relation("Path", 2);
//! b.fact(edge, vec![1.into(), 2.into()]);
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
//!     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
//! );
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
//!     [
//!         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
//!         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
//!     ],
//! );
//! let program = b.build()?;
//! let solver = Solver::new();
//! let initial = solver.solve(&program)?;
//! assert!(!initial.contains("Path", &[1.into(), 3.into()]));
//!
//! // Monotone update: a new edge extends the reachable set.
//! let delta = Delta::new().insert("Edge", vec![2.into(), 3.into()]);
//! let updated = solver.resume(&program, &initial, &delta)?;
//! assert!(updated.contains("Path", &[1.into(), 3.into()]));
//!
//! // Retraction: taking the edge back restores the initial model.
//! // The store tracks deltas across resumes, so this removes the
//! // assertion made by the previous delta, not a program fact.
//! let delta = Delta::new().retract("Edge", vec![2.into(), 3.into()]);
//! let reverted = solver.resume(&program, &updated, &delta)?;
//! assert!(!reverted.contains("Path", &[1.into(), 3.into()]));
//! # Ok(())
//! # }
//! ```

// Internal plumbing passes `SolveError` by value between rounds, exactly
// like `solver.rs`; it is boxed inside `SolveFailure` at the API boundary.
#![allow(clippy::result_large_err)]

use crate::database::{Database, InsertOutcome, PredData, Row};
use crate::guard::Guard;
use crate::kernel::KernelSet;
use crate::observe::{RuleStats, StratumStats};
use crate::program::{CItem, Program};
use crate::provenance::{pattern_matches, Event, Source};
use crate::solver::{accumulate_change, insert_fault_error, make_solution, FactSource};
use crate::stratify::{stratify, Strata};
use crate::trace::{SpanKind, Tracer};
use crate::{PredId, Solution, SolveError, SolveFailure, SolveStats, Solver, Strategy, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One update to the extensional store: an assertion added or removed.
///
/// All four operations are set operations on the store E of *asserted*
/// facts; the model is always the least fixed point of the rules over
/// the current store. In particular:
///
/// * `Retract` removes an assertion. Retracting a tuple that was never
///   asserted — including tuples only ever *derived* by rules — is a
///   no-op; derived facts disappear exactly when their last surviving
///   derivation does.
/// * `Raise` asserts that a lattice cell is at least `element` (the
///   cell holds the lub of all assertions and rule derivations), and is
///   equivalent to `Insert` with the element appended as the last
///   column.
/// * `Lower` removes the assertion made by the matching `Raise` (or
///   lattice fact). The cell re-settles at the lub of its *remaining*
///   justifications — possibly `⊥`, dropping the cell — rather than at
///   any particular smaller value. It is equivalent to `Retract` of the
///   key-plus-element tuple.
///
/// Operations are predicate-*name* based and are resolved — and
/// arity-checked — when the delta is applied.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Assert a relational tuple (or a lattice fact given as key columns
    /// plus the element).
    Insert {
        /// The predicate name.
        predicate: String,
        /// The full tuple, declared arity wide.
        tuple: Vec<Value>,
    },
    /// Remove a previously asserted relational tuple (or lattice fact).
    Retract {
        /// The predicate name.
        predicate: String,
        /// The full tuple, declared arity wide.
        tuple: Vec<Value>,
    },
    /// Assert that the lattice cell at `key` is at least `element`.
    Raise {
        /// The predicate name.
        predicate: String,
        /// The key columns (declared arity minus one).
        key: Vec<Value>,
        /// The asserted lattice element.
        element: Value,
    },
    /// Remove the assertion that the cell at `key` is at least
    /// `element`; the cell re-settles at the lub of what remains.
    Lower {
        /// The predicate name.
        predicate: String,
        /// The key columns (declared arity minus one).
        key: Vec<Value>,
        /// The element whose assertion is removed.
        element: Value,
    },
}

/// An update to a program's extensional store: a sequence of
/// [`DeltaOp`]s, applied in order by [`Solver::resume`].
///
/// The classic builder methods ([`Delta::insert`], [`Delta::raise`],
/// [`Delta::from_facts`], [`Delta::push`]) are thin wrappers that
/// construct the corresponding ops; [`Delta::retract`] and
/// [`Delta::lower`] cover the removing half, and [`Delta::op`] /
/// [`Delta::push_op`] take a [`DeltaOp`] directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// Creates an empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Appends one operation (chaining form).
    pub fn op(mut self, op: DeltaOp) -> Delta {
        self.ops.push(op);
        self
    }

    /// Appends one operation (mutating form).
    pub fn push_op(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Asserts one fact (chaining form): a full tuple for a relational
    /// predicate, or key columns plus the element for a lattice
    /// predicate. Wrapper over [`DeltaOp::Insert`].
    pub fn insert(mut self, predicate: impl Into<String>, tuple: Vec<Value>) -> Delta {
        self.push(predicate, tuple);
        self
    }

    /// Asserts one fact (mutating form). See [`Delta::insert`].
    pub fn push(&mut self, predicate: impl Into<String>, tuple: Vec<Value>) {
        self.ops.push(DeltaOp::Insert {
            predicate: predicate.into(),
            tuple,
        });
    }

    /// Removes one previously asserted fact (chaining form). Wrapper
    /// over [`DeltaOp::Retract`]; see there for the exact semantics.
    pub fn retract(mut self, predicate: impl Into<String>, tuple: Vec<Value>) -> Delta {
        self.ops.push(DeltaOp::Retract {
            predicate: predicate.into(),
            tuple,
        });
        self
    }

    /// Asserts a lattice lub-raise: the cell at `key` is raised to (at
    /// least) `element`. Wrapper over [`DeltaOp::Raise`].
    pub fn raise(mut self, predicate: impl Into<String>, key: Vec<Value>, element: Value) -> Delta {
        self.ops.push(DeltaOp::Raise {
            predicate: predicate.into(),
            key,
            element,
        });
        self
    }

    /// Removes a lattice assertion: the cell at `key` loses the
    /// justification `element` and re-settles at the lub of what
    /// remains. Wrapper over [`DeltaOp::Lower`].
    pub fn lower(mut self, predicate: impl Into<String>, key: Vec<Value>, element: Value) -> Delta {
        self.ops.push(DeltaOp::Lower {
            predicate: predicate.into(),
            key,
            element,
        });
        self
    }

    /// Appends every operation of `other`, in order — the composition
    /// `self; other` (the persistence layer folds WAL frames with it).
    pub fn extend_from(&mut self, other: &Delta) {
        self.ops.extend(other.ops.iter().cloned());
    }

    /// Builds an inserting delta from every fact of `program` — the
    /// flixr `--update` path: the update file is compiled as a
    /// standalone program (its facts re-declare the predicates they
    /// touch) and its facts become the delta.
    pub fn from_facts(program: &Program) -> Delta {
        let mut delta = Delta::new();
        for (pred, values) in program.facts() {
            delta.push(program.decl(pred).name(), values.to_vec());
        }
        delta
    }

    /// The number of operations, of any kind.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no operations of any kind.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }
}

/// A [`Delta`] (or prior [`Solution`]) that does not fit the program
/// handed to [`Solver::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A delta operation names a predicate the program does not declare.
    UnknownPredicate {
        /// The unresolvable name.
        predicate: String,
    },
    /// A delta operation's tuple width does not match the predicate's
    /// declared arity (for lattice predicates and the `Raise`/`Lower`
    /// forms, key columns plus the element).
    ArityMismatch {
        /// The predicate name.
        predicate: String,
        /// The declared arity.
        declared: usize,
        /// The operation's tuple width.
        found: usize,
    },
    /// The prior solution was not produced from the program being
    /// resumed: predicate names, order, or kinds differ.
    SolutionMismatch,
    /// The delta retracts or lowers, but the prior solution's
    /// extensional store is unknown (it was loaded from a version-1
    /// snapshot), so the net effect of a removal cannot be determined.
    NoExtensionalBase,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownPredicate { predicate } => {
                write!(f, "delta names unknown predicate {predicate}")
            }
            DeltaError::ArityMismatch {
                predicate,
                declared,
                found,
            } => write!(
                f,
                "delta tuple for {predicate} has {found} columns, declared arity is {declared}"
            ),
            DeltaError::SolutionMismatch => write!(
                f,
                "prior solution does not match the program being resumed \
                 (was it produced by solving a different program?)"
            ),
            DeltaError::NoExtensionalBase => write!(
                f,
                "delta retracts facts but the prior solution's extensional \
                 store is unknown (was it loaded from a version-1 snapshot?); \
                 solve from scratch instead"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<DeltaError> for SolveError {
    fn from(e: DeltaError) -> SolveError {
        SolveError::Delta(e)
    }
}

/// A [`DeltaOp`] resolved against the program: an assertion added to or
/// removed from the extensional store. Lattice raises and lowers
/// normalize to the key-plus-element tuple form here.
struct ResolvedOp {
    add: bool,
    pred: PredId,
    tuple: Vec<Value>,
}

impl Solver {
    /// Resumes a finished solve: applies `delta` to the extensional
    /// store behind `prior` (which must be a *complete* fixed point of
    /// `program`, as returned by [`Solver::solve`] or an earlier
    /// `resume`) and computes the model of the updated store, re-running
    /// only the work the update can reach.
    ///
    /// Monotone deltas seed the semi-naïve worklist with exactly the
    /// changed cells; deltas with retractions or lowers run the
    /// over-delete/re-derive pass when the prior solve recorded a
    /// complete provenance log, and degrade to a from-scratch solve of
    /// the updated store otherwise (see the module docs for the exact
    /// conditions). Either way the result is cell-for-cell identical to
    /// a from-scratch [`Solver::solve`] over the updated store, for
    /// every strategy and thread count; the randomized update-sequence
    /// parity suite pins this.
    ///
    /// Resumed work is observable like any other solve: rounds, rule
    /// evaluations, and net insertions (including the delta's own
    /// insertions and any re-asserted survivors, counted like fact
    /// loads) appear in [`SolveStats`], the per-rule/per-stratum
    /// profiles, and the attached [`crate::Observer`], and the
    /// configured [`crate::Budget`] governs the resumed rounds.
    /// Statistics describe the *resumed* run only; `per_stratum` holds
    /// entries just for re-run strata (tagged with their original
    /// stratum indices). When provenance recording is on, the prior
    /// solution's event log is carried over — pruned of the retracted
    /// cone when the delta removes assertions — and extended, so
    /// [`Solution::explain`] spans both runs.
    ///
    /// # Errors
    ///
    /// All [`Solver::solve`] failure modes, plus [`SolveError::Delta`]
    /// when the delta or prior solution does not fit `program` (the
    /// partial solution is then the unmodified prior model). For
    /// monotone deltas the partial solution on failure is always ⊒ the
    /// prior model; a failure mid-retraction may additionally be missing
    /// over-deleted facts that re-derivation would have restored — it is
    /// a sound under-approximation of the updated model, not of the
    /// prior one.
    pub fn resume(
        &self,
        program: &Program,
        prior: &Solution,
        delta: &Delta,
    ) -> Result<Solution, Box<SolveFailure>> {
        let wall_start = Instant::now();
        let guard = Guard::new(&self.config.budget);
        let tracer = Tracer::new(self.config.trace.as_ref());
        if let Some(obs) = &self.config.observer {
            obs.resume_started(delta.len());
        }
        let mut stats = SolveStats {
            per_rule: program
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| RuleStats {
                    rule: i,
                    head: program.decl(r.head_pred).name().to_string(),
                    ..RuleStats::default()
                })
                .collect(),
            ..SolveStats::default()
        };

        // Validate the prior solution and the delta before touching
        // anything; on a validation error the partial model is the
        // unmodified prior model.
        let validated = check_prior(program, prior)
            .and_then(|()| resolve_delta(program, delta))
            .and_then(|ops| {
                if prior.edb().is_none() && ops.iter().any(|op| !op.add) {
                    Err(DeltaError::NoExtensionalBase)
                } else {
                    Ok(ops)
                }
            });
        let resolved = match validated {
            Ok(resolved) => resolved,
            Err(e) => {
                let db = prior.database().clone();
                stats.total_facts = db.total_facts() as u64;
                stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
                if let Some(obs) = &self.config.observer {
                    obs.solve_finished(&stats);
                }
                let mut partial = make_solution(program, db, stats.clone(), None, None);
                partial.set_edb(prior.edb().cloned());
                return Err(Box::new(SolveFailure {
                    error: e.into(),
                    partial,
                    stats,
                }));
            }
        };

        // An empty delta cannot change a complete fixed point: hand back
        // a solution sharing the prior database — no clone, no
        // stratification, no per-stratum bookkeeping. Skipped when ascent
        // instrumentation is requested, since enabling counters mutates
        // the database and needs the warm-start copy below.
        if delta.is_empty() && self.config.ascent.is_none() {
            stats.total_facts = prior.database().total_facts() as u64;
            stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
            tracer.record(0, SpanKind::Solve, 0);
            let trace = tracer.finish(crate::solver::rule_heads(program));
            if let Some(obs) = &self.config.observer {
                obs.solve_finished(&stats);
            }
            let events = self
                .config
                .record_provenance
                .then(|| prior.events().cloned().unwrap_or_default());
            let log_ok = prior.events().is_some() && prior.events_complete();
            let mut solution = make_solution(program, prior.database_arc(), stats, events, trace);
            solution.set_edb(prior.edb().cloned());
            let has_log = solution.provenance().is_some();
            solution.set_events_complete(has_log && log_ok);
            return Ok(solution);
        }

        // The updated extensional store E′, the assertions the delta
        // effectively removed from it (present before, absent after),
        // and the assertions it effectively added (absent before,
        // present after); insert-then-retract and retract-then-reinsert
        // within one delta both cancel out here. Without an extensional
        // base no removals exist (validated above), so the raw add ops
        // are exactly the net additions.
        let (eprime, removed, added) = match prior.edb() {
            Some(base) => {
                let (entries, removed, added) = apply_ops(base, &resolved);
                (Some(Arc::new(entries)), removed, Some(added))
            }
            None => (None, Vec::new(), None),
        };

        // Warm start: clone the prior fixed point and extend its event
        // log when provenance is on (the prior log may be absent if the
        // prior solve ran without recording).
        let mut db = prior.database().clone();
        if self.config.ascent.is_some() {
            // Counters carried over from a prior ascent-enabled solve are
            // kept; otherwise heights are measured from the resume start.
            db.enable_ascent();
        }
        let mut events: Option<Vec<Event>> = self
            .config
            .record_provenance
            .then(|| prior.events().cloned().unwrap_or_default());
        // The prior log, only when it covers every insertion since the
        // empty database — the precondition for exact over-deletion.
        let prior_log = prior
            .events()
            .filter(|_| prior.events_complete())
            .map(|v| v.as_slice());
        let mut rebuilt = false;

        let outcome = self.resume_inner(
            program,
            &guard,
            &mut db,
            resolved,
            eprime.as_ref().map(|v| v.as_slice()),
            added,
            &removed,
            prior_log,
            &mut rebuilt,
            &mut stats,
            &mut events,
            &tracer,
        );

        stats.total_facts = db.total_facts() as u64;
        stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
        tracer.record(0, SpanKind::Solve, 0);
        let trace = tracer.finish(crate::solver::rule_heads(program));
        if let Some(obs) = &self.config.observer {
            obs.solve_finished(&stats);
        }
        let mut solution = make_solution(program, db, stats.clone(), events, trace);
        solution.set_edb(eprime);
        // A rebuilt log covers the run from the empty database; a
        // carried-over one is complete only if the prior's was.
        let log_ok = rebuilt || (prior.events().is_some() && prior.events_complete());
        let has_log = solution.provenance().is_some();
        solution.set_events_complete(has_log && log_ok);
        match outcome {
            Ok(()) => Ok(solution),
            Err(mut error) => {
                // Refresh the stats snapshot embedded at the failure
                // site, exactly as `solve` does.
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

    /// Dispatches a validated resume to the warm monotone path, the
    /// over-delete/re-derive path, or the from-scratch fallback. Sets
    /// `rebuilt` when the event log was rebuilt from the empty database
    /// (fallback paths), even on failure part-way through.
    #[allow(clippy::too_many_arguments)]
    fn resume_inner(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        resolved: Vec<ResolvedOp>,
        eprime: Option<&[(PredId, Vec<Value>)]>,
        added: Option<Vec<(PredId, Vec<Value>)>>,
        removed: &[(PredId, Vec<Value>)],
        prior_log: Option<&[Event]>,
        rebuilt: &mut bool,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let strata = stratify(program)?;
        let npreds = program.num_predicates();

        // Predicates the delta has a net effect on: insertions (possibly
        // already absorbed) and effective removals. A change reaching a
        // predicate a negated body atom (transitively) depends on cannot
        // be expressed by either warm path: an insertion into a negated
        // predicate invalidates derivations without leaving a trace in
        // the positive-premise proof forest, and a retraction creates
        // derivations out of nothing. Fall back to a from-scratch solve
        // of the updated store — same model, no warm-start speedup.
        let mut delta_preds = vec![false; npreds];
        for op in &resolved {
            if op.add {
                delta_preds[op.pred.0 as usize] = true;
            }
        }
        for (pred, _) in removed {
            delta_preds[pred.0 as usize] = true;
        }
        let negated = negation_reaches(program, &delta_preds);

        if removed.is_empty() {
            if negated {
                *rebuilt = true;
                self.reset_for_scratch(program, db, events);
                return match eprime {
                    // The store is known: solve it exactly. This also
                    // covers insertions absorbed by earlier resumes.
                    Some(store) => self.solve_inner(
                        program,
                        guard,
                        db,
                        FactSource::Exact(store),
                        stats,
                        events,
                        tracer,
                    ),
                    // Unknown store (version-1 snapshot prior): the best
                    // reconstruction is the program's facts plus this
                    // delta's insertions.
                    None => {
                        let adds: Vec<(PredId, Vec<Value>)> =
                            resolved.into_iter().map(|op| (op.pred, op.tuple)).collect();
                        self.solve_inner(
                            program,
                            guard,
                            db,
                            FactSource::ProgramPlus(&adds),
                            stats,
                            events,
                            tracer,
                        )
                    }
                };
            }
            // Seed the warm path from the *net* store change E′ \ E, not
            // the raw add ops: an insertion cancelled by a later
            // retraction of the same tuple (reachable via WAL recovery,
            // which folds frames from separate runs into one delta) must
            // not reach the warm database, or the model diverges from a
            // scratch solve of E′. Without an extensional base the raw
            // add ops are the net additions (removals were rejected).
            let adds: Vec<ResolvedOp> = match added {
                Some(net) => net
                    .into_iter()
                    .map(|(pred, tuple)| ResolvedOp {
                        add: true,
                        pred,
                        tuple,
                    })
                    .collect(),
                None => resolved.into_iter().filter(|op| op.add).collect(),
            };
            return self.resume_monotone(program, guard, db, &strata, adds, stats, events, tracer);
        }

        let store = eprime.expect("retracting deltas are rejected without an extensional store");
        if negated || prior_log.is_none() {
            *rebuilt = true;
            self.reset_for_scratch(program, db, events);
            return self.solve_inner(
                program,
                guard,
                db,
                FactSource::Exact(store),
                stats,
                events,
                tracer,
            );
        }
        self.resume_retract(
            program,
            guard,
            db,
            &strata,
            store,
            removed,
            prior_log.expect("checked above"),
            stats,
            events,
            tracer,
        )
    }

    /// Resets the database (and event log, when recording) for a
    /// from-scratch fallback solve.
    fn reset_for_scratch(
        &self,
        program: &Program,
        db: &mut Database,
        events: &mut Option<Vec<Event>>,
    ) {
        *db = Database::for_program(program, self.config.use_indexes);
        if self.config.ascent.is_some() {
            db.enable_ascent();
        }
        if let Some(log) = events.as_mut() {
            log.clear();
        }
    }

    /// The warm monotone path: applies the insertions on top of the
    /// prior fixed point and re-runs exactly the strata a change can
    /// reach, seeding the semi-naïve worklist with the changed cells.
    #[allow(clippy::too_many_arguments)]
    fn resume_monotone(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        strata: &Strata,
        adds: Vec<ResolvedOp>,
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let npreds = program.num_predicates();

        // Apply the delta as extensional updates, tracking net changes
        // per predicate; already-subsumed entries are no-ops.
        let seed_start = tracer.now_ns();
        let mut pending: Vec<Vec<Row>> = vec![Vec::new(); npreds];
        let mut dirty = vec![false; npreds];
        for op in adds {
            let (pred, values) = (op.pred, op.tuple);
            match db
                .insert(pred, values.clone())
                .map_err(|fault| insert_fault_error(program, pred, None, fault))?
            {
                InsertOutcome::Unchanged => {}
                outcome => {
                    stats.facts_inserted += 1;
                    dirty[pred.0 as usize] = true;
                    if let InsertOutcome::LatIncrease(key, _) = &outcome {
                        self.check_ascent(program, db, pred, key);
                    }
                    accumulate_change(&mut pending, pred, &outcome);
                    if let Some(log) = events.as_mut() {
                        log.push(Event {
                            pred,
                            tuple: match &outcome {
                                // Log the joined cell value, as fact
                                // loading does via the insert outcome.
                                InsertOutcome::LatIncrease(key, value) => {
                                    let mut full = key.to_vec();
                                    full.push(value.clone());
                                    full
                                }
                                _ => values.clone(),
                            },
                            source: Source::Fact,
                        });
                    }
                }
            }
        }
        tracer.record(0, SpanKind::ResumeSeed, seed_start);

        // Compile the join kernels against the warm database, exactly as
        // a from-scratch solve would.
        let kernels = KernelSet::compile(program, db, &self.config);

        // Re-run exactly the strata a change can reach, in stratum
        // order. Stratification guarantees a stratum's body predicates
        // are final before it runs, so accumulating changes front to
        // back seeds every affected stratum with its complete delta.
        for (stratum, group) in strata.rule_groups.iter().enumerate() {
            let reads_dirty = group.iter().any(|&r| {
                program.rules[r]
                    .body
                    .iter()
                    .any(|item| matches!(item, CItem::Atom { pred, .. } if dirty[pred.0 as usize]))
            });
            if !reads_dirty {
                continue;
            }
            stats.strata += 1;
            stats.per_stratum.push(StratumStats {
                stratum,
                rounds: 0,
                delta_sizes: Vec::new(),
            });
            let mut changes: Vec<Vec<Row>> = vec![Vec::new(); npreds];
            let stratum_start = tracer.now_ns();
            let result = match self.config.strategy {
                Strategy::Naive => self.run_naive(
                    program,
                    guard,
                    db,
                    &kernels,
                    group,
                    stratum,
                    stats,
                    events,
                    Some(&mut changes),
                    tracer,
                ),
                Strategy::SemiNaive => {
                    let seed = seed_delta(program, db, group, &pending, npreds);
                    self.run_semi_naive_rounds(
                        program,
                        guard,
                        db,
                        &kernels,
                        group,
                        stratum,
                        npreds,
                        stats,
                        events,
                        seed,
                        Some(&mut changes),
                        tracer,
                    )
                }
            };
            tracer.record(0, SpanKind::Stratum { stratum }, stratum_start);
            result?;
            for (pred, rows) in changes.into_iter().enumerate() {
                if !rows.is_empty() {
                    dirty[pred] = true;
                    pending[pred].extend(rows);
                }
            }
        }
        Ok(())
    }

    /// The over-delete/re-derive path (DESIGN §16). Precondition: the
    /// prior event log is complete and no removal reaches a negated
    /// cone.
    ///
    /// Phase 1 walks the prior log once, forward. The log is a
    /// well-founded proof forest — premises are recorded before the
    /// conclusions they support — so a single pass computes the cone of
    /// consequences of the removed assertions: an event dies when its
    /// own fact was removed, when any positive premise matches an
    /// already-dead fact, or (for lattice cells, whose logged values are
    /// running joins) when any earlier event of the same cell died.
    ///
    /// Phase 2 rebuilds the database without the cone and re-asserts the
    /// updated store E′. Every survivor is justified by a chain of
    /// surviving events grounded in E′, so the result is ⊑ the target
    /// model — a sound under-approximation.
    ///
    /// Phase 3 re-runs the strata to the fixed point: strata whose rule
    /// heads lost facts re-evaluate fully (an over-deleted fact may have
    /// an alternative derivation the first-derivation-only log never
    /// recorded), the rest seed from net changes as in the monotone
    /// path. Iterating rules to quiescence from a sound
    /// under-approximation yields exactly the least fixed point over
    /// E′; lattice cells land on the lub of their surviving and
    /// re-derived justifications.
    #[allow(clippy::too_many_arguments)]
    fn resume_retract(
        &self,
        program: &Program,
        guard: &Guard<'_>,
        db: &mut Database,
        strata: &Strata,
        eprime: &[(PredId, Vec<Value>)],
        removed: &[(PredId, Vec<Value>)],
        prior_log: &[Event],
        stats: &mut SolveStats,
        events: &mut Option<Vec<Event>>,
        tracer: &Tracer,
    ) -> Result<(), SolveError> {
        let seed_start = tracer.now_ns();
        let npreds = program.num_predicates();
        let is_lat: Vec<bool> = program.predicates().map(|(_, d)| d.is_lattice()).collect();

        // Phase 1: taint the cone. `deleted` holds dead relational
        // tuples; `dead_cells` holds the keys of dead lattice cells (a
        // contaminated cell drops entirely — its clean prefix of
        // justifications survives in the kept log and re-derivation
        // restores their lub).
        let mut deleted: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); npreds];
        let mut dead_cells: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); npreds];
        for (pred, tuple) in removed {
            let p = pred.0 as usize;
            if is_lat[p] {
                dead_cells[p].insert(tuple[..tuple.len() - 1].to_vec());
            } else {
                deleted[p].insert(tuple.clone());
            }
        }
        let keep = events.is_some();
        let mut kept: Vec<Event> = Vec::new();
        for event in prior_log {
            let p = event.pred.0 as usize;
            let mut dead = if is_lat[p] {
                dead_cells[p].contains(&event.tuple[..event.tuple.len() - 1])
            } else {
                deleted[p].contains(event.tuple.as_slice())
            };
            if !dead {
                if let Source::Rule { premises, .. } = &event.source {
                    dead = premises.iter().any(|premise| {
                        let q = premise.pred.0 as usize;
                        if is_lat[q] {
                            key_pattern_hits(&premise.pattern, &dead_cells[q])
                        } else {
                            pattern_hits(&premise.pattern, &deleted[q])
                        }
                    });
                }
            }
            if dead {
                if is_lat[p] {
                    dead_cells[p].insert(event.tuple[..event.tuple.len() - 1].to_vec());
                } else {
                    deleted[p].insert(event.tuple.clone());
                }
            } else if keep {
                kept.push(event.clone());
            }
        }

        // Phase 2: rebuild without the cone, then re-assert E′. The
        // columnar store has no in-place deletion — rebuilding also
        // keeps the per-predicate indexes dense.
        let mut fresh = Database::for_program(program, self.config.use_indexes);
        if self.config.ascent.is_some() {
            fresh.enable_ascent();
        }
        for i in 0..npreds {
            let pred = PredId(i as u32);
            match db.pred(pred) {
                PredData::Rel(rel) => {
                    for row in rel.rows() {
                        if !deleted[i].is_empty() && deleted[i].contains(row) {
                            continue;
                        }
                        fresh
                            .insert(pred, row.to_vec())
                            .map_err(|fault| insert_fault_error(program, pred, None, fault))?;
                    }
                }
                PredData::Lat(lat) => {
                    for (key, cell) in lat.iter() {
                        if !dead_cells[i].is_empty() && dead_cells[i].contains(key) {
                            continue;
                        }
                        let mut tuple = key.to_vec();
                        tuple.push(cell.clone());
                        fresh
                            .insert(pred, tuple)
                            .map_err(|fault| insert_fault_error(program, pred, None, fault))?;
                    }
                }
            }
        }
        *db = fresh;
        if let Some(log) = events.as_mut() {
            *log = kept;
        }

        // Re-assert the updated store. Survivors absorb most of it;
        // net changes (restored assertions, and insertions the delta
        // carried alongside the removals) seed the re-derivation.
        let mut pending: Vec<Vec<Row>> = vec![Vec::new(); npreds];
        let mut dirty = vec![false; npreds];
        for (pred, values) in eprime {
            match db
                .insert(*pred, values.clone())
                .map_err(|fault| insert_fault_error(program, *pred, None, fault))?
            {
                InsertOutcome::Unchanged => {}
                outcome => {
                    stats.facts_inserted += 1;
                    dirty[pred.0 as usize] = true;
                    if let InsertOutcome::LatIncrease(key, _) = &outcome {
                        self.check_ascent(program, db, *pred, key);
                    }
                    accumulate_change(&mut pending, *pred, &outcome);
                    if let Some(log) = events.as_mut() {
                        log.push(Event {
                            pred: *pred,
                            tuple: match &outcome {
                                InsertOutcome::LatIncrease(key, value) => {
                                    let mut full = key.to_vec();
                                    full.push(value.clone());
                                    full
                                }
                                _ => values.clone(),
                            },
                            source: Source::Fact,
                        });
                    }
                }
            }
        }
        tracer.record(0, SpanKind::ResumeSeed, seed_start);

        let kernels = KernelSet::compile(program, db, &self.config);

        // Phase 3: re-run the strata. A stratum re-evaluates fully when
        // any of its rule heads lost facts (the log records only first
        // derivations, so an over-deleted fact may be restorable through
        // a derivation no event witnesses); otherwise the monotone
        // change-seeded path applies.
        let mut del_dirty = vec![false; npreds];
        for i in 0..npreds {
            del_dirty[i] = !deleted[i].is_empty() || !dead_cells[i].is_empty();
        }
        for (stratum, group) in strata.rule_groups.iter().enumerate() {
            let heads_deleted = group
                .iter()
                .any(|&r| del_dirty[program.rules[r].head_pred.0 as usize]);
            let reads_dirty = group.iter().any(|&r| {
                program.rules[r]
                    .body
                    .iter()
                    .any(|item| matches!(item, CItem::Atom { pred, .. } if dirty[pred.0 as usize]))
            });
            if !heads_deleted && !reads_dirty {
                continue;
            }
            stats.strata += 1;
            stats.per_stratum.push(StratumStats {
                stratum,
                rounds: 0,
                delta_sizes: Vec::new(),
            });
            let mut changes: Vec<Vec<Row>> = vec![Vec::new(); npreds];
            let stratum_start = tracer.now_ns();
            // Full re-evaluation needs every rule to have a delta
            // variant to hang its first full join on; a (degenerate)
            // rule without positive body atoms falls back to the naïve
            // loop for the stratum.
            let seminaive_covers = group
                .iter()
                .all(|&r| !program.rules[r].delta_variants.is_empty());
            let result = match self.config.strategy {
                Strategy::SemiNaive if !heads_deleted || seminaive_covers => {
                    let seed = if heads_deleted {
                        full_seed(program, db, group, npreds)
                    } else {
                        seed_delta(program, db, group, &pending, npreds)
                    };
                    self.run_semi_naive_rounds(
                        program,
                        guard,
                        db,
                        &kernels,
                        group,
                        stratum,
                        npreds,
                        stats,
                        events,
                        seed,
                        Some(&mut changes),
                        tracer,
                    )
                }
                _ => self.run_naive(
                    program,
                    guard,
                    db,
                    &kernels,
                    group,
                    stratum,
                    stats,
                    events,
                    Some(&mut changes),
                    tracer,
                ),
            };
            tracer.record(0, SpanKind::Stratum { stratum }, stratum_start);
            result?;
            for (pred, rows) in changes.into_iter().enumerate() {
                if !rows.is_empty() {
                    dirty[pred] = true;
                    pending[pred].extend(rows);
                }
            }
        }
        Ok(())
    }
}

/// Checks that `prior` was solved over (a program shaped exactly like)
/// `program`: same predicate names resolving to the same ids, same
/// kinds. Facts and rules need not match — that is the point of a
/// resume — but the predicate layout must, since the prior database is
/// reused positionally.
fn check_prior(program: &Program, prior: &Solution) -> Result<(), DeltaError> {
    if prior.num_predicates() != program.num_predicates() {
        return Err(DeltaError::SolutionMismatch);
    }
    for (pred, decl) in program.predicates() {
        if prior.predicate(decl.name()) != Some(pred)
            || prior.is_lattice(decl.name()) != Some(decl.is_lattice())
        {
            return Err(DeltaError::SolutionMismatch);
        }
    }
    Ok(())
}

impl Program {
    /// Returns a copy of this program with the delta applied to its
    /// facts — the program whose model [`Solver::resume`] computes when
    /// handed the same delta: inserts and raises append, retracts and
    /// lowers remove every matching asserted fact.
    ///
    /// This is the bridge between the incremental and the demand
    /// subsystems: after a delta arrives, point queries against the
    /// updated world are answered by
    /// [`Solver::solve_query`](crate::demand) on `with_delta(&delta)` —
    /// demand-restricted *and* reflecting the update, without ever
    /// materializing the full updated model.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownPredicate`] / [`DeltaError::ArityMismatch`]
    /// if the delta does not fit this program's declarations.
    pub fn with_delta(&self, delta: &Delta) -> Result<Program, DeltaError> {
        let ops = resolve_delta(self, delta)?;
        let mut facts = self.facts.clone();
        for op in ops {
            if op.add {
                if !facts.iter().any(|(p, t)| *p == op.pred && *t == op.tuple) {
                    facts.push((op.pred, op.tuple));
                }
            } else {
                facts.retain(|(p, t)| !(*p == op.pred && *t == op.tuple));
            }
        }
        Ok(Program {
            preds: self.preds.clone(),
            pred_names: self.pred_names.clone(),
            funcs: self.funcs.clone(),
            rules: self.rules.clone(),
            facts,
            index_requests: self.index_requests.clone(),
        })
    }
}

/// Resolves a name-based delta against the program's declarations,
/// checking arities and normalizing the lattice op forms to full
/// key-plus-element tuples.
fn resolve_delta(program: &Program, delta: &Delta) -> Result<Vec<ResolvedOp>, DeltaError> {
    let mut resolved = Vec::with_capacity(delta.len());
    for op in delta.ops() {
        let (name, add) = match op {
            DeltaOp::Insert { predicate, .. } | DeltaOp::Raise { predicate, .. } => {
                (predicate, true)
            }
            DeltaOp::Retract { predicate, .. } | DeltaOp::Lower { predicate, .. } => {
                (predicate, false)
            }
        };
        let Some((pred, decl)) = program
            .predicates()
            .find(|(_, d)| d.name() == name.as_str())
        else {
            return Err(DeltaError::UnknownPredicate {
                predicate: name.clone(),
            });
        };
        let tuple: Vec<Value> = match op {
            DeltaOp::Insert { tuple, .. } | DeltaOp::Retract { tuple, .. } => tuple.clone(),
            DeltaOp::Raise { key, element, .. } | DeltaOp::Lower { key, element, .. } => {
                let mut full = key.clone();
                full.push(element.clone());
                full
            }
        };
        if tuple.len() != decl.arity() {
            return Err(DeltaError::ArityMismatch {
                predicate: name.clone(),
                declared: decl.arity(),
                found: tuple.len(),
            });
        }
        resolved.push(ResolvedOp { add, pred, tuple });
    }
    Ok(resolved)
}

/// Applies the ops, in order, to the extensional store `base`. Returns
/// the updated store E′ (order-preserving; re-adds land at the end), the
/// assertions with a *net* removal — present in `base`, absent from
/// E′ — deduplicated, and the assertions with a *net* addition — added
/// by the ops and still live in E′. Removing an assertion not currently
/// in the store is a no-op, so retract-then-reinsert within one delta
/// produces no net removal and no over-deletion work; symmetrically, an
/// insertion cancelled by a later retraction of the same tuple produces
/// no net addition and must not seed the warm paths.
#[allow(clippy::type_complexity)]
fn apply_ops(
    base: &[(PredId, Vec<Value>)],
    ops: &[ResolvedOp],
) -> (
    Vec<(PredId, Vec<Value>)>,
    Vec<(PredId, Vec<Value>)>,
    Vec<(PredId, Vec<Value>)>,
) {
    let mut entries: Vec<(PredId, Vec<Value>)> = base.to_vec();
    let mut alive = vec![true; entries.len()];
    // Indices of the currently-live copies of each assertion (the base
    // store may hold duplicates).
    let mut live: HashMap<(PredId, Vec<Value>), Vec<usize>> = HashMap::new();
    for (i, entry) in entries.iter().enumerate() {
        live.entry(entry.clone()).or_default().push(i);
    }
    for op in ops {
        let key = (op.pred, op.tuple.clone());
        if op.add {
            let slot = live.entry(key).or_default();
            if slot.is_empty() {
                entries.push((op.pred, op.tuple.clone()));
                alive.push(true);
                slot.push(entries.len() - 1);
            }
        } else if let Some(slot) = live.get_mut(&key) {
            for i in slot.drain(..) {
                alive[i] = false;
            }
        }
    }
    let mut removed = Vec::new();
    let mut seen: HashSet<&(PredId, Vec<Value>)> = HashSet::new();
    for entry in base {
        let gone = live.get(entry).is_none_or(|slot| slot.is_empty());
        if gone && seen.insert(entry) {
            removed.push(entry.clone());
        }
    }
    // Net additions: entries the ops pushed (index past the base) that
    // survived every later op. A push happens only while no live copy of
    // the key exists, so at most one pushed copy per key is alive and no
    // deduplication is needed.
    let added = entries
        .iter()
        .zip(&alive)
        .skip(base.len())
        .filter(|(_, alive)| **alive)
        .map(|(entry, _)| entry.clone())
        .collect();
    let eprime = entries
        .into_iter()
        .zip(alive)
        .filter(|(_, alive)| *alive)
        .map(|(entry, _)| entry)
        .collect();
    (eprime, removed, added)
}

/// Conservative check for the negation fallback: transitively closes the
/// delta-touched predicate set over rule dependencies (a rule whose body
/// reads a dirty predicate dirties its head) and reports whether any
/// negated body atom reads a dirty predicate.
fn negation_reaches(program: &Program, delta_preds: &[bool]) -> bool {
    let mut dirty = delta_preds.to_vec();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if dirty[rule.head_pred.0 as usize] {
                continue;
            }
            let reads = rule.body.iter().any(|item| match item {
                CItem::Atom { pred, .. } | CItem::NegAtom { pred, .. } => dirty[pred.0 as usize],
                _ => false,
            });
            if reads {
                dirty[rule.head_pred.0 as usize] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    program.rules.iter().any(|rule| {
        rule.body
            .iter()
            .any(|item| matches!(item, CItem::NegAtom { pred, .. } if dirty[pred.0 as usize]))
    })
}

/// Builds the warm-start `∆` for one stratum: the pending changes of
/// every predicate the stratum's rules read positively. Relational rows
/// pass through as-is; lattice keys are deduplicated and re-read from
/// the database so the delta row carries the *current* cell value
/// (intermediate values a cell climbed through in earlier strata must
/// not leak into this stratum's witnesses — a from-scratch solve would
/// only ever see the settled value).
fn seed_delta(
    program: &Program,
    db: &Database,
    group: &[usize],
    pending: &[Vec<Row>],
    npreds: usize,
) -> Vec<Vec<Row>> {
    let mut read_preds = vec![false; npreds];
    for &r in group {
        for item in &program.rules[r].body {
            if let CItem::Atom { pred, .. } = item {
                read_preds[pred.0 as usize] = true;
            }
        }
    }
    let mut seed: Vec<Vec<Row>> = vec![Vec::new(); npreds];
    for (pred, rows) in pending.iter().enumerate() {
        if !read_preds[pred] || rows.is_empty() {
            continue;
        }
        match db.pred(PredId(pred as u32)) {
            PredData::Rel(_) => seed[pred] = rows.clone(),
            PredData::Lat(lat) => {
                let mut seen: HashSet<&[Value]> = HashSet::new();
                for row in rows {
                    let key = &row[..row.len() - 1];
                    if !seen.insert(key) {
                        continue;
                    }
                    let value = lat
                        .value(key, db.spill())
                        .expect("pending lattice key has a stored cell");
                    let mut full = key.to_vec();
                    full.push(value.clone());
                    seed[pred].push(full.into());
                }
            }
        }
    }
    seed
}

/// Builds a full re-evaluation `∆` for one stratum: the complete current
/// contents of the *first* delta-variant predicate of each rule. One
/// variant with a full delta joins against full relations everywhere
/// else, so every rule is evaluated completely in the first round;
/// subsequent rounds proceed semi-naïvely over genuine changes.
fn full_seed(program: &Program, db: &Database, group: &[usize], npreds: usize) -> Vec<Vec<Row>> {
    let mut want = vec![false; npreds];
    for &r in group {
        if let Some((pred, _)) = program.rules[r].delta_variants.first() {
            want[pred.0 as usize] = true;
        }
    }
    let mut seed: Vec<Vec<Row>> = vec![Vec::new(); npreds];
    for (pred, wanted) in want.iter().enumerate() {
        if !*wanted {
            continue;
        }
        match db.pred(PredId(pred as u32)) {
            PredData::Rel(rel) => {
                seed[pred] = rel.rows().map(|row| Row::from(row.to_vec())).collect();
            }
            PredData::Lat(lat) => {
                for (key, cell) in lat.iter() {
                    let mut full = key.to_vec();
                    full.push(cell.clone());
                    seed[pred].push(full.into());
                }
            }
        }
    }
    seed
}

/// Does any tuple in `set` match the (possibly wildcarded) premise
/// pattern? Ground patterns are a hash lookup; wildcards scan.
fn pattern_hits(pattern: &[Option<Value>], set: &HashSet<Vec<Value>>) -> bool {
    if set.is_empty() {
        return false;
    }
    if pattern.iter().all(|col| col.is_some()) {
        let tuple: Vec<Value> = pattern.iter().map(|col| col.clone().unwrap()).collect();
        return set.contains(&tuple);
    }
    set.iter().any(|tuple| pattern_matches(pattern, tuple))
}

/// Does any lattice *key* in `keys` match the key columns of the
/// premise pattern? The pattern spans the full tuple (key plus
/// element); the element column is ignored — any event of a dead cell
/// contaminates its consumers regardless of the value read.
fn key_pattern_hits(pattern: &[Option<Value>], keys: &HashSet<Vec<Value>>) -> bool {
    if keys.is_empty() {
        return false;
    }
    let key_pat = &pattern[..pattern.len() - 1];
    if key_pat.iter().all(|col| col.is_some()) {
        let key: Vec<Value> = key_pat.iter().map(|col| col.clone().unwrap()).collect();
        return keys.contains(&key);
    }
    keys.iter().any(|key| pattern_matches(key_pat, key))
}
