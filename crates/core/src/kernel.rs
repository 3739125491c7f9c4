//! Specialized join kernels: per-rule join plans compiled once per solve
//! and executed by a tight interpreter over the *encoded* columns of the
//! columnar fact store. This is the solver's one evaluator of the
//! immediate-consequence operator: every rule body, every strategy, and
//! every configuration (provenance recording included) runs through it.
//!
//! Interpreting a rule body per tuple — cloning [`Value`]s into an
//! environment, unifying with dynamic dispatch over term shapes, and
//! allocating a fresh probe key per index lookup — spends almost all of
//! a fixpoint's time in the join loops. A [`Plan`] moves every decision
//! that does not depend on the data out of the loop:
//!
//! * **boundness is static** — which variables are bound at each body
//!   position follows from the scheduled body order, so each atom
//!   compiles to exactly one access step (ground membership test, index
//!   probe, scan, or delta iteration) with a fixed op list per row;
//! * **values are single words** — relational columns and lattice *key*
//!   columns compare as encoded `u64` slots (see [`crate::database`]),
//!   so a join key is a handful of word moves, not `Value` clones;
//! * **lattice elements stay boxed** — cell values flow through the
//!   `leq`/`glb` lattice operations, so the glb-matching semantics of
//!   §3.2 are untouched; choice-bound variables are boxed too, since a
//!   chosen value need not be stored anywhere yet;
//! * **negation is a compiled test** — a fully ground negated relation
//!   atom is one encoded membership test, a negated lattice atom with a
//!   ground key one cell lookup plus the §3.2 value match; only atoms
//!   with wildcard columns scan;
//! * **provenance is a template** — each plan carries the positive body
//!   atoms as a premise template, instantiated at emit time only when the
//!   solve records provenance;
//! * **subsumed derivations are suppressed at the emit site** — a head
//!   tuple the database already contains (or whose lattice candidate is
//!   `⊑` its stored cell) would be materialized, re-encoded, and dropped
//!   as `Unchanged` by the insert loop; the kernel checks membership on
//!   the already-encoded columns and skips the allocation round trip.
//!   Suppressed tuples are still counted as derived, head functions are
//!   still applied (panic parity), and the check is skipped for lattice
//!   heads when ascent telemetry is on (a subsumed join must count on
//!   its cell).
//!
//! Iteration order is fixed (insertion-order scans, insertion-order probe
//! hits, body order nesting), so solutions, statistics, traces, provenance
//! logs, and snapshot bytes are deterministic. The oracle the test suites
//! compare against is [`crate::model::reference_lfp`], a separate
//! nested-loop T_P that shares none of this code.

use crate::database::{decode, try_encode, Database, PredData, Row};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::guard::{panic_payload, EvalGuard};
use crate::ops::OpsPanic;
use crate::program::{CHead, CItem, CRule, CTerm, Program};
use crate::provenance::Premise;
use crate::solver::{Derived, EvalCounters, EvalFault, Payload, SolverConfig, ENC_KEY};
use crate::verify::Violation;
use crate::{LatticeOps, PredId, Value};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One component of an encoded probe or membership key.
#[derive(Clone, Debug)]
enum KeySrc {
    /// A literal, pre-encoded at compile time (interned/spilled, so the
    /// encoding stays canonical for the rest of the solve).
    Lit(u64),
    /// An encoded variable register.
    Slot(usize),
    /// A boxed variable register, encoded at probe time. Encoding can
    /// fail when the value was never stored — then the key matches
    /// nothing.
    Boxed(usize),
}

/// One per-row column op, applied in column order. `Bind` before any
/// `CheckSlot` of the same slot within one atom (first occurrence binds).
#[derive(Clone, Debug)]
enum RowOp {
    /// Column must equal a pre-encoded literal.
    CheckLit { col: usize, enc: u64 },
    /// Column must equal an encoded register.
    CheckSlot { col: usize, slot: usize },
    /// Column must equal a boxed register (compared via encoding for
    /// stored rows, by value for decoded delta rows).
    CheckBoxed { col: usize, slot: usize },
    /// First occurrence of an encoded variable: bind the register.
    Bind { col: usize, slot: usize },
    /// First occurrence of a boxed variable: clone the decoded value.
    BindBoxed { col: usize, slot: usize },
}

/// How the value column of a lattice atom is matched — the glb-matching
/// semantics of §3.2, compiled.
#[derive(Clone, Debug)]
enum ValSpec {
    /// Wildcard: any cell matches.
    Wild,
    /// Literal `l`: matches when `l ⊑ cell`.
    Lit(Value),
    /// Unbound variable: binds to the cell (the greatest witness).
    Bind(usize),
    /// Bound variable `w`: rebinds to `w ⊓ cell` unless that is `⊥`.
    /// The rebind is restored after the sub-join returns.
    Meet(usize),
}

/// A function-argument source (filters, choices, head applications, and
/// premise columns).
#[derive(Clone, Debug)]
enum ArgSrc {
    Lit(Value),
    Slot(usize),
    Boxed(usize),
}

/// A head-column source. Literals carry their compile-time encoding so
/// the emit-side membership pre-check never re-interns them.
#[derive(Clone, Debug)]
enum HeadSrc {
    Lit(Value, u64),
    Slot(usize),
    Boxed(usize),
    App(usize, Vec<ArgSrc>),
}

/// One step of a compiled body. Atom steps carry their whole access
/// strategy and its counter behaviour: ground tests, negations, and delta
/// iteration count nothing, probes count one probe per visit, scans count
/// one fallback per visit when an index was wanted.
#[derive(Clone, Debug)]
enum Step {
    /// Fully ground relational atom: a membership test.
    RelGround { pred: PredId, key: Vec<KeySrc> },
    /// Index probe on `cols`; `ops` match the remaining columns.
    RelProbe {
        pred: PredId,
        cols: Vec<usize>,
        key: Vec<KeySrc>,
        ops: Vec<RowOp>,
    },
    /// Full scan; `count` is set when an index was wanted but missing.
    RelScan {
        pred: PredId,
        ops: Vec<RowOp>,
        count: bool,
    },
    /// The delta atom of a semi-naïve variant: iterate `∆pred`.
    RelDelta { pred: PredId, ops: Vec<RowOp> },
    /// Lattice atom with a fully ground key: one cell lookup.
    LatGround {
        pred: PredId,
        key: Vec<KeySrc>,
        val: ValSpec,
    },
    /// Lattice key-column index probe.
    LatProbe {
        pred: PredId,
        cols: Vec<usize>,
        key: Vec<KeySrc>,
        ops: Vec<RowOp>,
        val: ValSpec,
    },
    /// Lattice cell scan.
    LatScan {
        pred: PredId,
        ops: Vec<RowOp>,
        val: ValSpec,
        count: bool,
    },
    /// The delta atom of a lattice variant: rows are key columns plus the
    /// new cell value.
    LatDelta {
        pred: PredId,
        ops: Vec<RowOp>,
        val: ValSpec,
    },
    /// A boolean filter function over bound arguments.
    Filter { func: usize, args: Vec<ArgSrc> },
    /// A negated atom: continue only when no stored fact matches. `val`
    /// is the lattice value test ([`ValSpec::Wild`] for relations).
    Negate {
        pred: PredId,
        test: NegTest,
        val: ValSpec,
    },
    /// A choice binding: iterate the `Set` the function returns, matching
    /// each element (or, for several `binds`, each tuple element's
    /// components) against boxed registers. A `(slot, false)` bind binds
    /// the register; a `(slot, true)` bind finds it already bound (a
    /// delta variant may bind it earlier) and only continues on equality,
    /// since `x <- f(..)` means `x ∈ f(..)` whatever the body order.
    Choose {
        func: usize,
        args: Vec<ArgSrc>,
        binds: Vec<(usize, bool)>,
    },
}

/// How a negated atom looks for a matching fact. Every variable of a
/// negated atom is bound (validated at build time), so only wildcards
/// decide between the two.
#[derive(Clone, Debug)]
enum NegTest {
    /// Every (key) column ground: one encoded membership test or cell
    /// lookup.
    Ground(Vec<KeySrc>),
    /// Wildcard columns remain: scan with check-only row ops.
    Scan(Vec<RowOp>),
}

/// A compiled join plan for one (rule, variant) body.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    steps: Vec<Step>,
    head_pred: PredId,
    head: Vec<HeadSrc>,
    num_slots: usize,
    /// Suppress derivations the database already subsumes at emit time
    /// instead of materializing them for the insert loop (they would be
    /// dropped there as `Unchanged`). Off for lattice heads when ascent
    /// telemetry is on — a subsumed join must still count on its cell.
    precheck: bool,
    /// Lattice head whose key fits the inline encoded width: emit may
    /// hand the insert loop a [`Payload::LatEnc`] instead of a
    /// materialized tuple, skipping decode + re-encode round trips.
    lat_enc: bool,
    /// The positive body atoms as premise patterns (`None` columns are
    /// wildcards), present only when the solve records provenance.
    premises: Option<Vec<(PredId, Vec<Option<ArgSrc>>)>>,
}

/// The compiled plans of a whole program: `plans[rule]` holds the full
/// body's plan plus one per delta variant.
pub(crate) struct KernelSet {
    plans: Vec<RulePlans>,
}

struct RulePlans {
    full: Plan,
    variants: Vec<Plan>,
}

impl KernelSet {
    /// Compiles a plan for every rule body under `config`. Takes the
    /// database mutably to encode literals up front (interning them, so
    /// their encodings stay valid as the store grows).
    pub(crate) fn compile(
        program: &Program,
        db: &mut Database,
        config: &SolverConfig,
    ) -> KernelSet {
        let plans = program
            .rules
            .iter()
            .map(|rule| RulePlans {
                full: compile_body(program, db, rule, &rule.body, false, config),
                variants: rule
                    .delta_variants
                    .iter()
                    .map(|(_, body)| compile_body(program, db, rule, body, true, config))
                    .collect(),
            })
            .collect();
        KernelSet { plans }
    }

    /// The plan for a rule evaluation: the full body, or a delta variant.
    pub(crate) fn plan(&self, rule: usize, variant: Option<usize>) -> &Plan {
        let entry = &self.plans[rule];
        match variant {
            None => &entry.full,
            Some(vi) => &entry.variants[vi],
        }
    }
}

/// Compiles one body into a [`Plan`].
fn compile_body(
    program: &Program,
    db: &mut Database,
    rule: &CRule,
    body: &[CItem],
    delta_first: bool,
    config: &SolverConfig,
) -> Plan {
    // A slot is boxed iff it ever stands in a lattice *value* position in
    // this body (there it must flow through leq/glb as a Value) or is
    // bound by a choice (the chosen value need not be stored, so it may
    // have no encoding). All other slots live as encoded words.
    let mut boxed_class: HashSet<usize> = HashSet::new();
    for item in body {
        match item {
            CItem::Atom { pred, terms, .. } | CItem::NegAtom { pred, terms }
                if program.decl(*pred).is_lattice() =>
            {
                if let Some(CTerm::Var(slot)) = terms.last() {
                    boxed_class.insert(*slot);
                }
            }
            CItem::Choose { binds, .. } => boxed_class.extend(binds.iter().copied()),
            _ => {}
        }
    }

    let mut steps = Vec::with_capacity(body.len());
    let mut bound: HashSet<usize> = HashSet::new();
    for (idx, item) in body.iter().enumerate() {
        match item {
            CItem::Atom {
                pred,
                terms,
                index_cols,
            } => {
                let decl = program.decl(*pred);
                let is_lat = decl.is_lattice();
                let ncols = if is_lat { terms.len() - 1 } else { terms.len() };

                // The value spec is resolved before the key ops mark the
                // atom's variables bound — but a value variable first
                // bound by this atom's *own* key columns is bound by the
                // time the value is matched, so account for that below.
                let key_binds: HashSet<usize> = terms[..ncols]
                    .iter()
                    .filter_map(|t| match t {
                        CTerm::Var(slot) if !bound.contains(slot) => Some(*slot),
                        _ => None,
                    })
                    .collect();
                let val = if is_lat {
                    match terms.last().expect("lattice arity >= 1") {
                        CTerm::Wild => ValSpec::Wild,
                        CTerm::Lit(v) => ValSpec::Lit(v.clone()),
                        CTerm::Var(slot) => {
                            if bound.contains(slot) || key_binds.contains(slot) {
                                ValSpec::Meet(*slot)
                            } else {
                                ValSpec::Bind(*slot)
                            }
                        }
                    }
                } else {
                    ValSpec::Wild // unused for relations
                };

                let is_delta = delta_first && idx == 0;
                let step = if is_delta {
                    let ops = row_ops(terms, ncols, &[], &bound, &boxed_class, db);
                    if is_lat {
                        Step::LatDelta {
                            pred: *pred,
                            ops,
                            val,
                        }
                    } else {
                        Step::RelDelta { pred: *pred, ops }
                    }
                } else if index_cols.len() == ncols {
                    // Every (key) column ground: membership / cell lookup.
                    let key = key_srcs(terms, index_cols, &boxed_class, db);
                    if is_lat {
                        Step::LatGround {
                            pred: *pred,
                            key,
                            val,
                        }
                    } else {
                        Step::RelGround { pred: *pred, key }
                    }
                } else {
                    let has_index = !index_cols.is_empty()
                        && match db.pred(*pred) {
                            PredData::Rel(r) => r.has_index(index_cols),
                            PredData::Lat(l) => l.has_index(index_cols),
                        };
                    if has_index {
                        let key = key_srcs(terms, index_cols, &boxed_class, db);
                        let ops = row_ops(terms, ncols, index_cols, &bound, &boxed_class, db);
                        if is_lat {
                            Step::LatProbe {
                                pred: *pred,
                                cols: index_cols.clone(),
                                key,
                                ops,
                                val,
                            }
                        } else {
                            Step::RelProbe {
                                pred: *pred,
                                cols: index_cols.clone(),
                                key,
                                ops,
                            }
                        }
                    } else {
                        let count = !index_cols.is_empty();
                        let ops = row_ops(terms, ncols, &[], &bound, &boxed_class, db);
                        if is_lat {
                            Step::LatScan {
                                pred: *pred,
                                ops,
                                val,
                                count,
                            }
                        } else {
                            Step::RelScan {
                                pred: *pred,
                                ops,
                                count,
                            }
                        }
                    }
                };
                steps.push(step);
                for t in terms {
                    if let CTerm::Var(slot) = t {
                        bound.insert(*slot);
                    }
                }
            }
            CItem::Filter { func, args } => {
                steps.push(Step::Filter {
                    func: *func,
                    args: arg_srcs(args, &boxed_class),
                });
            }
            CItem::NegAtom { pred, terms } => {
                let is_lat = program.decl(*pred).is_lattice();
                let ncols = if is_lat { terms.len() - 1 } else { terms.len() };
                let val = match terms.last() {
                    Some(CTerm::Lit(v)) if is_lat => ValSpec::Lit(v.clone()),
                    Some(CTerm::Var(slot)) if is_lat => ValSpec::Meet(*slot),
                    _ => ValSpec::Wild,
                };
                let ground: Vec<usize> = (0..ncols)
                    .filter(|&col| !matches!(terms[col], CTerm::Wild))
                    .collect();
                let test = if ground.len() == ncols {
                    NegTest::Ground(key_srcs(terms, &ground, &boxed_class, db))
                } else {
                    NegTest::Scan(row_ops(terms, ncols, &[], &bound, &boxed_class, db))
                };
                steps.push(Step::Negate {
                    pred: *pred,
                    test,
                    val,
                });
            }
            CItem::Choose { func, args, binds } => {
                let binds = binds
                    .iter()
                    .map(|&slot| (slot, !bound.insert(slot)))
                    .collect();
                steps.push(Step::Choose {
                    func: *func,
                    args: arg_srcs(args, &boxed_class),
                    binds,
                });
            }
        }
    }

    let head = rule
        .head
        .iter()
        .map(|h| match h {
            CHead::Lit(v) => HeadSrc::Lit(v.clone(), db.encode_literal(v)),
            CHead::Var(slot) if boxed_class.contains(slot) => HeadSrc::Boxed(*slot),
            CHead::Var(slot) => HeadSrc::Slot(*slot),
            CHead::App(func, args) => HeadSrc::App(*func, arg_srcs(args, &boxed_class)),
        })
        .collect::<Vec<_>>();

    // Provenance: the positive atoms, instantiated at emit time.
    let premises = config.record_provenance.then(|| {
        body.iter()
            .filter_map(|item| match item {
                CItem::Atom { pred, terms, .. } => Some((
                    *pred,
                    terms
                        .iter()
                        .map(|t| match t {
                            CTerm::Wild => None,
                            t => Some(arg_src(t, &boxed_class)),
                        })
                        .collect(),
                )),
                _ => None,
            })
            .collect()
    });

    let is_lattice = program.decl(rule.head_pred).is_lattice();
    let lat_enc = is_lattice && head.len() - 1 <= ENC_KEY;
    Plan {
        steps,
        head_pred: rule.head_pred,
        head,
        num_slots: rule.num_vars,
        // A subsumed join still counts on its cell under ascent telemetry.
        precheck: config.ascent.is_none() || !is_lattice,
        lat_enc,
        premises,
    }
}

/// Compiles the probe-key sources for `index_cols` (all of which are
/// literals or bound variables, by construction).
fn key_srcs(
    terms: &[CTerm],
    index_cols: &[usize],
    boxed_class: &HashSet<usize>,
    db: &mut Database,
) -> Vec<KeySrc> {
    index_cols
        .iter()
        .map(|&col| match &terms[col] {
            CTerm::Lit(v) => KeySrc::Lit(db.encode_literal(v)),
            CTerm::Var(slot) if boxed_class.contains(slot) => KeySrc::Boxed(*slot),
            CTerm::Var(slot) => KeySrc::Slot(*slot),
            CTerm::Wild => unreachable!("index columns are never wildcards"),
        })
        .collect()
}

/// Compiles the per-row ops for the columns of one atom that are not
/// covered by the probe key (`skip`), in column order.
fn row_ops(
    terms: &[CTerm],
    ncols: usize,
    skip: &[usize],
    bound: &HashSet<usize>,
    boxed_class: &HashSet<usize>,
    db: &mut Database,
) -> Vec<RowOp> {
    let mut ops = Vec::new();
    let mut atom_bound: HashSet<usize> = HashSet::new();
    for (col, t) in terms.iter().enumerate().take(ncols) {
        if skip.contains(&col) {
            // Key columns still bind their variables for repeated
            // occurrences *within* the atom; those later occurrences are
            // also in the key (bound), so nothing to do here.
            if let CTerm::Var(slot) = t {
                atom_bound.insert(*slot);
            }
            continue;
        }
        match t {
            CTerm::Wild => {}
            CTerm::Lit(v) => ops.push(RowOp::CheckLit {
                col,
                enc: db.encode_literal(v),
            }),
            CTerm::Var(slot) => {
                let is_bound = bound.contains(slot) || atom_bound.contains(slot);
                let is_boxed = boxed_class.contains(slot);
                ops.push(match (is_bound, is_boxed) {
                    (true, true) => RowOp::CheckBoxed { col, slot: *slot },
                    (true, false) => RowOp::CheckSlot { col, slot: *slot },
                    (false, true) => RowOp::BindBoxed { col, slot: *slot },
                    (false, false) => RowOp::Bind { col, slot: *slot },
                });
                atom_bound.insert(*slot);
            }
        }
    }
    ops
}

fn arg_src(term: &CTerm, boxed_class: &HashSet<usize>) -> ArgSrc {
    match term {
        CTerm::Lit(v) => ArgSrc::Lit(v.clone()),
        CTerm::Var(slot) if boxed_class.contains(slot) => ArgSrc::Boxed(*slot),
        CTerm::Var(slot) => ArgSrc::Slot(*slot),
        CTerm::Wild => unreachable!("ProgramBuilder::build rejects wildcard arguments"),
    }
}

fn arg_srcs(args: &[CTerm], boxed_class: &HashSet<usize>) -> Vec<ArgSrc> {
    args.iter().map(|t| arg_src(t, boxed_class)).collect()
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

/// The mutable state of one plan execution: the variable registers
/// (encoded words for join variables, boxed values for lattice-element
/// variables), the reusable key buffer, and the thread-local counters.
struct State<'a, 'o> {
    program: &'a Program,
    db: &'a Database,
    delta: &'a [Vec<Row>],
    guard: &'a EvalGuard<'a>,
    rule: usize,
    enc: Vec<u64>,
    boxed: Vec<Option<Value>>,
    /// Reused for probe keys; never held across a recursive call.
    key_buf: Vec<u64>,
    /// Reused for the head's computed function applications per emit.
    app_buf: Vec<Value>,
    /// Reused for function-call arguments (filters and applications).
    args_buf: Vec<Value>,
    out: &'o mut Vec<Derived>,
    probes: u64,
    scans: u64,
    /// Derivations suppressed by the emit-side subsumption pre-check;
    /// they still count as derived in the statistics.
    suppressed: u64,
    /// Relational head rows already emitted by this plan execution. A
    /// repeat is guaranteed `Unchanged` at insert time — the earlier
    /// copy sits before it in the output — so it is suppressed too.
    /// Keys are zero-padded to [`SHADOW_KEY`] slots so entries stay
    /// allocation-free; wider heads skip the shadow (suppression is an
    /// optimization — the insert loop handles whatever flows).
    shadow_rows: FxHashSet<[u64; SHADOW_KEY]>,
    /// Per-key least upper bound of the lattice head cells this plan
    /// execution has emitted, seeded with the stored cell. Everything
    /// folded into a shadow cell is processed by the insert loop before
    /// any later candidate, so `cand ⊑ shadow` implies the insert would
    /// be `Unchanged` and the candidate can be suppressed. The `u32` is
    /// the cell's row id ([`NO_ID`] while the cell is not stored yet),
    /// captured so flowing candidates can skip the insert-side lookup.
    shadow_cells: FxHashMap<[u64; SHADOW_KEY], (u32, Value)>,
    /// Row id of the lattice cell the last `is_subsumed` call resolved
    /// ([`NO_ID`] when unknown); lets `emit` address the insert directly
    /// at the cell. Ids are append-only, so a resolved id stays valid.
    lat_hit_id: u32,
    fault: Option<EvalFault>,
}

/// Sentinel for "cell id unknown" on the encoded lattice fast path.
pub(crate) const NO_ID: u32 = u32::MAX;

/// Width of the inline shadow-table keys: covers every head up to this
/// many encoded columns (lattice heads: key columns) without per-entry
/// allocation. Shared with [`Payload::LatEnc`] so a key that fits the
/// shadow also fits the encoded emit path.
const SHADOW_KEY: usize = ENC_KEY;

/// Zero-pads an encoded key into an inline shadow key. `None` when the
/// key is too wide for the inline representation.
#[inline]
fn shadow_key(enc: &[u64]) -> Option<[u64; SHADOW_KEY]> {
    if enc.len() > SHADOW_KEY {
        return None;
    }
    let mut key = [0u64; SHADOW_KEY];
    key[..enc.len()].copy_from_slice(enc);
    Some(key)
}

impl State<'_, '_> {
    fn fail(&mut self, fault: impl Into<EvalFault>) {
        if self.fault.is_none() {
            self.fault = Some(fault.into());
        }
    }
}

/// Reusable per-worker buffers for plan execution. Registers, key
/// buffers, and the shadow tables are cleared — not reallocated —
/// between tasks, so a round with many tasks pays for map growth once
/// instead of once per task.
#[derive(Default)]
pub(crate) struct KernelScratch {
    enc: Vec<u64>,
    boxed: Vec<Option<Value>>,
    key_buf: Vec<u64>,
    app_buf: Vec<Value>,
    args_buf: Vec<Value>,
    shadow_rows: FxHashSet<[u64; SHADOW_KEY]>,
    shadow_cells: FxHashMap<[u64; SHADOW_KEY], (u32, Value)>,
}

impl KernelScratch {
    pub(crate) fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// Executes a compiled plan, appending derivations to `out`. The first
/// fault (a panicking user function or lattice operation, a tripped
/// safety sentinel, an exhausted budget) stops the evaluation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plan(
    program: &Program,
    db: &Database,
    plan: &Plan,
    rule: usize,
    delta: &[Vec<Row>],
    guard: &EvalGuard<'_>,
    counters: &mut EvalCounters,
    out: &mut Vec<Derived>,
    scratch: &mut KernelScratch,
) -> Result<(), EvalFault> {
    let mut enc = std::mem::take(&mut scratch.enc);
    enc.clear();
    enc.resize(plan.num_slots, 0);
    let mut boxed = std::mem::take(&mut scratch.boxed);
    boxed.clear();
    boxed.resize(plan.num_slots, None);
    let mut shadow_rows = std::mem::take(&mut scratch.shadow_rows);
    shadow_rows.clear();
    let mut shadow_cells = std::mem::take(&mut scratch.shadow_cells);
    shadow_cells.clear();
    let mut st = State {
        program,
        db,
        delta,
        guard,
        rule,
        enc,
        boxed,
        key_buf: std::mem::take(&mut scratch.key_buf),
        app_buf: std::mem::take(&mut scratch.app_buf),
        args_buf: std::mem::take(&mut scratch.args_buf),
        out,
        probes: 0,
        scans: 0,
        suppressed: 0,
        shadow_rows,
        shadow_cells,
        lat_hit_id: NO_ID,
        fault: None,
    };
    step(plan, 0, &mut st);
    counters.probes += st.probes;
    counters.scans += st.scans;
    counters.suppressed += st.suppressed;
    let State {
        enc,
        boxed,
        key_buf,
        app_buf,
        args_buf,
        shadow_rows,
        shadow_cells,
        fault,
        ..
    } = st;
    scratch.enc = enc;
    scratch.boxed = boxed;
    scratch.key_buf = key_buf;
    scratch.app_buf = app_buf;
    scratch.args_buf = args_buf;
    scratch.shadow_rows = shadow_rows;
    scratch.shadow_cells = shadow_cells;
    match fault {
        None => Ok(()),
        Some(fault) => Err(fault),
    }
}

/// Fills the key buffer from `key`. Returns `false` when a boxed value
/// cannot be encoded — it was never stored, so the key matches nothing.
fn build_key(key: &[KeySrc], st: &mut State<'_, '_>) -> bool {
    st.key_buf.clear();
    for src in key {
        let slot = match src {
            KeySrc::Lit(enc) => *enc,
            KeySrc::Slot(s) => st.enc[*s],
            KeySrc::Boxed(s) => {
                let v = st.boxed[*s].as_ref().expect("statically bound");
                match try_encode(v, st.db.spill()) {
                    Some(e) => e,
                    None => return false,
                }
            }
        };
        st.key_buf.push(slot);
    }
    true
}

/// Applies the per-row ops against a stored relation row.
fn rel_ops_match(
    ops: &[RowOp],
    rel: &crate::database::RelationData,
    id: u32,
    st: &mut State<'_, '_>,
) -> bool {
    for op in ops {
        match op {
            RowOp::CheckLit { col, enc } => {
                if rel.col(*col)[id as usize] != *enc {
                    return false;
                }
            }
            RowOp::CheckSlot { col, slot } => {
                if rel.col(*col)[id as usize] != st.enc[*slot] {
                    return false;
                }
            }
            RowOp::CheckBoxed { col, slot } => {
                let v = st.boxed[*slot].as_ref().expect("statically bound");
                match try_encode(v, st.db.spill()) {
                    Some(e) if e == rel.col(*col)[id as usize] => {}
                    _ => return false,
                }
            }
            RowOp::Bind { col, slot } => st.enc[*slot] = rel.col(*col)[id as usize],
            RowOp::BindBoxed { col, slot } => st.boxed[*slot] = Some(rel.row(id)[*col].clone()),
        }
    }
    true
}

/// Applies the per-row ops against a stored lattice key.
fn lat_ops_match(
    ops: &[RowOp],
    lat: &crate::database::LatticeData,
    id: u32,
    st: &mut State<'_, '_>,
) -> bool {
    for op in ops {
        match op {
            RowOp::CheckLit { col, enc } => {
                if lat.key_col(*col)[id as usize] != *enc {
                    return false;
                }
            }
            RowOp::CheckSlot { col, slot } => {
                if lat.key_col(*col)[id as usize] != st.enc[*slot] {
                    return false;
                }
            }
            RowOp::CheckBoxed { col, slot } => {
                let v = st.boxed[*slot].as_ref().expect("statically bound");
                match try_encode(v, st.db.spill()) {
                    Some(e) if e == lat.key_col(*col)[id as usize] => {}
                    _ => return false,
                }
            }
            RowOp::Bind { col, slot } => st.enc[*slot] = lat.key_col(*col)[id as usize],
            RowOp::BindBoxed { col, slot } => st.boxed[*slot] = Some(lat.key(id)[*col].clone()),
        }
    }
    true
}

/// Applies the per-row ops against a decoded delta row. Delta rows are
/// stored rows (or stored keys plus a fresh cell value), so their key
/// columns always encode; a decoded value that does not is unequal to
/// every stored slot.
fn delta_ops_match(ops: &[RowOp], row: &[Value], st: &mut State<'_, '_>) -> bool {
    for op in ops {
        match op {
            RowOp::CheckLit { col, enc } => match try_encode(&row[*col], st.db.spill()) {
                Some(e) if e == *enc => {}
                _ => return false,
            },
            RowOp::CheckSlot { col, slot } => match try_encode(&row[*col], st.db.spill()) {
                Some(e) if e == st.enc[*slot] => {}
                _ => return false,
            },
            RowOp::CheckBoxed { col, slot } => {
                let v = st.boxed[*slot].as_ref().expect("statically bound");
                if row[*col] != *v {
                    return false;
                }
            }
            RowOp::Bind { col, slot } => {
                st.enc[*slot] = try_encode(&row[*col], st.db.spill())
                    .expect("delta key columns are stored values");
            }
            RowOp::BindBoxed { col, slot } => st.boxed[*slot] = Some(row[*col].clone()),
        }
    }
    true
}

/// Matches a cell value per `val` and recurses into the next step. This
/// is the ground-instance semantics of §3.2: the atom `P(k̄, v)` holds when
/// `v ⊑ cell(k̄)`. An unbound variable binds to the cell value (the
/// greatest witness); a variable already bound to `w` rebinds to
/// `w ⊓ cell`, and a `⊥` witness is dropped.
fn apply_val(
    plan: &Plan,
    next: usize,
    val: &ValSpec,
    cell: &Value,
    ops: &LatticeOps,
    st: &mut State<'_, '_>,
) {
    match val {
        ValSpec::Wild => step(plan, next, st),
        ValSpec::Lit(l) => match ops.try_leq(l, cell) {
            Ok(true) => step(plan, next, st),
            Ok(false) => {}
            Err(p) => st.fail(p),
        },
        ValSpec::Bind(slot) => {
            st.boxed[*slot] = Some(cell.clone());
            step(plan, next, st);
        }
        ValSpec::Meet(slot) => {
            let bound = st.boxed[*slot].clone().expect("statically bound");
            let met = match ops.try_glb(&bound, cell) {
                Ok(met) => met,
                Err(p) => {
                    st.fail(p);
                    return;
                }
            };
            if ops.is_bottom(&met) {
                return;
            }
            if met != bound {
                st.boxed[*slot] = Some(met);
                step(plan, next, st);
                // Restore: sibling rows of the enclosing scan must see
                // the pre-meet binding.
                st.boxed[*slot] = Some(bound);
            } else {
                step(plan, next, st);
            }
        }
    }
}

fn arg_value(arg: &ArgSrc, st: &State<'_, '_>) -> Value {
    match arg {
        ArgSrc::Lit(v) => v.clone(),
        ArgSrc::Slot(s) => decode(st.enc[*s], st.db.spill()),
        ArgSrc::Boxed(s) => st.boxed[*s].clone().expect("statically bound"),
    }
}

/// Invokes a user function with panic isolation; a caught panic is
/// recorded as the evaluation's fault and `None` returned.
fn call_fn(func: usize, vals: &[Value], st: &mut State<'_, '_>) -> Option<Value> {
    let fdef = &st.program.funcs[func];
    match catch_unwind(AssertUnwindSafe(|| (fdef.body)(vals))) {
        Ok(v) => Some(v),
        Err(payload) => {
            st.fail(EvalFault::Panic {
                function: fdef.name.to_string(),
                payload: panic_payload(payload),
            });
            None
        }
    }
}

/// Computes the head's function applications once into `st.app_buf`, in
/// head-column order. Returns `false` when one panicked (fault recorded).
/// Always runs before the subsumption pre-check, so a panicking transfer
/// function fires whether or not its result would be subsumed.
fn compute_apps(plan: &Plan, st: &mut State<'_, '_>) -> bool {
    st.app_buf.clear();
    for h in &plan.head {
        if let HeadSrc::App(func, args) = h {
            let mut vals = std::mem::take(&mut st.args_buf);
            vals.clear();
            for a in args {
                vals.push(arg_value(a, st));
            }
            let result = call_fn(*func, &vals, st);
            st.args_buf = vals;
            match result {
                Some(v) => st.app_buf.push(v),
                None => return false,
            }
        }
    }
    true
}

/// Encodes the head columns in `srcs` into the key buffer. Returns
/// `false` when a value was never stored — then it cannot equal any
/// stored row, so the tuple is certainly not subsumed.
fn build_head_key(srcs: &[HeadSrc], st: &mut State<'_, '_>) -> bool {
    st.key_buf.clear();
    let mut app_i = 0;
    for h in srcs {
        let enc = match h {
            HeadSrc::Lit(_, enc) => *enc,
            HeadSrc::Slot(s) => st.enc[*s],
            HeadSrc::Boxed(s) => {
                let v = st.boxed[*s].as_ref().expect("statically bound");
                match try_encode(v, st.db.spill()) {
                    Some(e) => e,
                    None => return false,
                }
            }
            HeadSrc::App(..) => {
                let v = &st.app_buf[app_i];
                app_i += 1;
                match try_encode(v, st.db.spill()) {
                    Some(e) => e,
                    None => return false,
                }
            }
        };
        st.key_buf.push(enc);
    }
    true
}

/// Would inserting the current head tuple leave the database unchanged?
/// Mirrors [`Database::insert`] against the evaluation-time snapshot — a
/// stored relational row, or a lattice candidate `⊑` its stored cell —
/// plus the plan-local shadow of what this execution has already
/// emitted, which catches within-round duplicates (the dominant case in
/// fixed-point workloads like shortest paths, where each round derives
/// many successively better candidates per cell). Conservative on every
/// edge (unencodable value, missing cell, a `leq`/`lub` that errs):
/// answer `false` and let the real insert decide — inserts are monotone
/// within a round, so a tuple subsumed now stays subsumed.
fn is_subsumed(plan: &Plan, st: &mut State<'_, '_>) -> bool {
    match st.db.pred(plan.head_pred) {
        PredData::Rel(rel) => {
            if !build_head_key(&plan.head, st) {
                return false;
            }
            if rel.contains_encoded(&st.key_buf) {
                return true;
            }
            match shadow_key(&st.key_buf) {
                Some(key) => !st.shadow_rows.insert(key),
                None => false,
            }
        }
        PredData::Lat(lat) => {
            let (key_srcs, val_src) = plan.head.split_at(plan.head.len() - 1);
            if !build_head_key(key_srcs, st) {
                return false;
            }
            let decoded;
            let cand: &Value = match &val_src[0] {
                HeadSrc::Lit(v, _) => v,
                HeadSrc::Boxed(s) => st.boxed[*s].as_ref().expect("statically bound"),
                HeadSrc::Slot(s) => {
                    decoded = decode(st.enc[*s], st.db.spill());
                    &decoded
                }
                HeadSrc::App(..) => st.app_buf.last().expect("apps computed before pre-check"),
            };
            // The shadow cell is what this cell is at least going to
            // hold by the time the insert loop reaches the current
            // candidate; it starts as the stored cell and absorbs every
            // candidate this execution lets through. Checking it first
            // makes the steady state one map probe and one `leq` per
            // candidate. Every `leq`/`lub` error leaves the shadow
            // untouched and lets the tuple flow, so the real insert
            // reproduces the fault with proper attribution.
            let ops = lat.ops();
            let Some(skey) = shadow_key(&st.key_buf) else {
                // Key too wide for the inline shadow: frozen-cell check
                // only.
                let Some(id) = lat.id_of_encoded(&st.key_buf) else {
                    return false;
                };
                st.lat_hit_id = id;
                return matches!(ops.try_leq(cand, lat.cell(id)), Ok(true));
            };
            if let Some((id, shadow)) = st.shadow_cells.get_mut(&skey) {
                st.lat_hit_id = *id;
                return match ops.try_leq(cand, shadow) {
                    Ok(true) => true,
                    Ok(false) => {
                        if let Ok(joined) = ops.try_lub(shadow, cand) {
                            *shadow = joined;
                        }
                        false
                    }
                    Err(_) => false,
                };
            }
            // First sighting of this cell: seed the shadow from the
            // stored cell (or the candidate itself when there is none).
            let hit = lat.id_of_encoded(&st.key_buf);
            match hit.map(|id| (id, lat.cell(id))) {
                Some((id, cell)) => {
                    st.lat_hit_id = id;
                    match ops.try_leq(cand, cell) {
                        Ok(true) => {
                            st.shadow_cells.insert(skey, (id, cell.clone()));
                            true
                        }
                        Ok(false) => {
                            if let Ok(joined) = ops.try_lub(cell, cand) {
                                st.shadow_cells.insert(skey, (id, joined));
                            }
                            false
                        }
                        Err(_) => false,
                    }
                }
                None => {
                    st.shadow_cells.insert(skey, (NO_ID, cand.clone()));
                    false
                }
            }
        }
    }
}

fn emit(plan: &Plan, st: &mut State<'_, '_>) {
    if !compute_apps(plan, st) {
        return;
    }
    st.lat_hit_id = NO_ID;
    // Emit-side dedup: a tuple the database already subsumes would be
    // materialized, re-encoded, and dropped as `Unchanged` by the insert
    // loop; suppress it here instead. Counted, so the derivation
    // statistics are identical either way.
    if plan.precheck && is_subsumed(plan, st) {
        st.suppressed += 1;
        return;
    }
    let premises = instantiate_premises(plan, st);
    // Lattice fast path: hand the insert loop the already-encoded key
    // instead of decoding it here just so `Database::insert` can re-encode
    // it. Falls back to the materialized tuple when a key value is not yet
    // interned (`build_head_key` fails) so the insert path interns it.
    if plan.lat_enc {
        let (key_srcs, val_src) = plan.head.split_at(plan.head.len() - 1);
        if build_head_key(key_srcs, st) {
            let mut key = [0u64; ENC_KEY];
            key[..st.key_buf.len()].copy_from_slice(&st.key_buf);
            let cell = match &val_src[0] {
                HeadSrc::Lit(v, _) => v.clone(),
                HeadSrc::Slot(s) => decode(st.enc[*s], st.db.spill()),
                HeadSrc::Boxed(s) => st.boxed[*s].clone().expect("statically bound"),
                HeadSrc::App(..) => st.app_buf.last().expect("apps computed").clone(),
            };
            st.out.push(Derived {
                pred: plan.head_pred,
                payload: Payload::LatEnc {
                    arity: key_srcs.len() as u8,
                    id: st.lat_hit_id,
                    key,
                    cell,
                },
                rule: st.rule,
                premises,
            });
            return;
        }
    }
    let mut tuple = Vec::with_capacity(plan.head.len());
    let mut app_i = 0;
    for h in &plan.head {
        match h {
            HeadSrc::Lit(v, _) => tuple.push(v.clone()),
            HeadSrc::Slot(s) => tuple.push(decode(st.enc[*s], st.db.spill())),
            HeadSrc::Boxed(s) => tuple.push(st.boxed[*s].clone().expect("statically bound")),
            HeadSrc::App(..) => {
                tuple.push(st.app_buf[app_i].clone());
                app_i += 1;
            }
        }
    }
    st.out.push(Derived {
        pred: plan.head_pred,
        payload: Payload::Tuple(tuple),
        rule: st.rule,
        premises,
    });
}

/// Fills the plan's premise template from the current registers; `None`
/// when the solve does not record provenance.
fn instantiate_premises(plan: &Plan, st: &State<'_, '_>) -> Option<Vec<Premise>> {
    let template = plan.premises.as_ref()?;
    Some(
        template
            .iter()
            .map(|(pred, pattern)| Premise {
                pred: *pred,
                pattern: pattern
                    .iter()
                    .map(|col| col.as_ref().map(|src| arg_value(src, st)))
                    .collect(),
            })
            .collect(),
    )
}

/// Does some stored fact match the negated atom? Negated atoms never
/// bind: every variable is already in a register.
fn neg_exists(
    pred: PredId,
    test: &NegTest,
    val: &ValSpec,
    st: &mut State<'_, '_>,
) -> Result<bool, OpsPanic> {
    match (st.db.pred(pred), test) {
        // An unencodable key component was never stored: no match.
        (PredData::Rel(rel), NegTest::Ground(key)) => {
            Ok(build_key(key, st) && rel.contains_encoded(&st.key_buf))
        }
        (PredData::Rel(rel), NegTest::Scan(ops)) => {
            Ok((0..rel.len() as u32).any(|id| rel_ops_match(ops, rel, id, st)))
        }
        (PredData::Lat(lat), NegTest::Ground(key)) => {
            if !build_key(key, st) {
                return Ok(false);
            }
            match lat.id_of_encoded(&st.key_buf) {
                Some(id) => val_holds(val, lat.cell(id), lat.ops(), st),
                None => Ok(false),
            }
        }
        (PredData::Lat(lat), NegTest::Scan(ops)) => {
            for id in 0..lat.len() as u32 {
                if lat_ops_match(ops, lat, id, st) && val_holds(val, lat.cell(id), lat.ops(), st)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// The §3.2 value match of [`apply_val`] as a pure test, for negated
/// lattice atoms (whose value variable is always bound).
fn val_holds(
    val: &ValSpec,
    cell: &Value,
    ops: &LatticeOps,
    st: &State<'_, '_>,
) -> Result<bool, OpsPanic> {
    match val {
        ValSpec::Wild => Ok(true),
        ValSpec::Lit(l) => ops.try_leq(l, cell),
        ValSpec::Meet(slot) => {
            let bound = st.boxed[*slot].as_ref().expect("statically bound");
            Ok(!ops.is_bottom(&ops.try_glb(bound, cell)?))
        }
        ValSpec::Bind(_) => unreachable!("negated atoms bind nothing"),
    }
}

fn step(plan: &Plan, i: usize, st: &mut State<'_, '_>) {
    if st.fault.is_some() {
        return;
    }
    if let Err(kind) = st.guard.poll() {
        st.fail(EvalFault::Budget(kind));
        return;
    }
    let Some(s) = plan.steps.get(i) else {
        emit(plan, st);
        return;
    };
    match s {
        Step::RelGround { pred, key } => {
            let PredData::Rel(rel) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            if !build_key(key, st) {
                return;
            }
            // Membership test, not an index probe: no probe counted.
            if rel.contains_encoded(&st.key_buf) {
                step(plan, i + 1, st);
            }
        }
        Step::RelProbe {
            pred,
            cols,
            key,
            ops,
        } => {
            let PredData::Rel(rel) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            st.probes += 1;
            if !build_key(key, st) {
                // Unencodable key component: the probe happened (and was
                // counted), but matches nothing.
                return;
            }
            let hits = rel
                .probe_encoded(cols, &st.key_buf)
                .expect("index presence checked at compile time");
            for &id in hits {
                if st.fault.is_some() {
                    return;
                }
                if rel_ops_match(ops, rel, id, st) {
                    step(plan, i + 1, st);
                }
            }
        }
        Step::RelScan { pred, ops, count } => {
            let PredData::Rel(rel) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            if *count {
                st.scans += 1;
            }
            for id in 0..rel.len() as u32 {
                if st.fault.is_some() {
                    return;
                }
                if rel_ops_match(ops, rel, id, st) {
                    step(plan, i + 1, st);
                }
            }
        }
        Step::RelDelta { pred, ops } => {
            let rows = &st.delta[pred.0 as usize];
            for row in rows {
                if st.fault.is_some() {
                    return;
                }
                if delta_ops_match(ops, row, st) {
                    step(plan, i + 1, st);
                }
            }
        }
        Step::LatGround { pred, key, val } => {
            let PredData::Lat(lat) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            if !build_key(key, st) {
                return;
            }
            let Some(id) = lat.id_of_encoded(&st.key_buf) else {
                return;
            };
            let ops = lat.ops();
            apply_val(plan, i + 1, val, lat.cell(id), ops, st);
        }
        Step::LatProbe {
            pred,
            cols,
            key,
            ops,
            val,
        } => {
            let PredData::Lat(lat) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            st.probes += 1;
            if !build_key(key, st) {
                return;
            }
            let hits = lat
                .probe_encoded(cols, &st.key_buf)
                .expect("index presence checked at compile time");
            let lops = lat.ops();
            for &id in hits {
                if st.fault.is_some() {
                    return;
                }
                if lat_ops_match(ops, lat, id, st) {
                    apply_val(plan, i + 1, val, lat.cell(id), lops, st);
                }
            }
        }
        Step::LatScan {
            pred,
            ops,
            val,
            count,
        } => {
            let PredData::Lat(lat) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            if *count {
                st.scans += 1;
            }
            let lops = lat.ops();
            for id in 0..lat.len() as u32 {
                if st.fault.is_some() {
                    return;
                }
                if lat_ops_match(ops, lat, id, st) {
                    apply_val(plan, i + 1, val, lat.cell(id), lops, st);
                }
            }
        }
        Step::LatDelta { pred, ops, val } => {
            let PredData::Lat(lat) = st.db.pred(*pred) else {
                unreachable!("compiled against predicate kinds");
            };
            let lops = lat.ops();
            let rows = &st.delta[pred.0 as usize];
            for row in rows {
                if st.fault.is_some() {
                    return;
                }
                let (keypart, cell) = row.split_at(row.len() - 1);
                if delta_ops_match(ops, keypart, st) {
                    apply_val(plan, i + 1, val, &cell[0], lops, st);
                }
            }
        }
        Step::Filter { func, args } => {
            let mut vals = std::mem::take(&mut st.args_buf);
            vals.clear();
            for a in args {
                vals.push(arg_value(a, st));
            }
            let result = call_fn(*func, &vals, st);
            match result {
                None => st.args_buf = vals,
                Some(Value::Bool(true)) => {
                    // Restore the buffer before recursing — a nested emit
                    // reuses it for its own argument lists.
                    st.args_buf = vals;
                    step(plan, i + 1, st);
                }
                Some(Value::Bool(false)) => st.args_buf = vals,
                Some(other) => st.fail(EvalFault::Safety(Violation::FilterNotBoolean(vals, other))),
            }
        }
        Step::Negate { pred, test, val } => match neg_exists(*pred, test, val, st) {
            Ok(false) => step(plan, i + 1, st),
            Ok(true) => {}
            Err(p) => st.fail(p),
        },
        Step::Choose { func, args, binds } => {
            // Owned, not the shared buffer: the arguments must outlive the
            // nested steps for a malformed-element report.
            let vals: Vec<Value> = args.iter().map(|a| arg_value(a, st)).collect();
            let Some(result) = call_fn(*func, &vals, st) else {
                return;
            };
            let Value::Set(elems) = &result else {
                st.fail(EvalFault::Safety(Violation::ChoiceMalformed(vals, result)));
                return;
            };
            for elem in elems.iter() {
                if st.fault.is_some() {
                    return;
                }
                let items = match elem.as_tuple() {
                    _ if binds.len() == 1 => std::slice::from_ref(elem),
                    Some(items) if items.len() == binds.len() => items,
                    _ => {
                        st.fail(EvalFault::Safety(Violation::ChoiceMalformed(
                            vals.clone(),
                            elem.clone(),
                        )));
                        return;
                    }
                };
                let matched = binds.iter().zip(items).all(|(&(slot, check), item)| {
                    if check {
                        st.boxed[slot].as_ref() == Some(item)
                    } else {
                        st.boxed[slot] = Some(item.clone());
                        true
                    }
                });
                if matched {
                    step(plan, i + 1, st);
                }
            }
        }
    }
}
