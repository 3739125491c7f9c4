//! Model-theoretic validation of solver output (§3.1–§3.2 of the paper).
//!
//! The declarative semantics of FLIX defines *what* the solution is — the
//! minimal compact model — independently of any evaluation strategy. This
//! module checks a computed [`Solution`] against that definition:
//!
//! * [`model_violation`] verifies the model property `T_P(I) ⊑ I`: every
//!   rule instance satisfied by the interpretation must have a true head
//!   (for lattice predicates, true means *subsumed*: the derived element is
//!   `⊑` the stored cell value, per §3.2 step 5);
//! * [`is_locally_minimal`] verifies minimality in the paper's model order
//!   `⊑M` (§3.2 step 6) against one-step reductions: removing any derived
//!   tuple, or decreasing any lattice cell to any smaller candidate value,
//!   must break the model property.
//!
//! Together these give the cross-validation used by the test suite: the
//! naïve and semi-naïve solvers must both land on a compact model that is
//! locally minimal. (Compactness itself is enforced structurally: the
//! database stores exactly one value per cell.)
//!
//! Both checks, and [`reference_lfp`], apply T_P through a *reference*
//! implementation in this module: a plain nested-loop join over stored
//! facts, with no index selection, budget guards, counters, provenance,
//! or semi-naïve delta variants. It shares no code with the solver's
//! compiled join kernels, so it is an independent oracle for them.

use crate::ast::ProgramError;
use crate::database::{Database, InsertOutcome, PredData};
use crate::program::{CHead, CItem, CRule, CTerm, Program};
use crate::solver::{make_solution, Solution, SolveStats};
use crate::stratify::stratify;
use crate::{PredId, Value};
use std::collections::HashSet;

/// One application of the immediate-consequence operator T_P (§3.1)
/// restricted to `rules`: every head fact those rules derive from the
/// interpretation `db`, in rule order.
///
/// # Panics
///
/// Propagates a panicking user function or lattice operation, and panics
/// on a filter returning a non-boolean or a malformed choice result —
/// the reference has no partial result to salvage.
pub(crate) fn reference_tp(
    program: &Program,
    db: &Database,
    rules: &[usize],
) -> Vec<(PredId, Vec<Value>)> {
    let mut out = Vec::new();
    for &r in rules {
        let rule = &program.rules[r];
        let mut tp = Tp {
            program,
            db,
            rule,
            env: vec![None; rule.num_vars],
            out: &mut out,
        };
        tp.body(0);
    }
    out
}

/// The least fixed point of T_P over the program's facts, computed by
/// plain iteration stratum by stratum (§3.1, §3.5): each stratum applies
/// [`reference_tp`] to its rules and joins the result into the
/// interpretation until nothing changes. The returned [`Solution`]
/// carries default statistics; it exists to be compared, cell for cell,
/// against what [`Solver`](crate::Solver) computes.
///
/// # Errors
///
/// Returns [`ProgramError::NotStratifiable`] for a program with negation
/// in a recursive cycle.
///
/// # Panics
///
/// As [`Solver::solve`](crate::Solver::solve) would report a fault: a
/// panicking user function or lattice operation, a non-boolean filter,
/// or a malformed choice result.
pub fn reference_lfp(program: &Program) -> Result<Solution, ProgramError> {
    let strata = stratify(program)?;
    let mut db = Database::for_program(program, false);
    for (pred, values) in &program.facts {
        db.insert(*pred, values.clone())
            .expect("lattice operations of the reference model");
    }
    for group in &strata.rule_groups {
        loop {
            let mut changed = false;
            for (pred, tuple) in reference_tp(program, &db, group) {
                let outcome = db
                    .insert(pred, tuple)
                    .expect("lattice operations of the reference model");
                changed |= !matches!(outcome, InsertOutcome::Unchanged);
            }
            if !changed {
                break;
            }
        }
    }
    Ok(make_solution(
        program,
        db,
        SolveStats::default(),
        None,
        None,
    ))
}

/// The state of one rule's reference evaluation: the variable
/// environment and the output.
struct Tp<'a> {
    program: &'a Program,
    db: &'a Database,
    rule: &'a CRule,
    env: Vec<Option<Value>>,
    out: &'a mut Vec<(PredId, Vec<Value>)>,
}

impl Tp<'_> {
    /// Evaluates the body from item `i` on, emitting a head fact for
    /// every satisfying assignment.
    fn body(&mut self, i: usize) {
        let Some(item) = self.rule.body.get(i) else {
            self.head();
            return;
        };
        match item {
            CItem::Atom { pred, terms, .. } => {
                for (key, cell) in facts(self.db, *pred) {
                    let saved = self.env.clone();
                    if self.unify(*pred, terms, key, cell) {
                        self.body(i + 1);
                    }
                    self.env = saved;
                }
            }
            CItem::NegAtom { pred, terms } => {
                let saved = self.env.clone();
                let exists = facts(self.db, *pred).into_iter().any(|(key, cell)| {
                    let matched = self.unify(*pred, terms, key, cell);
                    self.env.clone_from(&saved);
                    matched
                });
                if !exists {
                    self.body(i + 1);
                }
            }
            CItem::Filter { func, args } => match self.call(*func, args) {
                Value::Bool(true) => self.body(i + 1),
                Value::Bool(false) => {}
                other => panic!("filter returned a non-boolean: {other}"),
            },
            CItem::Choose { func, args, binds } => {
                let Value::Set(elems) = self.call(*func, args) else {
                    panic!("choice function returned a non-set");
                };
                // `x <- f(..)` means `x ∈ f(..)`: an already bound
                // variable must equal the element's component.
                for elem in elems.iter() {
                    let items = match elem.as_tuple() {
                        _ if binds.len() == 1 => std::slice::from_ref(elem),
                        Some(items) if items.len() == binds.len() => items,
                        _ => panic!(
                            "choice element {elem} does not fit {} variables",
                            binds.len()
                        ),
                    };
                    let saved = self.env.clone();
                    let matched =
                        binds
                            .iter()
                            .zip(items)
                            .all(|(&slot, item)| match &self.env[slot] {
                                Some(bound) => bound == item,
                                None => {
                                    self.env[slot] = Some(item.clone());
                                    true
                                }
                            });
                    if matched {
                        self.body(i + 1);
                    }
                    self.env = saved;
                }
            }
        }
    }

    /// Matches an atom against one stored fact, binding unbound
    /// variables. A lattice atom's value column follows §3.2: `l` matches
    /// when `l ⊑ cell`, an unbound variable binds to the cell, and a bound
    /// variable `w` rebinds to `w ⊓ cell` unless that is `⊥`.
    fn unify(
        &mut self,
        pred: PredId,
        terms: &[CTerm],
        key: &[Value],
        cell: Option<&Value>,
    ) -> bool {
        for (term, value) in terms.iter().zip(key) {
            match term {
                CTerm::Wild => {}
                CTerm::Lit(l) => {
                    if l != value {
                        return false;
                    }
                }
                CTerm::Var(slot) => match &self.env[*slot] {
                    Some(bound) if bound != value => return false,
                    Some(_) => {}
                    None => self.env[*slot] = Some(value.clone()),
                },
            }
        }
        let Some(cell) = cell else {
            return true;
        };
        let ops = self.program.decl(pred).lattice_ops().expect("lattice");
        match terms.last().expect("lattice arity >= 1") {
            CTerm::Wild => true,
            CTerm::Lit(l) => ops.leq(l, cell),
            CTerm::Var(slot) => {
                let met = match &self.env[*slot] {
                    None => cell.clone(),
                    Some(bound) => ops.glb(bound, cell),
                };
                if ops.is_bottom(&met) {
                    return false;
                }
                self.env[*slot] = Some(met);
                true
            }
        }
    }

    fn value(&self, term: &CTerm) -> Value {
        match term {
            CTerm::Lit(v) => v.clone(),
            CTerm::Var(slot) => self.env[*slot].clone().expect("bound variable"),
            CTerm::Wild => unreachable!("ProgramBuilder::build rejects wildcard arguments"),
        }
    }

    fn call(&self, func: usize, args: &[CTerm]) -> Value {
        let vals: Vec<Value> = args.iter().map(|t| self.value(t)).collect();
        (self.program.funcs[func].body)(&vals)
    }

    fn head(&mut self) {
        let tuple = self
            .rule
            .head
            .iter()
            .map(|h| match h {
                CHead::Lit(v) => v.clone(),
                CHead::Var(slot) => self.env[*slot].clone().expect("bound head variable"),
                CHead::App(func, args) => self.call(*func, args),
            })
            .collect();
        self.out.push((self.rule.head_pred, tuple));
    }
}

/// Every stored fact of `pred` as key columns plus, for lattices, the
/// cell value.
fn facts(db: &Database, pred: PredId) -> Vec<(&[Value], Option<&Value>)> {
    match db.pred(pred) {
        PredData::Rel(rel) => rel.rows().map(|row| (row, None)).collect(),
        PredData::Lat(lat) => lat.iter().map(|(key, cell)| (key, Some(cell))).collect(),
    }
}

/// Returns the first rule-head fact that the interpretation fails to
/// satisfy, or `None` when the solution is a model of the program.
///
/// The result carries the predicate name and the violating head tuple.
pub fn model_violation(program: &Program, solution: &Solution) -> Option<(String, Vec<Value>)> {
    violation_against(program, solution.database())
}

/// Returns `true` when the solution is a model of the program.
pub fn is_model(program: &Program, solution: &Solution) -> bool {
    model_violation(program, solution).is_none()
}

fn violation_against(program: &Program, db: &Database) -> Option<(String, Vec<Value>)> {
    // The explicit facts must be satisfied (they are rules with empty
    // bodies).
    for (pred, values) in &program.facts {
        if !satisfied(program, db, *pred, values) {
            return Some((program.decl(*pred).name().to_string(), values.clone()));
        }
    }
    // Every rule-derivable head must be satisfied: T_P(I) ⊑ I.
    let all: Vec<usize> = (0..program.rules.len()).collect();
    for (pred, tuple) in reference_tp(program, db, &all) {
        if !satisfied(program, db, pred, &tuple) {
            return Some((program.decl(pred).name().to_string(), tuple));
        }
    }
    None
}

/// Is the ground atom `pred(values...)` true in the interpretation?
fn satisfied(program: &Program, db: &Database, pred: PredId, values: &[Value]) -> bool {
    match db.pred(pred) {
        PredData::Rel(rel) => rel.contains(values, db.spill()),
        PredData::Lat(lat) => {
            let (key, value) = values.split_at(values.len() - 1);
            let ops = program.decl(pred).lattice_ops().expect("lattice predicate");
            if ops.is_bottom(&value[0]) {
                return true; // ⊥ is below every cell, stored or not.
            }
            match lat.value(key, db.spill()) {
                Some(cell) => ops.leq(&value[0], cell),
                None => false,
            }
        }
    }
}

/// Checks that the solution is a model and that no single-step reduction
/// of it is still a model — removing any non-fact relational tuple, or
/// lowering any lattice cell to a strictly smaller candidate.
///
/// Candidate replacement values for a cell are the other values stored in
/// the same lattice predicate, their pairwise greatest lower bounds with
/// the cell value, and `⊥` (dropping the cell). This is a *local*
/// minimality check: it cannot rule out a smaller model that differs in
/// many cells at once, but the least fixed point is below every model, so
/// any failure here proves the solver over-approximated.
///
/// Intended for small cross-validation programs; it re-runs the model
/// check once per stored fact and candidate.
pub fn is_locally_minimal(program: &Program, solution: &Solution) -> bool {
    let db = solution.database();
    if violation_against(program, db).is_some() {
        return false;
    }
    let explicit: HashSet<(PredId, Vec<Value>)> =
        program.facts.iter().map(|(p, v)| (*p, v.clone())).collect();

    // Enumerate the current contents through the solution's unified
    // fact view.
    let mut rel_tuples: Vec<(PredId, Vec<Value>)> = Vec::new();
    let mut lat_cells: Vec<(PredId, Vec<Value>, Value)> = Vec::new();
    for (pred, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared predicate");
        for fact in facts {
            match fact {
                crate::solver::Fact::Row(row) => rel_tuples.push((pred, row.to_vec())),
                crate::solver::Fact::Cell(key, cell) => {
                    lat_cells.push((pred, key.to_vec(), cell.clone()))
                }
            }
        }
    }

    // Try removing each non-fact relational tuple.
    for (pred, tuple) in &rel_tuples {
        if explicit.contains(&(*pred, tuple.clone())) {
            continue;
        }
        let reduced = rebuild_without(program, db, Some((*pred, tuple)), None);
        if violation_against(program, &reduced).is_none() {
            return false; // a strictly smaller model exists
        }
    }

    // Try lowering each lattice cell.
    for (pred, key, cell) in &lat_cells {
        let ops = program.decl(*pred).lattice_ops().expect("lattice");
        let mut candidates: Vec<Value> = vec![ops.bottom().clone()];
        if let PredData::Lat(lat) = db.pred(*pred) {
            for (_, other) in lat.iter() {
                candidates.push(other.clone());
                candidates.push(ops.glb(other, cell));
            }
        }
        // Values asserted by facts are candidate cell values too: the
        // stored cell may strictly dominate every fact it absorbed.
        for (fact_pred, values) in &program.facts {
            if fact_pred == pred {
                let v = values.last().expect("lattice arity >= 1");
                candidates.push(v.clone());
                candidates.push(ops.glb(v, cell));
            }
        }
        candidates.sort();
        candidates.dedup();
        for cand in candidates {
            let strictly_smaller = ops.leq(&cand, cell) && cand != *cell;
            if !strictly_smaller {
                continue;
            }
            let reduced = rebuild_without(program, db, None, Some((*pred, key.as_slice(), &cand)));
            if violation_against(program, &reduced).is_none() {
                return false;
            }
        }
    }
    true
}

/// Copies `db`, optionally skipping one relational tuple and optionally
/// replacing one lattice cell with a smaller value (`⊥` drops the cell).
fn rebuild_without(
    program: &Program,
    db: &Database,
    skip_rel: Option<(PredId, &Vec<Value>)>,
    replace_lat: Option<(PredId, &[Value], &Value)>,
) -> Database {
    let mut out = Database::for_program(program, false);
    for i in 0..program.num_predicates() {
        let pred = PredId(i as u32);
        match db.pred(pred) {
            PredData::Rel(rel) => {
                for row in rel.rows() {
                    if let Some((p, t)) = skip_rel {
                        if p == pred && t.as_slice() == row {
                            continue;
                        }
                    }
                    let _ = out.insert(pred, row.to_vec());
                }
            }
            PredData::Lat(lat) => {
                for (key, cell) in lat.iter() {
                    let mut tuple = key.to_vec();
                    let value = match replace_lat {
                        Some((p, k, v)) if p == pred && k == key => v.clone(),
                        _ => cell.clone(),
                    };
                    tuple.push(value);
                    // ⊥ replacements are intentionally dropped; the model
                    // checker assumes sound lattice ops, so insertion
                    // faults cannot occur here.
                    let _ = out.insert(pred, tuple);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Solver, Term, ValueLattice};
    use flix_lattice::Parity;

    fn parity(p: Parity) -> Value {
        p.to_value()
    }

    /// The worked example of §3.2: facts A(Even), A(Odd), B(Odd); the
    /// minimal compact model is {A(⊤), B(Odd)}.
    fn example_program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Even)]);
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Odd)]);
        b.build().expect("valid")
    }

    #[test]
    fn solver_output_is_model_and_minimal() {
        let prog = example_program();
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("A", &[]), Some(parity(Parity::Top)));
        assert_eq!(solution.lattice_value("B", &[]), Some(parity(Parity::Odd)));
        assert!(is_model(&prog, &solution));
        assert!(is_locally_minimal(&prog, &solution));
    }

    #[test]
    fn lub_and_glb_examples_from_section_3_2() {
        // R(x) :- A(x). R(x) :- B(x). with A(Odd), B(Even) gives R(⊤).
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        let r = b.lattice("R", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Even)]);
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [BodyItem::atom(a, [Term::var("x")])],
        );
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [BodyItem::atom(bb, [Term::var("x")])],
        );
        let prog = b.build().expect("valid");
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("R", &[]), Some(parity(Parity::Top)));
        assert!(is_model(&prog, &solution));
        assert!(is_locally_minimal(&prog, &solution));

        // R(x) :- A(x), B(x). gives R(⊥), i.e. no stored cell.
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        let r = b.lattice("R", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Even)]);
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [
                BodyItem::atom(a, [Term::var("x")]),
                BodyItem::atom(bb, [Term::var("x")]),
            ],
        );
        let prog = b.build().expect("valid");
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("R", &[]), Some(parity(Parity::Bot)));
        assert_eq!(solution.len("R"), Some(0));
        assert!(is_model(&prog, &solution));
    }

    #[test]
    fn non_minimal_interpretation_is_detected() {
        // Inflate the solution of the example program by asserting B(⊤)
        // as an extra fact in a copy of the program used only to build the
        // inflated database, then check minimality against the original.
        let prog = example_program();
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Even)]);
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Top)]); // inflated
        let inflated_prog = b.build().expect("valid");
        let inflated = Solver::new().solve(&inflated_prog).expect("solves");
        // Still a model of the original program (B(Odd) ⊑ B(⊤))...
        assert!(is_model(&prog, &inflated));
        // ...but not minimal.
        assert!(!is_locally_minimal(&prog, &inflated));
    }
}
