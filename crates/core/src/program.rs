//! The compiled program: interned variables, validated rules, and the
//! index requirements derived from rule bodies.

use crate::ast::{BodyItem, FuncDef, HeadTerm, PredDecl, ProgramError, RawRule, Term};
use crate::{PredId, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A compiled body or head term: variables are slot indices.
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    Var(usize),
    Lit(Value),
    Wild,
}

/// A compiled head term.
#[derive(Clone, Debug)]
pub(crate) enum CHead {
    Var(usize),
    Lit(Value),
    App(usize, Vec<CTerm>),
}

/// A compiled body item.
#[derive(Clone, Debug)]
pub(crate) enum CItem {
    Atom {
        pred: PredId,
        terms: Vec<CTerm>,
        /// Columns usable for an index lookup: literal columns plus
        /// variable columns bound by earlier body items. For lattice
        /// predicates only key columns (all but the last) are included.
        index_cols: Vec<usize>,
    },
    NegAtom {
        pred: PredId,
        terms: Vec<CTerm>,
    },
    Filter {
        func: usize,
        args: Vec<CTerm>,
    },
    Choose {
        func: usize,
        args: Vec<CTerm>,
        binds: Vec<usize>,
    },
}

/// A compiled rule.
#[derive(Clone, Debug)]
pub(crate) struct CRule {
    pub(crate) head_pred: PredId,
    pub(crate) head: Vec<CHead>,
    pub(crate) body: Vec<CItem>,
    pub(crate) num_vars: usize,
    /// Variable names by slot; the demand rewrite uses them to decompile
    /// compiled rules back to surface syntax.
    pub(crate) var_names: Vec<Arc<str>>,
    /// Semi-naïve delta variants, one per positive body atom (§3.7: "the
    /// rule is evaluated as many times as there are atoms in its body").
    /// Each variant permutes the body so the delta atom comes *first*,
    /// driving the join from the (small) delta instead of re-scanning the
    /// full relations, with index columns recomputed for the new order.
    pub(crate) delta_variants: Vec<(PredId, Vec<CItem>)>,
}

/// A validated, compiled FLIX program, ready to be solved.
///
/// Produced by [`ProgramBuilder::build`](crate::ProgramBuilder::build);
/// consumed by [`Solver::solve`](crate::Solver::solve).
#[derive(Debug)]
pub struct Program {
    pub(crate) preds: Vec<PredDecl>,
    pub(crate) pred_names: HashMap<Arc<str>, PredId>,
    pub(crate) funcs: Vec<FuncDef>,
    pub(crate) rules: Vec<CRule>,
    pub(crate) facts: Vec<(PredId, Vec<Value>)>,
    /// Index requests: for each predicate, the distinct bound-column sets
    /// occurring in rule bodies (the index-selection strategy of DESIGN.md
    /// decision 4).
    pub(crate) index_requests: HashMap<PredId, HashSet<Vec<usize>>>,
}

impl Program {
    /// The number of declared predicates.
    pub fn num_predicates(&self) -> usize {
        self.preds.len()
    }

    /// The number of compiled rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The number of ground facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Iterates the ground facts as `(predicate, tuple)` pairs, in
    /// declaration order. Lattice facts carry the element as the last
    /// column. This is how [`crate::incremental::Delta::from_facts`]
    /// turns a standalone update program into a delta.
    pub fn facts(&self) -> impl Iterator<Item = (PredId, &[Value])> {
        self.facts.iter().map(|(p, v)| (*p, v.as_slice()))
    }

    /// Looks up a predicate id by name.
    pub fn predicate(&self, name: &str) -> Option<PredId> {
        self.pred_names.get(name).copied()
    }

    /// The declaration of a predicate.
    pub fn decl(&self, pred: PredId) -> &PredDecl {
        &self.preds[pred.0 as usize]
    }

    /// Iterates all predicate declarations with their ids.
    pub fn predicates(&self) -> impl Iterator<Item = (PredId, &PredDecl)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, d)| (PredId(i as u32), d))
    }

    pub(crate) fn from_parts(
        preds: Vec<PredDecl>,
        funcs: Vec<FuncDef>,
        raw_rules: Vec<RawRule>,
        facts: Vec<(PredId, Vec<Value>)>,
    ) -> Result<Program, ProgramError> {
        let pred_names: HashMap<Arc<str>, PredId> = preds
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), PredId(i as u32)))
            .collect();

        for (pred, values) in &facts {
            let decl = &preds[pred.0 as usize];
            if values.len() != decl.arity {
                return Err(ProgramError::FactArityMismatch {
                    predicate: decl.name.to_string(),
                    declared: decl.arity,
                    found: values.len(),
                });
            }
        }

        let mut rules = Vec::with_capacity(raw_rules.len());
        let mut index_requests: HashMap<PredId, HashSet<Vec<usize>>> = HashMap::new();
        for raw in &raw_rules {
            rules.push(compile_rule(raw, &preds, &funcs, &mut index_requests)?);
        }

        Ok(Program {
            preds,
            pred_names,
            funcs,
            rules,
            facts,
            index_requests,
        })
    }
}

/// Interns variable names to slots within one rule.
struct VarScope {
    names: Vec<Arc<str>>,
    slots: HashMap<Arc<str>, usize>,
}

impl VarScope {
    fn new() -> VarScope {
        VarScope {
            names: Vec::new(),
            slots: HashMap::new(),
        }
    }

    fn intern(&mut self, name: &Arc<str>) -> usize {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(name.clone());
        self.slots.insert(name.clone(), slot);
        slot
    }
}

/// Orders body items so that filters, choices, and negated atoms run only
/// after the positive atoms that bind their variables, preserving the
/// relative order of the positive atoms.
///
/// The paper's own example (§3.7) writes
/// `R(x) :- isMaybeZero(x), A(x).` with the filter first; a rule is a
/// logical conjunction, so the engine is free to pick an evaluation order,
/// and this greedy schedule is the minimal "query planning" needed to
/// evaluate such rules left to right. Items whose variables never become
/// bound are appended in source order so validation reports them.
fn schedule_body(items: &[BodyItem]) -> Vec<&BodyItem> {
    fn term_vars<'a>(terms: &'a [Term], out: &mut Vec<&'a str>) {
        for t in terms {
            if let Term::Var(name) = t {
                out.push(name);
            }
        }
    }

    let mut scheduled: Vec<&BodyItem> = Vec::with_capacity(items.len());
    let mut pending: Vec<&BodyItem> = items.iter().collect();
    let mut bound: HashSet<&str> = HashSet::new();
    while !pending.is_empty() {
        let ready = pending.iter().position(|item| {
            let mut needed = Vec::new();
            match item {
                BodyItem::Atom { .. } => return true,
                BodyItem::NegAtom { terms, .. } => term_vars(terms, &mut needed),
                BodyItem::Filter { args, .. } | BodyItem::Choose { args, .. } => {
                    term_vars(args, &mut needed)
                }
            }
            needed.iter().all(|v| bound.contains(v))
        });
        let Some(i) = ready else {
            // No progress possible: emit the rest as-is so that
            // compilation reports the first genuinely unbound variable.
            scheduled.extend(pending);
            break;
        };
        let item = pending.remove(i);
        match item {
            BodyItem::Atom { terms, .. } => {
                let mut vars = Vec::new();
                term_vars(terms, &mut vars);
                bound.extend(vars);
            }
            BodyItem::Choose { binds, .. } => {
                bound.extend(binds.iter().map(|b| &**b));
            }
            BodyItem::NegAtom { .. } | BodyItem::Filter { .. } => {}
        }
        scheduled.push(item);
    }
    scheduled
}

fn compile_rule(
    raw: &RawRule,
    preds: &[PredDecl],
    funcs: &[FuncDef],
    index_requests: &mut HashMap<PredId, HashSet<Vec<usize>>>,
) -> Result<CRule, ProgramError> {
    let head_decl = &preds[raw.head.pred.0 as usize];
    let head_name = head_decl.name.to_string();
    if raw.head.terms.len() != head_decl.arity {
        return Err(ProgramError::ArityMismatch {
            predicate: head_name,
            declared: head_decl.arity,
            found: raw.head.terms.len(),
        });
    }
    // A function is called with values: a wildcard has none to pass.
    let calls = raw.body.iter().filter_map(|item| match item {
        BodyItem::Filter { func, args } | BodyItem::Choose { func, args, .. } => Some((func, args)),
        BodyItem::Atom { .. } | BodyItem::NegAtom { .. } => None,
    });
    let head_calls = raw.head.terms.iter().filter_map(|t| match t {
        HeadTerm::App(func, args) => Some((func, args)),
        HeadTerm::Var(_) | HeadTerm::Lit(_) => None,
    });
    for (func, args) in calls.chain(head_calls) {
        if args.iter().any(|t| matches!(t, Term::Wildcard)) {
            return Err(ProgramError::WildcardArgument {
                function: funcs[func.0 as usize].name.to_string(),
                predicate: head_name,
            });
        }
    }

    let mut scope = VarScope::new();
    // `bound[slot]` tracks whether a positive item has bound the slot,
    // processing the body left to right.
    let mut bound: Vec<bool> = Vec::new();

    let intern_term = |scope: &mut VarScope, bound: &mut Vec<bool>, t: &Term| match t {
        Term::Var(name) => {
            let slot = scope.intern(name);
            if slot >= bound.len() {
                bound.push(false);
            }
            CTerm::Var(slot)
        }
        Term::Lit(v) => CTerm::Lit(v.clone()),
        Term::Wildcard => CTerm::Wild,
    };

    let ordered_body = schedule_body(&raw.body);
    let mut body = Vec::with_capacity(ordered_body.len());
    let mut atom_positions = Vec::new();
    for (pos, item) in ordered_body.iter().copied().enumerate() {
        match item {
            BodyItem::Atom { pred, terms } => {
                let decl = &preds[pred.0 as usize];
                if terms.len() != decl.arity {
                    return Err(ProgramError::ArityMismatch {
                        predicate: decl.name.to_string(),
                        declared: decl.arity,
                        found: terms.len(),
                    });
                }
                let cterms: Vec<CTerm> = terms
                    .iter()
                    .map(|t| intern_term(&mut scope, &mut bound, t))
                    .collect();
                // Index columns: literals plus already-bound variables.
                // For lattice predicates the value column is excluded.
                let indexable_cols = if decl.is_lattice() {
                    decl.arity - 1
                } else {
                    decl.arity
                };
                let mut index_cols = Vec::new();
                for (col, t) in cterms.iter().enumerate().take(indexable_cols) {
                    match t {
                        CTerm::Lit(_) => index_cols.push(col),
                        CTerm::Var(slot) if bound[*slot] => index_cols.push(col),
                        _ => {}
                    }
                }
                if !index_cols.is_empty() && index_cols.len() < indexable_cols {
                    index_requests
                        .entry(*pred)
                        .or_default()
                        .insert(index_cols.clone());
                }
                // After matching, every variable of the atom is bound.
                for t in &cterms {
                    if let CTerm::Var(slot) = t {
                        bound[*slot] = true;
                    }
                }
                atom_positions.push(pos);
                body.push(CItem::Atom {
                    pred: *pred,
                    terms: cterms,
                    index_cols,
                });
            }
            BodyItem::NegAtom { pred, terms } => {
                let decl = &preds[pred.0 as usize];
                if terms.len() != decl.arity {
                    return Err(ProgramError::ArityMismatch {
                        predicate: decl.name.to_string(),
                        declared: decl.arity,
                        found: terms.len(),
                    });
                }
                let cterms: Vec<CTerm> = terms
                    .iter()
                    .map(|t| intern_term(&mut scope, &mut bound, t))
                    .collect();
                // Safety: every variable must already be bound.
                for (t, raw_t) in cterms.iter().zip(terms) {
                    if let (CTerm::Var(slot), Term::Var(name)) = (t, raw_t) {
                        if !bound[*slot] {
                            return Err(ProgramError::UnboundBodyVariable {
                                variable: name.to_string(),
                                predicate: head_name,
                            });
                        }
                    }
                }
                body.push(CItem::NegAtom {
                    pred: *pred,
                    terms: cterms,
                });
            }
            BodyItem::Filter { func, args } => {
                let cargs: Vec<CTerm> = args
                    .iter()
                    .map(|t| intern_term(&mut scope, &mut bound, t))
                    .collect();
                for (t, raw_t) in cargs.iter().zip(args) {
                    if let (CTerm::Var(slot), Term::Var(name)) = (t, raw_t) {
                        if !bound[*slot] {
                            return Err(ProgramError::UnboundBodyVariable {
                                variable: name.to_string(),
                                predicate: head_name,
                            });
                        }
                    }
                }
                body.push(CItem::Filter {
                    func: func.0 as usize,
                    args: cargs,
                });
            }
            BodyItem::Choose { func, args, binds } => {
                let cargs: Vec<CTerm> = args
                    .iter()
                    .map(|t| intern_term(&mut scope, &mut bound, t))
                    .collect();
                for (t, raw_t) in cargs.iter().zip(args) {
                    if let (CTerm::Var(slot), Term::Var(name)) = (t, raw_t) {
                        if !bound[*slot] {
                            return Err(ProgramError::UnboundBodyVariable {
                                variable: name.to_string(),
                                predicate: head_name,
                            });
                        }
                    }
                }
                let bind_slots: Vec<usize> = binds
                    .iter()
                    .map(|name| {
                        let slot = scope.intern(name);
                        if slot >= bound.len() {
                            bound.push(false);
                        }
                        bound[slot] = true;
                        slot
                    })
                    .collect();
                body.push(CItem::Choose {
                    func: func.0 as usize,
                    args: cargs,
                    binds: bind_slots,
                });
            }
        }
    }

    // Compile the head; check range restriction and app placement.
    let mut head = Vec::with_capacity(raw.head.terms.len());
    let last = raw.head.terms.len().saturating_sub(1);
    for (i, t) in raw.head.terms.iter().enumerate() {
        match t {
            HeadTerm::Var(name) => {
                let slot = scope.intern(name);
                if slot >= bound.len() {
                    bound.push(false);
                }
                if !bound[slot] {
                    return Err(ProgramError::UnboundHeadVariable {
                        variable: name.to_string(),
                        predicate: head_name,
                    });
                }
                head.push(CHead::Var(slot));
            }
            HeadTerm::Lit(v) => head.push(CHead::Lit(v.clone())),
            HeadTerm::App(func, args) => {
                if i != last {
                    return Err(ProgramError::AppNotLast {
                        predicate: head_name,
                    });
                }
                let mut cargs = Vec::with_capacity(args.len());
                for arg in args {
                    let ct = intern_term(&mut scope, &mut bound, arg);
                    if let (CTerm::Var(slot), Term::Var(name)) = (&ct, arg) {
                        if !bound[*slot] {
                            return Err(ProgramError::UnboundHeadVariable {
                                variable: name.to_string(),
                                predicate: head_name,
                            });
                        }
                    }
                    cargs.push(ct);
                }
                head.push(CHead::App(func.0 as usize, cargs));
            }
        }
    }

    // Build the delta variants: move each positive atom to the front,
    // greedily order the rest by join connectivity, and recompute the
    // index columns for the new order.
    let mut delta_variants = Vec::with_capacity(atom_positions.len());
    for &pos in &atom_positions {
        let CItem::Atom { pred, .. } = &body[pos] else {
            unreachable!("atom_positions only indexes atoms")
        };
        let pred = *pred;
        let mut permuted = order_for_delta(&body, pos);
        recompute_index_cols(&mut permuted, preds, index_requests);
        delta_variants.push((pred, permuted));
    }

    Ok(CRule {
        head_pred: raw.head.pred,
        head,
        body,
        num_vars: scope.names.len(),
        var_names: scope.names,
        delta_variants,
    })
}

/// Orders a rule body for delta evaluation: the delta atom first, then a
/// greedy join order — ready filters and negations as soon as their
/// variables are bound, then the atom sharing the most bound columns
/// (avoiding accidental cross products), then ready choice bindings, and
/// only as a last resort an unconnected atom.
fn order_for_delta(body: &[CItem], delta_idx: usize) -> Vec<CItem> {
    fn item_vars(item: &CItem, out: &mut Vec<usize>) {
        let terms = match item {
            CItem::Atom { terms, .. } | CItem::NegAtom { terms, .. } => terms,
            CItem::Filter { args, .. } | CItem::Choose { args, .. } => args,
        };
        for t in terms {
            if let CTerm::Var(slot) = t {
                out.push(*slot);
            }
        }
    }

    let mut out = Vec::with_capacity(body.len());
    let mut bound: HashSet<usize> = HashSet::new();
    let push = |item: &CItem, out: &mut Vec<CItem>, bound: &mut HashSet<usize>| {
        match item {
            CItem::Atom { terms, .. } => {
                for t in terms {
                    if let CTerm::Var(slot) = t {
                        bound.insert(*slot);
                    }
                }
            }
            CItem::Choose { binds, .. } => bound.extend(binds.iter().copied()),
            CItem::NegAtom { .. } | CItem::Filter { .. } => {}
        }
        out.push(item.clone());
    };
    push(&body[delta_idx], &mut out, &mut bound);

    let mut remaining: Vec<usize> = (0..body.len()).filter(|&i| i != delta_idx).collect();
    while !remaining.is_empty() {
        // 1. Pure tests whose variables are all bound.
        if let Some(k) = remaining.iter().position(|&i| {
            matches!(body[i], CItem::NegAtom { .. } | CItem::Filter { .. }) && {
                let mut vars = Vec::new();
                item_vars(&body[i], &mut vars);
                vars.iter().all(|v| bound.contains(v))
            }
        }) {
            push(&body[remaining.remove(k)], &mut out, &mut bound);
            continue;
        }
        // 2. The atom with the most bound columns (literals count).
        let best = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &i)| matches!(body[i], CItem::Atom { .. }))
            .map(|(k, &i)| {
                let CItem::Atom { terms, .. } = &body[i] else {
                    unreachable!("filtered to atoms")
                };
                let score = terms
                    .iter()
                    .filter(|t| match t {
                        CTerm::Lit(_) => true,
                        CTerm::Var(slot) => bound.contains(slot),
                        CTerm::Wild => false,
                    })
                    .count();
                (k, score)
            })
            .max_by_key(|&(k, score)| (score, std::cmp::Reverse(k)));
        if let Some((k, score)) = best {
            if score > 0 {
                push(&body[remaining.remove(k)], &mut out, &mut bound);
                continue;
            }
        }
        // 3. A choice binding whose arguments are bound.
        if let Some(k) = remaining.iter().position(|&i| {
            matches!(body[i], CItem::Choose { .. }) && {
                let mut vars = Vec::new();
                item_vars(&body[i], &mut vars);
                vars.iter().all(|v| bound.contains(v))
            }
        }) {
            push(&body[remaining.remove(k)], &mut out, &mut bound);
            continue;
        }
        // 4. Unconnected atom: unavoidable cross product; take the first.
        let k = remaining
            .iter()
            .position(|&i| matches!(body[i], CItem::Atom { .. }))
            .unwrap_or(0);
        push(&body[remaining.remove(k)], &mut out, &mut bound);
    }
    out
}

/// Recomputes the index columns of every atom in `items` for their
/// current order, registering the needed indexes.
fn recompute_index_cols(
    items: &mut [CItem],
    preds: &[PredDecl],
    index_requests: &mut HashMap<PredId, HashSet<Vec<usize>>>,
) {
    let mut bound: HashSet<usize> = HashSet::new();
    for item in items {
        match item {
            CItem::Atom {
                pred,
                terms,
                index_cols,
            } => {
                let decl = &preds[pred.0 as usize];
                let indexable = if decl.is_lattice() {
                    decl.arity - 1
                } else {
                    decl.arity
                };
                index_cols.clear();
                for (col, t) in terms.iter().enumerate().take(indexable) {
                    match t {
                        CTerm::Lit(_) => index_cols.push(col),
                        CTerm::Var(slot) if bound.contains(slot) => index_cols.push(col),
                        _ => {}
                    }
                }
                if !index_cols.is_empty() && index_cols.len() < indexable {
                    index_requests
                        .entry(*pred)
                        .or_default()
                        .insert(index_cols.clone());
                }
                for t in terms.iter() {
                    if let CTerm::Var(slot) = t {
                        bound.insert(*slot);
                    }
                }
            }
            CItem::Choose { binds, .. } => {
                bound.extend(binds.iter().copied());
            }
            CItem::NegAtom { .. } | CItem::Filter { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{BodyItem, Head, HeadTerm, ProgramBuilder, Term, Value};

    #[test]
    fn variables_are_interned_per_rule() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let p = b.relation("P", 2);
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("y")]),
            [BodyItem::atom(e, [Term::var("x"), Term::var("y")])],
        );
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
            ],
        );
        let prog = b.build().expect("valid");
        assert_eq!(prog.rules[0].num_vars, 2);
        assert_eq!(prog.rules[1].num_vars, 3);
    }

    #[test]
    fn index_requests_capture_bound_columns() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let p = b.relation("P", 2);
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
            ],
        );
        let prog = b.build().expect("valid");
        // The second atom sees `y` bound, so E needs an index on column 0.
        let reqs = prog.index_requests.get(&e).expect("index for E");
        assert!(reqs.contains(&vec![0]));
    }

    #[test]
    fn filter_before_binding_atom_is_rescheduled() {
        // The §3.7 example writes `R(x) :- isMaybeZero(x), A(x).`; the
        // compiler must move the filter after the binding atom.
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |_| Value::Bool(true));
        b.rule(
            Head::new(q, [HeadTerm::var("x")]),
            [
                BodyItem::filter(f, [Term::var("x")]),
                BodyItem::atom(p, [Term::var("x")]),
            ],
        );
        let prog = b.build().expect("reordered into a valid rule");
        assert!(matches!(
            prog.rules[0].body[0],
            crate::program::CItem::Atom { .. }
        ));
        assert!(matches!(
            prog.rules[0].body[1],
            crate::program::CItem::Filter { .. }
        ));
    }

    #[test]
    fn filter_with_genuinely_unbound_variable_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |_| Value::Bool(true));
        b.rule(
            Head::new(q, [HeadTerm::var("x")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::filter(f, [Term::var("nowhere")]),
            ],
        );
        let err = b.build().expect_err("no atom ever binds `nowhere`");
        assert!(matches!(
            err,
            crate::ProgramError::UnboundBodyVariable { .. }
        ));
    }

    #[test]
    fn app_in_non_final_head_term_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 2);
        let f = b.function("f", |args| args[0].clone());
        b.rule(
            Head::new(q, [HeadTerm::app(f, [Term::var("x")]), HeadTerm::var("x")]),
            [BodyItem::atom(p, [Term::var("x")])],
        );
        let err = b.build().expect_err("app must be last");
        assert!(matches!(err, crate::ProgramError::AppNotLast { .. }));
    }

    #[test]
    fn choose_binds_variables_for_the_head() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |args| Value::set([args[0].clone()]));
        b.rule(
            Head::new(q, [HeadTerm::var("y")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::choose(f, [Term::var("x")], "y"),
            ],
        );
        b.build().expect("choose binding makes y bound");
    }

    /// Builds `Q(..) :- P(x), <item>` with the given head and extra body
    /// item and returns the build error.
    fn build_err(
        head: impl FnOnce(crate::PredId, crate::FuncId) -> Head,
        extra: Option<fn(crate::FuncId) -> BodyItem>,
    ) -> crate::ProgramError {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |args| args[0].clone());
        let mut body = vec![BodyItem::atom(p, [Term::var("x")])];
        body.extend(extra.map(|item| item(f)));
        b.rule(head(q, f), body);
        b.build().expect_err("a wildcard argument has no value")
    }

    fn assert_wildcard_argument(err: crate::ProgramError) {
        assert_eq!(
            err,
            crate::ProgramError::WildcardArgument {
                function: "f".into(),
                predicate: "Q".into(),
            }
        );
    }

    #[test]
    fn wildcard_filter_argument_is_rejected() {
        assert_wildcard_argument(build_err(
            |q, _| Head::new(q, [HeadTerm::var("x")]),
            Some(|f| BodyItem::filter(f, [Term::Wildcard])),
        ));
    }

    #[test]
    fn wildcard_choice_argument_is_rejected() {
        assert_wildcard_argument(build_err(
            |q, _| Head::new(q, [HeadTerm::var("y")]),
            Some(|f| BodyItem::choose(f, [Term::Wildcard], "y")),
        ));
    }

    #[test]
    fn wildcard_head_function_argument_is_rejected() {
        assert_wildcard_argument(build_err(
            |q, f| Head::new(q, [HeadTerm::app(f, [Term::Wildcard])]),
            None,
        ));
    }

    #[test]
    fn predicate_lookup_by_name() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let prog = b.build().expect("valid");
        assert_eq!(prog.predicate("P"), Some(p));
        assert_eq!(prog.predicate("Nope"), None);
        assert_eq!(prog.decl(p).name(), "P");
        assert_eq!(prog.decl(p).arity(), 1);
    }
}
