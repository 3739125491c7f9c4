//! Provenance fixtures: the event log (insertion order, rule, premises)
//! and every `explain` tree of four small programs, pinned byte for
//! byte against committed text dumps in `crates/core/tests/fixtures/`.
//!
//! The programs cover every body-item kind the evaluator compiles:
//! lattice joins and meets (the §3.2 worked example), transfer functions
//! and filters (Figure 2), choice bindings (Figure 5 IFDS), and stratified
//! negation (Strong Update's `!Kill`). A change to the evaluator that
//! reorders derivations or instantiates premises differently shows up
//! here as a textual diff.

use flix::analyses::ifds::{self, problems};
use flix::analyses::{dataflow, strong_update};
use flix::core::provenance::Source;
use flix::lattice::Parity;
use flix::{
    BodyItem, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solver, Term, Value,
    ValueLattice,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// The §3.2 worked example — A(Even). A(Odd). B(Odd). — with the
/// section's lub and glb rules: `R(x) :- A(x). R(x) :- B(x).` and
/// `S(x) :- A(x), B(x).`
fn worked_example() -> Program {
    let mut b = ProgramBuilder::new();
    let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
    let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
    let r = b.lattice("R", 1, LatticeOps::of::<Parity>());
    let s = b.lattice("S", 1, LatticeOps::of::<Parity>());
    b.fact(a, vec![Parity::Even.to_value()]);
    b.fact(a, vec![Parity::Odd.to_value()]);
    b.fact(bb, vec![Parity::Odd.to_value()]);
    b.rule(
        Head::new(r, [HeadTerm::var("x")]),
        [BodyItem::atom(a, [Term::var("x")])],
    );
    b.rule(
        Head::new(r, [HeadTerm::var("x")]),
        [BodyItem::atom(bb, [Term::var("x")])],
    );
    b.rule(
        Head::new(s, [HeadTerm::var("x")]),
        [
            BodyItem::atom(a, [Term::var("x")]),
            BodyItem::atom(bb, [Term::var("x")]),
        ],
    );
    b.build().expect("valid")
}

/// The four pinned programs, by fixture name.
fn programs() -> Vec<(&'static str, Program)> {
    let model = Arc::new(problems::two_proc_example());
    let uninit = Arc::new(problems::UninitVars::new(model.clone()));
    vec![
        ("worked_example", worked_example()),
        (
            "figure_2_dataflow",
            dataflow::build_program(&dataflow::example_input()),
        ),
        (
            "figure_5_ifds",
            ifds::flix::build_program(&model.graph, uninit),
        ),
        (
            "strong_update",
            strong_update::flix::build_program(&strong_update::example_program()),
        ),
    ]
}

fn tuple(values: &[Value]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the event log and one `explain` tree per model fact.
fn render(program: &Program) -> String {
    let solution = Solver::new()
        .record_provenance(true)
        .solve(program)
        .expect("solves");
    let name = |pred| program.decl(pred).name().to_string();
    let mut out = String::from("# events\n");
    for (i, event) in solution.provenance().expect("recorded").iter().enumerate() {
        write!(out, "{i} {}({})", name(event.pred), tuple(&event.tuple)).unwrap();
        match &event.source {
            Source::Fact => out.push_str(" fact\n"),
            Source::Rule { rule, premises } => {
                let premises: Vec<String> = premises
                    .iter()
                    .map(|p| {
                        let cols: Vec<String> = p
                            .pattern
                            .iter()
                            .map(|c| c.as_ref().map_or("_".to_string(), ToString::to_string))
                            .collect();
                        format!("{}({})", name(p.pred), cols.join(", "))
                    })
                    .collect();
                writeln!(out, " rule {rule} <- {}", premises.join(", ")).unwrap();
            }
        }
    }
    out.push_str("# explain\n");
    for (_, decl) in program.predicates() {
        for fact in solution.facts(decl.name()).expect("declared") {
            let tree = solution
                .explain(decl.name(), fact.key())
                .expect("every model fact has a derivation");
            out.push_str(&tree.to_string());
        }
    }
    out
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../core/tests/fixtures")
        .join(format!("provenance_{name}.txt"))
}

#[test]
fn provenance_matches_committed_fixtures() {
    for (name, program) in programs() {
        let path = fixture_path(name);
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let actual = render(&program);
        if actual != expected {
            let line = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .unwrap_or(actual.lines().count().min(expected.lines().count()));
            panic!(
                "{name}: provenance differs from {} first at line {}:\n  actual:   {:?}\n  expected: {:?}",
                path.display(),
                line + 1,
                actual.lines().nth(line),
                expected.lines().nth(line),
            );
        }
    }
}

#[test]
#[ignore = "regenerates the provenance fixtures; run after a deliberate change to derivation order"]
fn regenerate_provenance_fixtures() {
    for (name, program) in programs() {
        let path = fixture_path(name);
        std::fs::write(&path, render(&program)).expect("writes fixture");
        println!("wrote {}", path.display());
    }
}
