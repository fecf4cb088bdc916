//! Quickstart: specify a type algebraically, check the specification
//! mechanically, execute it by rewriting, and verify an implementation
//! against it.
//!
//! Run with `cargo run --example quickstart`.

use adt_check::{check_completeness, check_consistency};
use adt_rewrite::{Rewriter, SymbolicSession};
use adt_structures::models::fifo_model;
use adt_verify::{check_axioms, AxiomCheckConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A specification is text (or use adt_core::SpecBuilder in code).
    let source = r#"
type Queue
param Item

ops
  NEW:       -> Queue ctor
  ADD:       Queue, Item -> Queue ctor
  FRONT:     Queue -> Item
  REMOVE:    Queue -> Queue
  IS_EMPTY?: Queue -> Bool
  A: -> Item ctor
  B: -> Item ctor
  C: -> Item ctor

vars
  q: Queue
  i: Item

axioms
  [1] IS_EMPTY?(NEW) = true
  [2] IS_EMPTY?(ADD(q, i)) = false
  [3] FRONT(NEW) = error
  [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
  [5] REMOVE(NEW) = error
  [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end
"#;
    let spec = adt_dsl::parse(source).map_err(|e| e.render(source))?;
    println!(
        "parsed specification `{}` with {} axioms",
        spec.name(),
        spec.axioms().len()
    );

    // 2. Mechanical checking (§3 of the paper).
    let completeness = check_completeness(&spec);
    println!(
        "sufficiently complete: {}",
        completeness.is_sufficiently_complete()
    );
    let consistency = check_consistency(&spec);
    match consistency.certificate() {
        Some(proof) => println!(
            "consistent: {} (proved: {proof})",
            consistency.is_consistent()
        ),
        None => println!(
            "consistent: {} ({} critical pairs, {} ground probes)",
            consistency.is_consistent(),
            consistency.pairs_checked(),
            consistency.probes_run()
        ),
    }

    // 3. The axioms are executable: rewrite a term and watch the
    //    derivation.
    let sig = spec.sig();
    let term = sig.apply(
        "FRONT",
        vec![sig.apply(
            "ADD",
            vec![
                sig.apply(
                    "ADD",
                    vec![sig.apply("NEW", vec![])?, sig.apply("A", vec![])?],
                )?,
                sig.apply("B", vec![])?,
            ],
        )?],
    )?;
    let rw = Rewriter::new(&spec);
    let (nf, trace) = rw.normalize_traced(&term)?;
    println!("\nderivation:\n{}", trace.render(sig));
    println!("normal form: {}", adt_core::display::term(sig, &nf));

    // 4. Or run whole programs symbolically (§5: implementations and
    //    specifications are interchangeable).
    let mut session = SymbolicSession::new(&spec);
    session.assign("x", "NEW", [])?;
    session.assign("x", "ADD", ["x".into(), sig.apply("A", vec![])?.into()])?;
    session.assign("x", "ADD", ["x".into(), sig.apply("B", vec![])?.into()])?;
    session.assign("x", "REMOVE", ["x".into()])?;
    println!(
        "\nafter NEW; ADD A; ADD B; REMOVE:  x = {}",
        adt_core::display::term(sig, &session.get("x").expect("x is bound"))
    );

    // 5. And check a real Rust implementation against the axioms.
    let model = fifo_model(&spec);
    let report = check_axioms(&model, &AxiomCheckConfig::default());
    println!(
        "\nimplementation check: {} instances evaluated, {} counterexamples",
        report.instances_checked,
        report.counterexamples.len()
    );
    assert!(report.passed());
    Ok(())
}
