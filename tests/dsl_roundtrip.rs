//! The specification language round-trips: every shipped `.adt` file
//! parses, prints, reparses to a semantically equal specification, and
//! the printed form is stable (printing is idempotent). A builder-made
//! spec covers the printer features the shipped files exercise least.

use adt_core::{Spec, SpecBuilder, Term};
use adt_dsl::{parse, print_spec, semantically_equal};
use adt_structures::sources;

#[test]
fn all_shipped_sources_round_trip() {
    for (name, source) in sources::all() {
        let spec =
            parse(source).unwrap_or_else(|e| panic!("specs/{name}.adt: {}", e.render(source)));
        let printed = print_spec(&spec);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "specs/{name}.adt failed to reparse after printing:\n{printed}\n{}",
                e.render(&printed)
            )
        });
        assert!(
            semantically_equal(&spec, &reparsed),
            "specs/{name}.adt drifted through print/parse:\n{printed}"
        );
    }
}

#[test]
fn printing_is_idempotent() {
    for (name, source) in sources::all() {
        let spec = parse(source).unwrap();
        let once = print_spec(&spec);
        let twice = print_spec(&parse(&once).unwrap());
        assert_eq!(once, twice, "specs/{name}.adt printing is not stable");
    }
}

/// A builder-made spec with the printer features the shipped files use
/// least: a non-linear left-hand side, `if-then-else` nested in both a
/// branch and a condition, `error` on a right-hand side and inside a
/// branch, and a parameter sort with no constructors.
fn printer_feature_spec() -> Spec {
    let mut b = SpecBuilder::new("Pool");
    let pool = b.sort("Pool");
    let elem = b.param_sort("Elem");
    let bool_sort = b.bool_sort();
    let empty = b.ctor("EMPTY", [], pool);
    let put = b.ctor("PUT", [pool, elem], pool);
    let same = b.op("SAME?", [elem, elem], bool_sort);
    let is_empty = b.op("IS_EMPTY?", [pool], bool_sort);
    let pick = b.op("PICK", [pool, elem], elem);
    let p = Term::Var(b.var("p", pool));
    let x = Term::Var(b.var("x", elem));
    let y = Term::Var(b.var("y", elem));
    let tt = b.tt();
    let ff = b.ff();
    b.axiom("s1", b.app(same, [x.clone(), x.clone()]), tt.clone());
    b.axiom("e1", b.app(is_empty, [b.app(empty, [])]), tt);
    b.axiom(
        "e2",
        b.app(is_empty, [b.app(put, [p.clone(), x.clone()])]),
        ff.clone(),
    );
    b.axiom(
        "p1",
        b.app(pick, [b.app(empty, []), y.clone()]),
        Term::Error(elem),
    );
    let found = Term::ite(
        Term::ite(
            b.app(is_empty, [p.clone()]),
            b.app(same, [x.clone(), y.clone()]),
            ff,
        ),
        x.clone(),
        Term::ite(
            b.app(same, [x.clone(), y.clone()]),
            x.clone(),
            Term::ite(
                b.app(is_empty, [p.clone()]),
                Term::Error(elem),
                b.app(pick, [p.clone(), y.clone()]),
            ),
        ),
    );
    b.axiom("p2", b.app(pick, [b.app(put, [p, x]), y]), found);
    b.build().expect("the spec is well-formed")
}

#[test]
fn programmatic_specs_print_to_parseable_sources() {
    let spec = printer_feature_spec();
    let printed = print_spec(&spec);
    for feature in ["param Elem", "SAME?(x, x)", "= error", "else if"] {
        assert!(printed.contains(feature), "no `{feature}` in:\n{printed}");
    }
    let reparsed = parse(&printed).unwrap_or_else(|e| {
        panic!(
            "printed spec does not parse:\n{printed}\n{}",
            e.render(&printed)
        )
    });
    assert!(semantically_equal(&spec, &reparsed), "{printed}");
    assert_eq!(print_spec(&reparsed), printed, "printing is not stable");
}
