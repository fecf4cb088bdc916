//! Oracle for the one way a valid specification is extended
//! (`Spec::extend`, `Signature::extend`): every extension the pipeline
//! makes — renamed-apart variables, completeness witness variables, case
//! variables, skolem constants, translated variables — passes
//! `Spec::validate` without having been re-validated when it was built.
//! Run over the shipped specs, the largest synthetic checker workload and
//! the test fixtures.

use std::path::Path;

use adt_bench::workloads::synthetic_spec;
use adt_check::check_completeness;
use adt_core::Spec;
use adt_rewrite::{rename_apart, superpositions};
use adt_structures::sources;
use adt_structures::specs::{symboltable_spec, symtab_rep_op_map, symtab_rep_spec};
use adt_verify::{instantiate_case, translate_obligations};

fn corpus() -> Vec<(String, Spec)> {
    let mut specs: Vec<(String, Spec)> = sources::all()
        .into_iter()
        .map(|(name, source)| (name.to_owned(), adt_dsl::parse(source).unwrap()))
        .collect();
    assert_eq!(specs.len(), 12, "shipped specs");
    specs.push(("synthetic_8x64".to_owned(), synthetic_spec(8, 64)));
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(fixtures)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "adt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "fixtures");
    for path in paths {
        let source = std::fs::read_to_string(&path).unwrap();
        specs.push((path.display().to_string(), adt_dsl::parse(&source).unwrap()));
    }
    specs
}

/// `ext` is valid and keeps `spec`'s axioms and every declaration of
/// its signature under the same id.
fn assert_valid_extension(name: &str, what: &str, spec: &Spec, ext: &Spec) {
    ext.validate()
        .unwrap_or_else(|e| panic!("{name}: {what}: {e}"));
    assert_eq!(ext.axioms(), spec.axioms(), "{name}: {what}");
    let (sig, ext_sig) = (spec.sig(), ext.sig());
    assert!(
        sig.op_ids().all(|op| ext_sig.op(op) == sig.op(op)),
        "{name}: {what}"
    );
    assert!(
        sig.var_ids().all(|v| ext_sig.var(v) == sig.var(v)),
        "{name}: {what}"
    );
}

#[test]
fn every_extension_of_a_valid_spec_is_valid() {
    for (name, spec) in corpus() {
        let (renamed, _) = rename_apart(&spec);
        assert_valid_extension(&name, "rename_apart", &spec, &renamed);
        assert_valid_extension(&name, "superpositions", &spec, &superpositions(&spec).spec);

        let witnesses = check_completeness(&spec).sig().clone();
        let with_witnesses = Spec::from_parts(
            spec.name(),
            witnesses,
            spec.axioms().to_vec(),
            spec.tois().to_vec(),
            spec.params().to_vec(),
        )
        .unwrap_or_else(|e| panic!("{name}: completeness witnesses: {e}"));
        assert_valid_extension(&name, "completeness witnesses", &spec, &with_witnesses);

        for var in spec.sig().var_ids() {
            let sort = spec.sig().var(var).sort();
            for ctor in spec.sig().constructors_of(sort) {
                let (ext, _) = instantiate_case(&spec, var, ctor, 1);
                assert_valid_extension(&name, "instantiate_case", &spec, &ext);
            }
        }

        // Skolem constants, as generator induction declares them, of
        // every sort; the first candidate, `true`, is always taken.
        let (skolemized, _) = spec.extend(|fresh| {
            for sort in spec.sig().sort_ids() {
                fresh.constant(sort, ["true".to_owned(), format!("sk1_{}", sort.index())]);
            }
        });
        assert_valid_extension(&name, "skolem constants", &spec, &skolemized);
    }
}

#[test]
fn the_translated_representation_spec_is_valid() {
    let (abs, rep) = (symboltable_spec(), symtab_rep_spec());
    let (ext, _) = translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    assert_valid_extension("symtab_rep", "translate_obligations", &rep, &ext);
}
