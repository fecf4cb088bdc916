//! `check_axioms` evaluates each enumerated argument once and shares the
//! value across every instance that binds it. This file keeps the plain
//! per-instance evaluation as an oracle, written with the public API
//! only, and requires the same report from the checker at 1 and 4 jobs:
//! instance count, skipped axioms, and every counterexample's label,
//! bindings and values, in order.

use adt_check::random_ctor_term;
use adt_core::{display, DetRng, Spec, Term};
use adt_structures::models::{
    array_model, array_model_with, fifo_model, list_model, ring_model, sample_ident_universe,
    set_model, stack_model, symtab_model, two_stack_model,
};
use adt_structures::specs::{
    array_spec, list_spec, queue_spec, set_spec, stack_spec, symboltable_spec,
};
use adt_structures::{AttrList, HashArray, Ident, LinearArray, SymbolTable};
use adt_verify::{
    check_axioms, check_axioms_jobs, eval_ground, eval_with_env, AxiomCheckConfig,
    AxiomCheckReport, MValue, Model, ModelBuilder, TableModel, TermPool,
};

/// A report reduced to what must not depend on how it was computed:
/// `(instances, skipped, [(axiom, bindings, lhs, rhs)])`, values by `Debug`.
type Digest = (
    usize,
    Vec<String>,
    Vec<(String, Vec<(String, String)>, String, String)>,
);

fn digest(report: &AxiomCheckReport) -> Digest {
    (
        report.instances_checked,
        report.skipped_axioms.clone(),
        report
            .counterexamples
            .iter()
            .map(|ce| {
                (
                    ce.axiom.clone(),
                    ce.bindings.clone(),
                    format!("{:?}", ce.lhs_value),
                    format!("{:?}", ce.rhs_value),
                )
            })
            .collect(),
    )
}

/// The oracle: every instance evaluates its own argument terms from
/// scratch, in the checker's generation order (exhaustive odometer over
/// the pools, truncated, then the random instances of the same axiom).
fn reference(model: &dyn Model, cfg: &AxiomCheckConfig) -> Digest {
    let spec = model.spec();
    let sig = spec.sig();
    let pool = TermPool::build(sig, cfg.max_depth, cfg.cap_per_sort);
    let mut rng = DetRng::new(cfg.seed);
    let mut instances = 0;
    let mut skipped = Vec::new();
    let mut counterexamples = Vec::new();
    for axiom in spec.axioms() {
        let vars = axiom.lhs().vars();
        let sorts: Vec<_> = vars.iter().map(|&v| sig.var(v).sort()).collect();
        if !pool.inhabits_all(sorts.iter().copied()) {
            skipped.push(axiom.label().to_owned());
            continue;
        }
        let mut check = |terms: &[Term]| {
            instances += 1;
            let env = vars
                .iter()
                .zip(terms)
                .map(|(&v, t)| (v, eval_ground(model, t)))
                .collect();
            let lhs = eval_with_env(model, axiom.lhs(), &env);
            let rhs = eval_with_env(model, axiom.rhs(), &env);
            let sort = axiom.lhs().sort(sig).unwrap();
            if !model.values_equal(sort, &lhs, &rhs) {
                let bindings = vars
                    .iter()
                    .zip(terms)
                    .map(|(&v, t)| {
                        (
                            sig.var(v).name().to_owned(),
                            display::term(sig, t).to_string(),
                        )
                    })
                    .collect();
                counterexamples.push((
                    axiom.label().to_owned(),
                    bindings,
                    format!("{lhs:?}"),
                    format!("{rhs:?}"),
                ));
            }
        };

        let choices: Vec<&[Term]> = sorts.iter().map(|&s| pool.terms(s)).collect();
        let mut indices = vec![0usize; vars.len()];
        for _ in 0..cfg.max_instances_per_axiom {
            let terms: Vec<Term> = indices
                .iter()
                .zip(&choices)
                .map(|(&i, c)| c[i].clone())
                .collect();
            check(&terms);
            // Advance the odometer; stop once it wraps.
            let mut k = indices.len();
            while k > 0 {
                k -= 1;
                indices[k] += 1;
                if indices[k] < choices[k].len() {
                    break;
                }
                indices[k] = 0;
            }
            if indices.iter().all(|&i| i == 0) {
                break;
            }
        }

        if !vars.is_empty() {
            for _ in 0..cfg.random_instances {
                let sampled: Option<Vec<Term>> = sorts
                    .iter()
                    .map(|&s| random_ctor_term(sig, s, cfg.random_depth, &mut rng))
                    .collect();
                let Some(sampled) = sampled else { break };
                check(&sampled);
            }
        }
    }
    (instances, skipped, counterexamples)
}

/// The bounded-check depth of the EX-9 tests and the end-to-end benchmark.
fn ex9_config(seed: u64) -> AxiomCheckConfig {
    AxiomCheckConfig {
        max_depth: 5,
        cap_per_sort: 80,
        max_instances_per_axiom: 6_000,
        random_instances: 200,
        random_depth: 10,
        seed,
    }
}

fn configs() -> Vec<(String, AxiomCheckConfig)> {
    let mut out = Vec::new();
    for seed in [1u64, 0xBEEF, 0x5EED_1977] {
        out.push((format!("ex9/{seed:#x}"), ex9_config(seed)));
        out.push((
            format!("default/{seed:#x}"),
            AxiomCheckConfig {
                seed,
                ..AxiomCheckConfig::default()
            },
        ));
    }
    out
}

/// Checks one model at every config; returns how many counterexamples
/// the reports held in total.
fn assert_equivalent(name: &str, model: &(dyn Model + Sync)) -> usize {
    let mut found = 0;
    for (label, cfg) in configs() {
        let want = reference(model, &cfg);
        let seq = digest(&check_axioms(model, &cfg));
        assert_eq!(seq, want, "{name} at {label}: check_axioms vs the oracle");
        let par = digest(&check_axioms_jobs(model, &cfg, 4));
        assert_eq!(par, want, "{name} at {label}: 4 jobs vs the oracle");
        found += want.2.len();
    }
    found
}

#[test]
fn every_shipped_model_matches_the_per_instance_oracle() {
    let stack = stack_spec();
    let array = array_spec();
    let symtab = symboltable_spec();
    let queue = queue_spec();
    let list = list_spec();
    let set = set_spec();
    let models: Vec<(&str, TableModel<'_>)> = vec![
        ("stack", stack_model(&stack)),
        ("array/hash", array_model(&array)),
        (
            "array/linear",
            array_model_with::<LinearArray<String>>(&array),
        ),
        ("symtab", symtab_model(&symtab)),
        ("fifo", fifo_model(&queue)),
        ("two-stack", two_stack_model(&queue)),
        ("list", list_model(&list)),
        ("set", set_model(&set)),
    ];
    for (name, model) in &models {
        assert_eq!(assert_equivalent(name, model), 0, "{name} is correct");
    }
}

#[test]
fn a_ring_past_its_capacity_reports_the_same_counterexamples() {
    let spec = queue_spec();
    let found = assert_equivalent("ring/2", &ring_model(&spec, 2));
    assert!(found > 0, "a 2-slot ring must break the Queue axioms");
}

/// The scoping bug of `tests/impl_verification.rs`: `IS_INBLOCK?` sees
/// every scope, not just the current block.
fn leaky_symtab_model(spec: &Spec) -> TableModel<'_> {
    type St = SymbolTable<HashArray<AttrList>>;
    let st = |v: &MValue| -> St { v.downcast::<St>().unwrap().clone() };
    let ident = |v: &MValue| Ident::new(v.as_str().unwrap());
    let universe = sample_ident_universe();
    let mut b = ModelBuilder::new(spec)
        .op("INIT", |_| MValue::data(St::init()))
        .op("ENTERBLOCK", move |args| {
            let mut t = st(&args[0]);
            t.enter_block();
            MValue::data(t)
        })
        .op("LEAVEBLOCK", move |args| {
            let mut t = st(&args[0]);
            match t.leave_block() {
                Ok(()) => MValue::data(t),
                Err(_) => MValue::Error,
            }
        })
        .op("ADD", move |args| {
            let mut t = st(&args[0]);
            let attrs = AttrList::new().with("name", args[2].as_str().unwrap());
            t.add(ident(&args[1]), attrs);
            MValue::data(t)
        })
        .op("IS_INBLOCK?", move |args| {
            MValue::Bool(st(&args[0]).retrieve(&ident(&args[1])).is_ok())
        })
        .op("RETRIEVE", move |args| {
            match st(&args[0]).retrieve(&ident(&args[1])) {
                Ok(attrs) => MValue::Str(attrs.get("name").unwrap().to_owned()),
                Err(_) => MValue::Error,
            }
        })
        .op("ISSAME?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .eq("Symboltable", move |a, b| {
            match (a.downcast::<St>(), b.downcast::<St>()) {
                (Some(x), Some(y)) => x.observationally_eq(y, &universe),
                _ => false,
            }
        });
    for name in ["ID_X", "ID_Y", "ID_Z", "ATTR_1", "ATTR_2", "ATTR_3"] {
        b = b.op(name, move |_| MValue::Str(name.to_owned()));
    }
    b.build().unwrap()
}

#[test]
fn the_is_inblock_scoping_bug_reports_the_same_counterexamples() {
    let spec = symboltable_spec();
    let found = assert_equivalent("leaky symtab", &leaky_symtab_model(&spec));
    assert!(found > 0, "the scoping bug must be caught");
}
