//! Bounded model checking of axioms against an implementation.
//!
//! "The basic procedure followed in verifying the inherent invariants is to
//! take each axiom … and [show] that the left-hand side of each axiom is
//! equivalent to the right-hand side" (§4). Here the showing is by
//! exhaustive evaluation over enumerated ground arguments (plus optional
//! random sampling at greater depths): not a proof for all inputs, but a
//! mechanical check that catches real implementation bugs immediately and
//! pairs with the term-level proofs in [`crate::rep`].

use std::collections::HashMap;

use adt_check::parallel::{run_indexed, CheckStats};
use adt_check::random_ctor_term;
use adt_core::{display, DetRng, SortId, Term, VarId};

use crate::eval::{eval_ground, eval_with_env};
use crate::gen::TermPool;
use crate::model::Model;
use crate::value::MValue;

/// Configuration for [`check_axioms`].
#[derive(Debug, Clone)]
pub struct AxiomCheckConfig {
    /// Depth bound for the exhaustive enumeration of arguments.
    pub max_depth: usize,
    /// Cap on enumerated terms per sort.
    pub cap_per_sort: usize,
    /// Cap on instantiations checked per axiom (the variable assignments
    /// are a cartesian product; this truncates it).
    pub max_instances_per_axiom: usize,
    /// Additional random instantiations per axiom at `random_depth`.
    pub random_instances: usize,
    /// Depth for random sampling (usually deeper than `max_depth`).
    pub random_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AxiomCheckConfig {
    fn default() -> Self {
        AxiomCheckConfig {
            max_depth: 4,
            cap_per_sort: 60,
            max_instances_per_axiom: 4_000,
            random_instances: 100,
            random_depth: 8,
            seed: 0x1977,
        }
    }
}

/// A falsifying instantiation of an axiom.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// Label of the violated axiom.
    pub axiom: String,
    /// The variable assignment, as ground terms, rendered `name = term`.
    pub bindings: Vec<(String, String)>,
    /// What the left-hand side evaluated to.
    pub lhs_value: MValue,
    /// What the right-hand side evaluated to.
    pub rhs_value: MValue,
}

/// The result of a bounded axiom check.
#[derive(Debug, Clone)]
pub struct AxiomCheckReport {
    /// Falsifying instances found (empty on success).
    pub counterexamples: Vec<CounterExample>,
    /// Total instantiations evaluated.
    pub instances_checked: usize,
    /// Labels of axioms skipped because some variable's sort had no
    /// ground constructor terms (uninstantiated parameter sorts).
    pub skipped_axioms: Vec<String>,
    /// Telemetry from the run (worker utilization). Timings vary between
    /// runs; everything else in the report does not.
    pub stats: CheckStats,
}

impl AxiomCheckReport {
    /// Whether the implementation passed every checked instance.
    pub fn passed(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "axiom check: {} instance(s), {} counterexample(s), {} skipped axiom(s)\n",
            self.instances_checked,
            self.counterexamples.len(),
            self.skipped_axioms.len()
        );
        for ce in &self.counterexamples {
            out.push_str(&format!(
                "  axiom {} violated at {{{}}}: lhs = {:?}, rhs = {:?}\n",
                ce.axiom,
                ce.bindings
                    .iter()
                    .map(|(n, t)| format!("{n} = {t}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                ce.lhs_value,
                ce.rhs_value
            ));
        }
        out
    }
}

/// What an instance binds its axiom's variables to, in variable order.
enum Binding {
    /// An index into the pool of each variable's sort (exhaustive
    /// instances): the value was evaluated once, before phase B.
    Pool(Vec<usize>),
    /// Sampled deep terms (random instances), evaluated per instance.
    Sampled(Vec<Term>),
}

/// One axiom instantiation queued for evaluation.
struct Instance {
    axiom: usize,
    binding: Binding,
}

/// What an axiom's instances share: its variables, their sorts, and the
/// sort both sides are compared at.
struct AxiomPlan {
    vars: Vec<VarId>,
    var_sorts: Vec<SortId>,
    sort: SortId,
}

/// Checks every axiom of the model's specification against the
/// implementation, over enumerated and sampled ground arguments.
///
/// Each enumerated argument is evaluated once, and its value is shared by
/// every instance that binds it, so the model's `apply_op` must be a
/// function of its arguments (see [`Model`]). A model operation that
/// panics on an enumerated argument makes this function panic.
///
/// Runs on the calling thread; see [`check_axioms_jobs`] for the parallel
/// variant (whose report is identical apart from timing stats).
pub fn check_axioms(model: &(dyn Model + Sync), cfg: &AxiomCheckConfig) -> AxiomCheckReport {
    check_axioms_jobs(model, cfg, 1)
}

/// [`check_axioms`] with instance evaluation fanned out across `jobs`
/// worker threads (`0` = every available core).
///
/// Determinism: instances are *generated* sequentially (the exhaustive
/// odometer plus one seeded RNG stream define the instance list and its
/// order) and only *evaluated* in parallel; the merge restores generation
/// order, so the counterexample list is identical to the sequential one at
/// any job count. The model must be `Sync` — models built from
/// [`ModelBuilder`](crate::ModelBuilder) with `Send + Sync` values are.
pub fn check_axioms_jobs(
    model: &(dyn Model + Sync),
    cfg: &AxiomCheckConfig,
    jobs: usize,
) -> AxiomCheckReport {
    let spec = model.spec();
    let sig = spec.sig();
    let pool = TermPool::build(sig, cfg.max_depth, cfg.cap_per_sort);
    let mut rng = DetRng::new(cfg.seed);

    // Phase A (sequential): plan each axiom once and enumerate the
    // instance list.
    let axioms = spec.axioms();
    let plans: Vec<AxiomPlan> = axioms
        .iter()
        .map(|ax| {
            let vars = ax.lhs().vars();
            AxiomPlan {
                var_sorts: vars.iter().map(|&v| sig.var(v).sort()).collect(),
                vars,
                sort: ax
                    .lhs()
                    .sort(sig)
                    .expect("axioms are validated before checking"),
            }
        })
        .collect();
    let mut instances: Vec<Instance> = Vec::new();
    let mut skipped = Vec::new();
    // The value of a ground term depends only on the term: each pool term
    // of a sort some instance binds is evaluated once, here.
    let mut values: HashMap<SortId, Vec<MValue>> = HashMap::new();
    for (ai, (axiom, plan)) in axioms.iter().zip(&plans).enumerate() {
        let var_sorts = &plan.var_sorts;
        if !pool.inhabits_all(var_sorts.iter().copied()) {
            skipped.push(axiom.label().to_owned());
            continue;
        }
        for &s in var_sorts {
            values.entry(s).or_insert_with(|| {
                pool.terms(s)
                    .iter()
                    .map(|t| eval_ground(model, t))
                    .collect()
            });
        }

        // Exhaustive product over the pools, truncated.
        let lens: Vec<usize> = var_sorts.iter().map(|&s| pool.terms(s).len()).collect();
        let mut indices = vec![0usize; lens.len()];
        let mut produced = 0;
        'product: loop {
            if produced >= cfg.max_instances_per_axiom {
                break;
            }
            instances.push(Instance {
                axiom: ai,
                binding: Binding::Pool(indices.clone()),
            });
            produced += 1;
            let mut k = indices.len();
            loop {
                if k == 0 {
                    break 'product;
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < lens[k] {
                    break;
                }
                indices[k] = 0;
            }
        }

        // Random deep instances.
        if !var_sorts.is_empty() {
            for _ in 0..cfg.random_instances {
                let sampled: Option<Vec<Term>> = var_sorts
                    .iter()
                    .map(|&s| random_ctor_term(sig, s, cfg.random_depth, &mut rng))
                    .collect();
                let Some(sampled) = sampled else { break };
                instances.push(Instance {
                    axiom: ai,
                    binding: Binding::Sampled(sampled),
                });
            }
        }
    }

    // Phase B (parallel): evaluate every instance against the model.
    let run = run_indexed(jobs, &instances, |_, inst| {
        let axiom = &axioms[inst.axiom];
        let plan = &plans[inst.axiom];
        let env: HashMap<VarId, MValue> = match &inst.binding {
            Binding::Pool(indices) => plan
                .vars
                .iter()
                .zip(&plan.var_sorts)
                .zip(indices)
                .map(|((&v, s), &i)| (v, values[s][i].clone()))
                .collect(),
            Binding::Sampled(terms) => plan
                .vars
                .iter()
                .zip(terms)
                .map(|(&v, t)| (v, eval_ground(model, t)))
                .collect(),
        };
        let lhs_value = eval_with_env(model, axiom.lhs(), &env);
        let rhs_value = eval_with_env(model, axiom.rhs(), &env);
        if model.values_equal(plan.sort, &lhs_value, &rhs_value) {
            return None;
        }
        let term_of = |k: usize| match &inst.binding {
            Binding::Pool(indices) => &pool.terms(plan.var_sorts[k])[indices[k]],
            Binding::Sampled(terms) => &terms[k],
        };
        Some(CounterExample {
            axiom: axiom.label().to_owned(),
            bindings: plan
                .vars
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    (
                        sig.var(v).name().to_owned(),
                        display::term(sig, term_of(k)).to_string(),
                    )
                })
                .collect(),
            lhs_value,
            rhs_value,
        })
    });
    let instances_checked = instances.len();
    let mut stats = CheckStats::default();
    stats.absorb(&run.busy, run.elapsed, instances_checked);
    let counterexamples: Vec<CounterExample> = run.results.into_iter().flatten().collect();

    AxiomCheckReport {
        counterexamples,
        instances_checked,
        skipped_axioms: skipped,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use adt_core::{Spec, SpecBuilder};
    use std::collections::VecDeque;

    /// The Queue of §3, with Item = two constants.
    fn queue_spec() -> Spec {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let front = b.op("FRONT", [queue], item);
        let remove = b.op("REMOVE", [queue], queue);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        b.ctor("A", [], item);
        b.ctor("B", [], item);
        let q = Term::Var(b.var("q", queue));
        let i = Term::Var(b.var("i", item));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
        b.axiom(
            "q2",
            b.app(is_empty, [b.app(add, [q.clone(), i.clone()])]),
            ff,
        );
        b.axiom("q3", b.app(front, [b.app(new, [])]), Term::Error(item));
        b.axiom(
            "q4",
            b.app(front, [b.app(add, [q.clone(), i.clone()])]),
            Term::ite(
                b.app(is_empty, [q.clone()]),
                i.clone(),
                b.app(front, [q.clone()]),
            ),
        );
        b.axiom("q5", b.app(remove, [b.app(new, [])]), Term::Error(queue));
        b.axiom(
            "q6",
            b.app(remove, [b.app(add, [q.clone(), i.clone()])]),
            Term::ite(
                b.app(is_empty, [q.clone()]),
                b.app(new, []),
                b.app(add, [b.app(remove, [q]), i]),
            ),
        );
        b.build().unwrap()
    }

    /// A correct FIFO model over `VecDeque` (plain values, no interior
    /// mutability — the model must be `Sync` for the parallel checker).
    fn fifo_model(spec: &Spec) -> crate::TableModel<'_> {
        let deque = |args: &[MValue]| -> VecDeque<String> {
            args[0].downcast::<VecDeque<String>>().unwrap().clone()
        };
        ModelBuilder::new(spec)
            .op("NEW", |_| MValue::data(VecDeque::<String>::new()))
            .op("A", |_| "A".into())
            .op("B", |_| "B".into())
            .op("ADD", move |args| {
                let mut d = deque(args);
                d.push_back(args[1].as_str().unwrap().to_owned());
                MValue::data(d)
            })
            .op("FRONT", move |args| match deque(args).front() {
                Some(s) => MValue::Str(s.clone()),
                None => MValue::Error,
            })
            .op("REMOVE", move |args| {
                let mut d = deque(args);
                if d.pop_front().is_none() {
                    return MValue::Error;
                }
                MValue::data(d)
            })
            .op("IS_EMPTY?", move |args| {
                MValue::Bool(deque(args).is_empty())
            })
            .eq("Queue", |a, b| {
                a.downcast::<VecDeque<String>>() == b.downcast::<VecDeque<String>>()
            })
            .build()
            .unwrap()
    }

    /// A LIFO (stack) model — satisfies the signature but not the axioms.
    fn lifo_model(spec: &Spec) -> crate::TableModel<'_> {
        let vec =
            |args: &[MValue]| -> Vec<String> { args[0].downcast::<Vec<String>>().unwrap().clone() };
        ModelBuilder::new(spec)
            .op("NEW", |_| MValue::data(Vec::<String>::new()))
            .op("A", |_| "A".into())
            .op("B", |_| "B".into())
            .op("ADD", move |args| {
                let mut v = vec(args);
                v.push(args[1].as_str().unwrap().to_owned());
                MValue::data(v)
            })
            .op("FRONT", move |args| match vec(args).last() {
                Some(s) => MValue::Str(s.clone()),
                None => MValue::Error,
            })
            .op("REMOVE", move |args| {
                let mut v = vec(args);
                if v.pop().is_none() {
                    return MValue::Error;
                }
                MValue::data(v)
            })
            .op("IS_EMPTY?", move |args| MValue::Bool(vec(args).is_empty()))
            .eq("Queue", |a, b| {
                a.downcast::<Vec<String>>() == b.downcast::<Vec<String>>()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn correct_fifo_passes_all_axioms() {
        let spec = queue_spec();
        let model = fifo_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
        // 3 ground axioms + 3 axioms over (15 queues × 2 items) enumerated
        // plus 100 random instances each.
        assert_eq!(report.instances_checked, 3 + 3 * (15 * 2 + 100));
        assert!(report.skipped_axioms.is_empty());
    }

    #[test]
    fn lifo_masquerading_as_queue_is_caught() {
        // The paper's §2 point: the *signatures* of Stack and Queue are
        // isomorphic; only the axioms tell them apart. The axiom check
        // must reject a stack pretending to be a queue.
        let spec = queue_spec();
        let model = lifo_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(!report.passed());
        // The violated axioms are exactly the FIFO-order ones (q4/q6).
        let violated: std::collections::HashSet<&str> = report
            .counterexamples
            .iter()
            .map(|c| c.axiom.as_str())
            .collect();
        assert!(
            violated.contains("q4") || violated.contains("q6"),
            "{violated:?}"
        );
        assert!(!violated.contains("q1"));
        assert!(!violated.contains("q2"));
    }

    #[test]
    fn parallel_axiom_check_matches_sequential() {
        let spec = queue_spec();
        for model in [fifo_model(&spec), lifo_model(&spec)] {
            let cfg = AxiomCheckConfig::default();
            let seq = check_axioms_jobs(&model, &cfg, 1);
            let par = check_axioms_jobs(&model, &cfg, 4);
            assert_eq!(seq.passed(), par.passed());
            assert_eq!(seq.instances_checked, par.instances_checked);
            assert_eq!(seq.skipped_axioms, par.skipped_axioms);
            assert_eq!(seq.summary(), par.summary());
        }
    }

    #[test]
    fn counterexamples_carry_readable_bindings() {
        let spec = queue_spec();
        let model = lifo_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        let ce = &report.counterexamples[0];
        assert!(!ce.bindings.is_empty());
        // Bindings are printable term strings, e.g. q = ADD(NEW, A).
        assert!(ce.bindings.iter().any(|(_, t)| t.contains("ADD")), "{ce:?}");
        let summary = report.summary();
        assert!(summary.contains("violated at"), "{summary}");
    }

    #[test]
    #[should_panic(expected = "ADD past two")]
    fn a_model_panic_on_an_enumerated_argument_propagates() {
        let spec = queue_spec();
        let model = ModelBuilder::new(&spec)
            .op("NEW", |_| MValue::Int(0))
            .op("A", |_| "A".into())
            .op("B", |_| "B".into())
            .op("ADD", |args| {
                let n = args[0].as_int().unwrap();
                assert!(n < 2, "ADD past two");
                MValue::Int(n + 1)
            })
            .op("FRONT", |_| MValue::Error)
            .op("REMOVE", |_| MValue::Error)
            .op("IS_EMPTY?", |args| {
                MValue::Bool(args[0].as_int() == Some(0))
            })
            .build()
            .unwrap();
        check_axioms_jobs(&model, &AxiomCheckConfig::default(), 2);
    }

    #[test]
    fn uninstantiated_parameter_sorts_skip_axioms() {
        // Queue without Item constants: q4 etc. cannot be instantiated.
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        let q = Term::Var(b.var("q", queue));
        let i = Term::Var(b.var("i", item));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
        b.axiom("q2", b.app(is_empty, [b.app(add, [q, i])]), ff);
        let spec = b.build().unwrap();
        let model = ModelBuilder::new(&spec)
            .op("NEW", |_| MValue::Int(0))
            .op("ADD", |args| MValue::Int(args[0].as_int().unwrap() + 1))
            .op("IS_EMPTY?", |args| {
                MValue::Bool(args[0].as_int() == Some(0))
            })
            .build()
            .unwrap();
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert_eq!(report.skipped_axioms, vec!["q2".to_owned()]);
        assert!(report.passed());
        assert!(report.instances_checked >= 1); // q1 still ran
    }
}
