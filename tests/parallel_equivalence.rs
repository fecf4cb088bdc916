//! Parallel/sequential equivalence: for every specification shipped in
//! `specs/`, the work-pool checkers must produce *byte-identical* reports
//! to the sequential ones at every job count. Parallelism is an
//! implementation detail of the engine; any observable difference is a
//! merge-order bug.
//!
//! No shipped specification has a critical pair, so the consistency
//! comparison also runs on a fixture with pairs under six heads, and the
//! order those pairs are enumerated in is pinned.

use adt_check::{
    check_completeness_with_config, check_consistency_with_config, random_ctor_term, CheckConfig,
    ProbeConfig,
};
use adt_core::{display, match_pattern, DetRng, Fuel, Session, Spec, SpecBuilder, Term, TermStore};
use adt_rewrite::{superpositions, RewriteError, Rewriter};
use adt_structures::sources;
use adt_verify::enumerate_terms;

#[test]
fn completeness_reports_are_identical_across_job_counts() {
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let seq = check_completeness_with_config(&spec, &CheckConfig::jobs(1));
        for jobs in [2, 4, 8] {
            let par = check_completeness_with_config(&spec, &CheckConfig::jobs(jobs));
            assert_eq!(
                seq.is_sufficiently_complete(),
                par.is_sufficiently_complete(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(seq.coverage(), par.coverage(), "{name} at {jobs} jobs");
            assert_eq!(seq.prompts(), par.prompts(), "{name} at {jobs} jobs");
            assert_eq!(
                seq.missing_case_count(),
                par.missing_case_count(),
                "{name} at {jobs} jobs"
            );
        }
    }
}

/// Six heads `A`–`F`, each with two overlapping axioms that disagree.
const OVERLAP_HEADS: &str = include_str!("fixtures/overlap_heads.adt");

#[test]
fn superpositions_come_out_in_declaration_order() {
    let spec = adt_dsl::parse(OVERLAP_HEADS).expect("fixture parses");
    let set = superpositions(&spec);
    let found: Vec<String> = set
        .superpositions
        .iter()
        .map(|sp| format!("{}/{}", sp.outer_rule, sp.inner_rule))
        .collect();
    let expected: Vec<String> = "abcdef"
        .chars()
        .flat_map(|op| [format!("{op}1/{op}2"), format!("{op}2/{op}1")])
        .collect();
    assert_eq!(found, expected);
    assert!(set.superpositions.iter().all(|sp| sp.position.is_empty()));
}

#[test]
fn consistency_reports_are_identical_across_job_counts() {
    let probe = ProbeConfig::default();
    // The shipped specs are proved consistent without running an item;
    // the fixtures' pairs and probes run.
    let fixtures = [
        ("overlap_heads", OVERLAP_HEADS),
        ("f_h_pairs", include_str!("fixtures/f_h_pairs.adt")),
    ];
    for (name, source) in sources::all().into_iter().chain(fixtures) {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let seq = check_consistency_with_config(&spec, &probe, &CheckConfig::jobs(1));
        for jobs in [2, 4, 8] {
            let par = check_consistency_with_config(&spec, &probe, &CheckConfig::jobs(jobs));
            assert_eq!(
                seq.is_consistent(),
                par.is_consistent(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(
                seq.contradictions(),
                par.contradictions(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(seq.summary(), par.summary(), "{name} at {jobs} jobs");
            assert_eq!(
                seq.pair_verdicts(),
                par.pair_verdicts(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(
                seq.probe_verdicts(),
                par.probe_verdicts(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(
                seq.pairs_checked(),
                par.pairs_checked(),
                "{name} at {jobs} jobs"
            );
            assert_eq!(seq.probes_run(), par.probes_run(), "{name} at {jobs} jobs");
        }
    }
}

/// Renders one normalization outcome as a deterministic verdict string,
/// so engine comparisons are byte-for-byte.
fn verdict(rw: &Rewriter<'_>, result: adt_rewrite::Result<adt_core::Term>) -> String {
    match result {
        Ok(nf) => format!("ok {}", display::term(rw.spec().sig(), &nf)),
        Err(e) => match e.exhaustion() {
            Some(spent) => format!("exhausted after {} steps", spent.steps),
            None => format!("error {e}"),
        },
    }
}

/// [`verdict`] for the session's id path: intern, `normalize_id` (which
/// evaluates in the session store and answers from its normal-form table
/// once the term has been seen), materialize.
fn session_verdict(session: &Session, rw: &Rewriter<'_>, term: &Term) -> String {
    let result = rw
        .normalize_id(session, session.intern(term))
        .map(|nf| session.term(nf));
    verdict(rw, result)
}

#[test]
fn all_three_engines_agree_on_every_shipped_spec() {
    // The arena-backed hot path, the session's id path (first, then warm
    // from its normal-form table), and the pre-arena tree-walking oracle
    // must produce byte-identical verdicts for every ground probe of every
    // shipped specification. Before the first session leg, the probe runs
    // through other session rewriters at fuel 1, 2 and 3, so the store
    // also holds whatever entries runs that exhausted left behind. The
    // store and the interning layer are pure implementation detail; any
    // visible difference is a soundness bug.
    let mut probes_checked = 0usize;
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let plain = Rewriter::new(&spec);
        let session = Session::new(spec.clone());
        let shared = Rewriter::for_session(&session);
        let starved: Vec<_> = (1..=3)
            .map(|fuel| Rewriter::for_session(&session).with_fuel(fuel))
            .collect();
        for probe in enumerate_terms(spec.sig(), 2, 6) {
            let fast = verdict(&plain, plain.normalize(&probe));
            let id = session.intern(&probe);
            for rw in &starved {
                let _ = rw.normalize_id(&session, id);
            }
            let first = session_verdict(&session, &shared, &probe);
            let oracle = verdict(&plain, plain.normalize_reference(&probe).map(|n| n.term));
            let shown = display::term(spec.sig(), &probe);
            assert_eq!(fast, oracle, "{name}: plain vs reference on `{shown}`");
            assert_eq!(fast, first, "{name}: plain vs session on `{shown}`");
            // Warm-session runs must also agree with the first one.
            let warm = session_verdict(&session, &shared, &probe);
            assert_eq!(first, warm, "{name}: first vs warm session on `{shown}`");
            probes_checked += 1;
        }
    }
    assert!(
        probes_checked > 100,
        "only {probes_checked} probes enumerated"
    );
}

#[test]
fn work_sharing_never_changes_the_normal_form() {
    // The arena engine normalizes each *shared* ground redex once per
    // run (hash-consing gives duplicated subterms one identity), so its
    // step count may undercut the tree-walking oracle's — but never the
    // result. Pin both halves of that contract.
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let rw = Rewriter::new(&spec);
        for probe in enumerate_terms(spec.sig(), 2, 4) {
            let (Ok(fast), Ok(slow)) = (rw.normalize_full(&probe), rw.normalize_reference(&probe))
            else {
                continue;
            };
            let shown = display::term(spec.sig(), &probe);
            assert_eq!(fast.term, slow.term, "{name}: `{shown}`");
            assert!(
                fast.steps <= slow.steps,
                "{name}: `{shown}` took {} arena steps but {} reference steps",
                fast.steps,
                slow.steps
            );
        }
    }
}

#[test]
fn zero_jobs_means_all_cores_and_still_matches() {
    let spec = sources::load("queue").unwrap();
    let seq = check_completeness_with_config(&spec, &CheckConfig::jobs(1));
    let auto = check_completeness_with_config(&spec, &CheckConfig::jobs(0));
    assert_eq!(seq.coverage(), auto.coverage());
    assert_eq!(seq.prompts(), auto.prompts());
}

/// The first stuck `if` condition anywhere in a term, if one exists —
/// the test-local analogue of the prover's internal case-split picker,
/// used to manufacture meaningful assumption contexts from shipped
/// specifications.
fn first_ite_cond(term: &Term) -> Option<&Term> {
    match term {
        Term::Var(_) | Term::Error(_) => None,
        Term::Ite(ite) => Some(&ite.cond),
        Term::App(_, args) => args.iter().find_map(first_ite_cond),
    }
}

#[test]
fn traced_runs_reach_the_same_normal_form_on_every_engine() {
    // `normalize_traced` shares the cold-store hot path with
    // `normalize`; tracing only switches the normal-form table off so
    // every derivation step is re-derived and recorded. The observable
    // contract: the traced normal form equals the untraced one on the
    // plain and session-backed engines — including after the session's
    // store has been warmed with the same term, whose recorded normal
    // form must not short-circuit the derivation the trace captures.
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec.clone());
        let plain = Rewriter::new(&spec);
        let shared = Rewriter::for_session(&session);
        for probe in enumerate_terms(spec.sig(), 2, 4) {
            let Ok(base) = plain.normalize_full(&probe) else {
                continue;
            };
            let shown = display::term(spec.sig(), &probe);
            for (engine, rw) in [("plain", &plain), ("session", &shared)] {
                let (nf, _) = rw.normalize_traced(&probe).unwrap();
                assert_eq!(nf, base.term, "{name}: traced {engine} on `{shown}`");
            }
            // Warm the session, then trace again: the trace must still
            // record the whole derivation.
            shared
                .normalize_id(&session, session.intern(&probe))
                .unwrap();
            let (warm, trace) = shared.normalize_traced(&probe).unwrap();
            assert_eq!(warm, base.term, "{name}: traced warm session on `{shown}`");
            assert!(
                trace.len() as u64 >= base.steps,
                "{name}: the warm trace of `{shown}` skipped steps"
            );
        }
    }
}

#[test]
fn assumption_contexts_agree_with_the_reference_engine() {
    // `normalize_under` runs on the arena hot path with assumption-laden
    // subterms excluded from the caches; the tree-walking oracle
    // implements the same contextual semantics with no caches at all.
    // Assumptions are harvested from the shipped specs themselves: the
    // first `if` condition of each conditional axiom right-hand side,
    // asserted both true and false. Symbolic normalization can diverge
    // (arithmetic's DIVMOD unfolds forever on a free variable), so every
    // engine runs under a small depth budget and items the plain engine
    // cannot finish are skipped rather than compared.
    let budget = Fuel::default().with_max_depth(64);
    let mut contexts_checked = 0usize;
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec.clone());
        let plain = Rewriter::new(&spec).with_budget(budget);
        let shared = Rewriter::for_session(&session).with_budget(budget);
        for ax in spec.axioms() {
            let Some(cond) = first_ite_cond(ax.rhs()).cloned() else {
                continue;
            };
            let shown = display::term(spec.sig(), ax.rhs());
            for value in [true, false] {
                let asms = [(cond.clone(), value)];
                let Ok(base) = plain.normalize_under(ax.rhs(), &asms) else {
                    continue;
                };
                let oracle = plain.normalize_under_reference(ax.rhs(), &asms).unwrap();
                assert_eq!(
                    base, oracle,
                    "{name}: `{shown}` under {value}, plain vs reference"
                );
                let sessioned = shared.normalize_under(ax.rhs(), &asms).unwrap();
                assert_eq!(
                    base, sessioned,
                    "{name}: `{shown}` under {value}, plain vs session"
                );
                // Warm the session with the context-free normal form; the
                // contextual one must not pick it up.
                let _ = shared.normalize_id(&session, session.intern(ax.rhs()));
                let warm = shared.normalize_under(ax.rhs(), &asms).unwrap();
                assert_eq!(
                    base, warm,
                    "{name}: `{shown}` under {value}, cold vs warm session"
                );
                contexts_checked += 1;
            }
        }
    }
    assert!(
        contexts_checked >= 10,
        "only {contexts_checked} assumption contexts exercised"
    );
}

#[test]
fn proofs_are_identical_across_engines() {
    // `prove_equal` drives its whole case-split search through the same
    // hot path; caches may change how much work is repeated but never
    // which `Proof` comes back. Every shipped axiom is provable from
    // itself, so lhs = rhs is a meaningful corpus: most close by
    // rewriting alone, the conditional ones exercise the splitter. The
    // depth budget keeps symbolic divergence (DIVMOD on a free variable)
    // a clean exhaustion instead of a deep recursion.
    let budget = Fuel::default().with_max_depth(64);
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec.clone());
        let plain = Rewriter::new(&spec).with_budget(budget);
        let shared = Rewriter::for_session(&session).with_budget(budget);
        for (idx, ax) in spec.axioms().iter().enumerate() {
            let Ok(base) = plain.prove_equal(ax.lhs(), ax.rhs(), 4) else {
                continue;
            };
            let sessioned = shared.prove_equal(ax.lhs(), ax.rhs(), 4).unwrap();
            assert_eq!(base, sessioned, "{name} axiom {idx}: plain vs session");
            // A second run against a session warmed with both sides must
            // return the same proof object, not a cache-shaped variant.
            for side in [ax.lhs(), ax.rhs()] {
                let _ = shared.normalize_id(&session, session.intern(side));
            }
            let warm = shared.prove_equal(ax.lhs(), ax.rhs(), 4).unwrap();
            assert_eq!(base, warm, "{name} axiom {idx}: cold vs warm session");
        }
    }
}

/// A seeded specification over `N = Z | S(N) | P(N, N)` with three
/// operations, lowest first: `B: N -> Bool`, `U: N -> N` and
/// `T: N N -> N`. Each has two to four axioms whose left sides are random
/// constructor patterns, repeated variables and overlaps included, and
/// whose right sides mix the pattern's variables, constructors, `error`,
/// conditionals on `B` and calls of lower operations. No right side
/// calls its own head, so every term normalizes.
fn seeded_spec(seed: u64) -> Spec {
    let mut rng = DetRng::new(seed);
    let mut b = SpecBuilder::new(format!("Seeded{seed}"));
    let n = b.sort("N");
    let z = b.ctor("Z", [], n);
    let s = b.ctor("S", [n], n);
    let p = b.ctor("P", [n, n], n);
    let bool_sort = b.bool_sort();
    let ops = [
        b.op("B", [n], bool_sort),
        b.op("U", [n], n),
        b.op("T", [n, n], n),
    ];
    let vars = [Term::Var(b.var("x", n)), Term::Var(b.var("y", n))];
    fn pattern(rng: &mut DetRng, depth: usize, c: &[adt_core::OpId; 3], vars: &[Term]) -> Term {
        match rng.below(if depth == 0 { 2 } else { 5 }) {
            0 => vars[rng.below(vars.len())].clone(),
            1 => Term::App(c[0], vec![]),
            2 | 3 => Term::App(c[1], vec![pattern(rng, depth - 1, c, vars)]),
            _ => Term::App(
                c[2],
                vec![
                    pattern(rng, depth - 1, c, vars),
                    pattern(rng, depth - 1, c, vars),
                ],
            ),
        }
    }
    let ctors = [z, s, p];
    for (level, &op) in ops.iter().enumerate() {
        for k in 0..2 + rng.below(3) {
            let arity = b.sig().op(op).arity();
            let lhs = Term::App(
                op,
                (0..arity)
                    .map(|_| pattern(&mut rng, 2, &ctors, &vars))
                    .collect(),
            );
            let bound: Vec<Term> = lhs.vars().into_iter().map(Term::Var).collect();
            let rhs = if level == 0 {
                [b.tt(), b.ff(), Term::Error(bool_sort)][rng.below(3)].clone()
            } else {
                // A value of N over the bound variables, possibly through
                // a lower operation, possibly under a condition on `B`.
                let value = |rng: &mut DetRng| {
                    let arg = if bound.is_empty() {
                        pattern(rng, 1, &ctors, &[Term::App(z, vec![])])
                    } else {
                        pattern(rng, 1, &ctors, &bound)
                    };
                    match rng.below(4) {
                        0 if level == 2 => Term::App(ops[1], vec![arg]),
                        1 => Term::Error(n),
                        _ => arg,
                    }
                };
                let then_value = value(&mut rng);
                let else_value = value(&mut rng);
                if rng.below(2) == 0 {
                    let cond = Term::App(ops[0], vec![else_value.clone()]);
                    Term::ite(cond, then_value, else_value)
                } else {
                    then_value
                }
            };
            b.axiom(format!("{}{k}", b.sig().op(op).name()), lhs, rhs);
        }
    }
    b.build().expect("seeded specs are well-formed")
}

/// A normalization outcome with its step count, as a comparable value.
type Outcome = Result<(Term, u64), RewriteError>;

#[test]
fn probes_on_ids_match_the_tree_rewrites() {
    // The consistency probes run on ids in one reused store: the term is
    // interned once, `one_step_reducts` lists its reducts and
    // `normalize_in` normalizes each in place. The oracle is the tree
    // rewrite (match the left side at each `subterms` position, apply
    // the substitution, `replace_at`) and a fresh run per reduct
    // (`normalize_full`). Reducts must agree in order; normal forms,
    // steps and exhaustion receipts at every step budget up to one past
    // the steps taken.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&fixtures)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "adt"))
        .collect();
    files.sort();
    let mut specs: Vec<(String, Spec)> = sources::all()
        .into_iter()
        .map(|(name, source)| (name.to_owned(), adt_dsl::parse(source).unwrap()))
        .collect();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        specs.push((path.display().to_string(), adt_dsl::parse(&text).unwrap()));
    }
    specs.extend((1..=8).map(|seed| (format!("seeded {seed}"), seeded_spec(seed))));

    let mut store = TermStore::new();
    let (mut reducts_checked, mut multi_reduct_probes) = (0usize, 0usize);
    for (name, spec) in &specs {
        let rw = Rewriter::new(spec);
        let observers: Vec<_> = spec.derived_ops().collect();
        let mut rng = DetRng::new(ProbeConfig::default().seed);
        for _ in 0..if observers.is_empty() { 0 } else { 100 } {
            let op = observers[rng.below(observers.len())];
            let args: Option<Vec<Term>> = spec
                .sig()
                .op(op)
                .args()
                .iter()
                .map(|&sort| random_ctor_term(spec.sig(), sort, 5, &mut rng))
                .collect();
            let Some(args) = args else { continue };
            let probe = Term::App(op, args);
            let shown = display::term(spec.sig(), &probe);

            let mut trees = Vec::new();
            for (pos, sub) in probe.subterms() {
                let Term::App(head, _) = sub else { continue };
                for rule in rw.rules().for_head(*head) {
                    if let Some(subst) = match_pattern(rule.lhs(), sub) {
                        trees.push(probe.replace_at(&pos, subst.apply(rule.rhs())).unwrap());
                    }
                }
            }
            store.clear();
            let root = store.arena_mut().intern(&probe);
            let ids = rw.one_step_reducts(store.arena_mut(), root);
            let materialized: Vec<Term> = ids.iter().map(|&id| store.arena().to_term(id)).collect();
            assert_eq!(materialized, trees, "{name}: reducts of `{shown}`");
            multi_reduct_probes += usize::from(ids.len() > 1);

            for (&id, tree) in ids.iter().zip(&trees) {
                let fresh: Outcome = rw.normalize_full(tree).map(|n| (n.term, n.steps));
                let in_store = |rw: &Rewriter<'_>, store: &mut TermStore| -> Outcome {
                    rw.normalize_in(store, id)
                        .map(|(nf, steps)| (store.arena().to_term(nf), steps))
                };
                assert_eq!(in_store(&rw, &mut store), fresh, "{name}: `{shown}`");
                let Ok((_, steps)) = fresh else { continue };
                for budget in 1..=steps + 1 {
                    let tight = Rewriter::new(spec).with_fuel(budget);
                    let fresh: Outcome = tight.normalize_full(tree).map(|n| (n.term, n.steps));
                    assert_eq!(
                        in_store(&tight, &mut store),
                        fresh,
                        "{name}: `{shown}` at fuel {budget}"
                    );
                }
                reducts_checked += 1;
            }
        }
    }
    assert!(reducts_checked > 1500, "only {reducts_checked} reducts");
    assert!(
        multi_reduct_probes > 100,
        "only {multi_reduct_probes} probes with two or more reducts"
    );
}
