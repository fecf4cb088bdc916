//! Representation proofs: the mechanization of §4.
//!
//! Given an abstract specification (Symboltable, axioms 1–9), a *combined*
//! concrete specification (Stack + Array axioms, definitions of the primed
//! operations, and the abstraction function Φ as rewrite rules), and a map
//! from abstract to concrete operation names, [`translate_obligations`]
//! produces one proof obligation per abstract axiom:
//!
//! * if the axiom's range is the type being defined:
//!   `Φ(f'(x*')) = Φ(z')` (case (a) in the paper);
//! * otherwise: `f'(x*') = z'` (case (b)).
//!
//! [`verify_obligation`] then proves each obligation by normalization with
//! boolean case analysis, instantiating concrete variables over
//! constructors as needed — optionally *restricted* to a subset of
//! constructors, which is how environment assumptions like Assumption 1
//! ("an identifier is never added to an empty symbol table", i.e. stack
//! variables range over `PUSH`-terms only) enter the proof. This is the
//! paper's **conditional correctness**.

use std::collections::HashMap;
use std::iter::successors;

use adt_core::{display, OpId, SortId, Spec, Term, VarId};
use adt_rewrite::{Proof, Rewriter};

use crate::induction::instantiate_case;

/// The name maps taking an abstract specification into a concrete one.
#[derive(Debug, Clone, Default)]
pub struct OpMap {
    ops: Vec<(String, String)>,
    sorts: Vec<(String, String)>,
}

impl OpMap {
    /// An empty map (names translate to themselves).
    pub fn new() -> Self {
        OpMap::default()
    }

    /// Maps the abstract operation `abs` to the concrete operation `conc`
    /// (e.g. `ADD` → `ADD'`).
    #[must_use]
    pub fn op(mut self, abs: &str, conc: &str) -> Self {
        self.ops.push((abs.to_owned(), conc.to_owned()));
        self
    }

    /// Maps the abstract sort `abs` to the concrete sort `conc`
    /// (e.g. `Symboltable` → `Stack`).
    #[must_use]
    pub fn sort(mut self, abs: &str, conc: &str) -> Self {
        self.sorts.push((abs.to_owned(), conc.to_owned()));
        self
    }

    fn op_name<'n>(&'n self, abs: &'n str) -> &'n str {
        self.ops
            .iter()
            .find(|(a, _)| a == abs)
            .map(|(_, c)| c.as_str())
            .unwrap_or(abs)
    }

    fn sort_name<'n>(&'n self, abs: &'n str) -> &'n str {
        self.sorts
            .iter()
            .find(|(a, _)| a == abs)
            .map(|(_, c)| c.as_str())
            .unwrap_or(abs)
    }
}

/// Which form a proof obligation takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationKind {
    /// Range is the defined type: both sides are wrapped in Φ.
    Phi,
    /// Range is another sort: the translated sides are compared directly.
    Direct,
}

/// One translated proof obligation, expressed in the combined concrete
/// specification returned alongside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Label of the abstract axiom this obligation came from.
    pub label: String,
    /// Left side, in the combined specification.
    pub lhs: Term,
    /// Right side, in the combined specification.
    pub rhs: Term,
    /// Whether Φ wrapping was applied.
    pub kind: ObligationKind,
}

/// Translates every axiom of `abstract_spec` into a proof obligation over
/// (an extension of) `concrete`.
///
/// `phi` names the abstraction operation in the concrete specification
/// (required if any abstract axiom ranges over a sort of interest of the
/// abstract spec). Abstract variables are recreated in the concrete
/// signature with the same names and mapped sorts; the returned
/// specification is `concrete` plus those variables.
///
/// # Errors
///
/// Returns a description of the first unmappable name.
pub fn translate_obligations(
    abstract_spec: &Spec,
    concrete: &Spec,
    map: &OpMap,
    phi: Option<&str>,
) -> Result<(Spec, Vec<Obligation>), String> {
    let sig = concrete.sig();
    let abs_sig = abstract_spec.sig();

    // Sort translation table.
    let mut sort_table: HashMap<SortId, SortId> = HashMap::new();
    for s in abs_sig.sort_ids() {
        let abs_name = abs_sig.sort(s).name();
        let conc_name = map.sort_name(abs_name);
        let conc = sig
            .find_sort(conc_name)
            .ok_or_else(|| format!("sort `{conc_name}` not found in the concrete spec"))?;
        sort_table.insert(s, conc);
    }

    // Operation translation table.
    let mut op_table: HashMap<OpId, OpId> = HashMap::new();
    for op in abs_sig.op_ids() {
        let abs_name = abs_sig.op(op).name();
        let conc_name = map.op_name(abs_name);
        let conc = sig
            .find_op(conc_name)
            .ok_or_else(|| format!("operation `{conc_name}` not found in the concrete spec"))?;
        op_table.insert(op, conc);
    }

    // Variable translation table: a concrete variable of the same name
    // and sort is reused; otherwise one is minted under the abstract name,
    // or with `~abs` appended while that name is taken.
    let (ext, var_table) = concrete.extend(|fresh| {
        let mut var_table: HashMap<VarId, VarId> = HashMap::new();
        for v in abs_sig.var_ids() {
            let name = abs_sig.var(v).name();
            let sort = sort_table[&abs_sig.var(v).sort()];
            let conc = match fresh.sig().find_var(name) {
                Some(existing) if fresh.sig().var(existing).sort() == sort => existing,
                _ => fresh.var(
                    sort,
                    successors(Some(name.to_owned()), |n| Some(format!("{n}~abs"))),
                ),
            };
            var_table.insert(v, conc);
        }
        var_table
    });

    let phi_op = match phi {
        Some(name) => Some(
            sig.find_op(name)
                .ok_or_else(|| format!("abstraction operation `{name}` not found"))?,
        ),
        None => None,
    };

    let mut obligations = Vec::new();
    for ax in abstract_spec.axioms() {
        let lhs = translate_term(ax.lhs(), &op_table, &sort_table, &var_table);
        let rhs = translate_term(ax.rhs(), &op_table, &sort_table, &var_table);
        let range = ax
            .lhs()
            .sort(abs_sig)
            .expect("axioms of a valid spec are well-sorted");
        let kind = if abstract_spec.is_toi(range) {
            ObligationKind::Phi
        } else {
            ObligationKind::Direct
        };
        let (lhs, rhs) = match kind {
            ObligationKind::Phi => {
                let phi_op = phi_op.ok_or_else(|| {
                    format!(
                        "axiom `{}` ranges over the defined type but no abstraction \
                         operation was given",
                        ax.label()
                    )
                })?;
                (Term::App(phi_op, vec![lhs]), Term::App(phi_op, vec![rhs]))
            }
            ObligationKind::Direct => (lhs, rhs),
        };
        obligations.push(Obligation {
            label: ax.label().to_owned(),
            lhs,
            rhs,
            kind,
        });
    }
    Ok((ext, obligations))
}

fn translate_term(
    term: &Term,
    ops: &HashMap<OpId, OpId>,
    sorts: &HashMap<SortId, SortId>,
    vars: &HashMap<VarId, VarId>,
) -> Term {
    match term {
        Term::Var(v) => Term::Var(vars[v]),
        Term::Error(s) => Term::Error(sorts[s]),
        Term::App(op, args) => Term::App(
            ops[op],
            args.iter()
                .map(|a| translate_term(a, ops, sorts, vars))
                .collect(),
        ),
        Term::Ite(ite) => Term::ite(
            translate_term(&ite.cond, ops, sorts, vars),
            translate_term(&ite.then_branch, ops, sorts, vars),
            translate_term(&ite.else_branch, ops, sorts, vars),
        ),
    }
}

/// Configuration for [`verify_obligation`].
#[derive(Debug, Clone)]
pub struct ProofConfig {
    /// Boolean case-split budget inside each normalization proof.
    pub max_splits: usize,
    /// How many rounds of constructor case analysis on variables.
    pub case_depth: usize,
    /// For each sort (by name), the constructors (by name) a variable of
    /// that sort may be instantiated with. Sorts not listed use all of
    /// their constructors. This is how environment assumptions enter:
    /// Assumption 1 is `restrict("Stack", ["PUSH"])`.
    pub restrictions: Vec<(String, Vec<String>)>,
    /// Rewriting fuel per normalization.
    pub fuel: u64,
}

impl Default for ProofConfig {
    fn default() -> Self {
        ProofConfig {
            max_splits: 8,
            case_depth: 3,
            restrictions: Vec::new(),
            fuel: 200_000,
        }
    }
}

impl ProofConfig {
    /// Adds a constructor restriction for a sort.
    #[must_use]
    pub fn restrict(mut self, sort: &str, ctors: &[&str]) -> Self {
        self.restrictions.push((
            sort.to_owned(),
            ctors.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }
}

/// The outcome of verifying one obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationOutcome {
    /// Proved in every case.
    Proved {
        /// Total leaf cases closed.
        cases: usize,
    },
    /// A case failed; all terms are rendered strings (the underlying
    /// extended specification is internal).
    Failed {
        /// The chain of case instantiations leading to the failure,
        /// rendered `var := CTOR(…)`.
        trail: Vec<String>,
        /// Boolean assumptions active on the failing path.
        assumptions: Vec<String>,
        /// Normal form of the left side.
        lhs_nf: String,
        /// Normal form of the right side.
        rhs_nf: String,
    },
}

impl ObligationOutcome {
    /// Whether the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ObligationOutcome::Proved { .. })
    }
}

/// Verifies one obligation over the combined specification.
///
/// # Errors
///
/// Returns a rewriting error (fuel exhaustion) if normalization fails.
pub fn verify_obligation(
    spec: &Spec,
    ob: &Obligation,
    cfg: &ProofConfig,
) -> Result<ObligationOutcome, adt_rewrite::RewriteError> {
    let mut trail = Vec::new();
    verify_rec(spec, &ob.lhs, &ob.rhs, cfg, cfg.case_depth, 1, &mut trail)
}

fn verify_rec(
    spec: &Spec,
    lhs: &Term,
    rhs: &Term,
    cfg: &ProofConfig,
    depth: usize,
    round: usize,
    trail: &mut Vec<String>,
) -> Result<ObligationOutcome, adt_rewrite::RewriteError> {
    let rw = Rewriter::new(spec).with_fuel(cfg.fuel);
    match rw.prove_equal(lhs, rhs, cfg.max_splits)? {
        Proof::Proved { cases } => Ok(ObligationOutcome::Proved { cases }),
        Proof::Undecided {
            assumptions,
            lhs_nf,
            rhs_nf,
        } => {
            if depth > 0 {
                if let Some(var) = pick_split_var(spec, lhs, rhs) {
                    return split_var(spec, lhs, rhs, var, cfg, depth, round, trail);
                }
            }
            Ok(ObligationOutcome::Failed {
                trail: trail.clone(),
                assumptions: assumptions
                    .iter()
                    .map(|(t, b)| format!("{} = {b}", display::term(spec.sig(), t)))
                    .collect(),
                lhs_nf: display::term(spec.sig(), &lhs_nf).to_string(),
                rhs_nf: display::term(spec.sig(), &rhs_nf).to_string(),
            })
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn split_var(
    spec: &Spec,
    lhs: &Term,
    rhs: &Term,
    var: VarId,
    cfg: &ProofConfig,
    depth: usize,
    round: usize,
    trail: &mut Vec<String>,
) -> Result<ObligationOutcome, adt_rewrite::RewriteError> {
    let sort = spec.sig().var(var).sort();
    let allowed = allowed_ctors(spec, sort, cfg);
    let mut total = 0;
    for ctor in allowed {
        let (ext, subst) = instantiate_case(spec, var, ctor, round);
        let case_lhs = subst.apply(lhs);
        let case_rhs = subst.apply(rhs);
        trail.push(format!(
            "{} := {}",
            spec.sig().var(var).name(),
            display::term(
                ext.sig(),
                subst.get(var).expect("case substitution binds var")
            )
        ));
        let outcome = verify_rec(&ext, &case_lhs, &case_rhs, cfg, depth - 1, round + 1, trail)?;
        match outcome {
            ObligationOutcome::Proved { cases } => total += cases,
            failed @ ObligationOutcome::Failed { .. } => return Ok(failed),
        }
        trail.pop();
    }
    Ok(ObligationOutcome::Proved { cases: total })
}

/// The first variable of a splittable sort appearing in either side.
fn pick_split_var(spec: &Spec, lhs: &Term, rhs: &Term) -> Option<VarId> {
    let mut vars = lhs.vars();
    for v in rhs.vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.into_iter().find(|&v| {
        let sort = spec.sig().var(v).sort();
        spec.is_toi(sort) && spec.sig().constructors_of(sort).next().is_some()
    })
}

fn allowed_ctors(spec: &Spec, sort: SortId, cfg: &ProofConfig) -> Vec<OpId> {
    let sort_name = spec.sig().sort(sort).name();
    if let Some((_, names)) = cfg.restrictions.iter().find(|(s, _)| s == sort_name) {
        names.iter().filter_map(|n| spec.sig().find_op(n)).collect()
    } else {
        spec.sig().constructors_of(sort).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    /// Abstract spec: a counter with INC / IS_START?.
    fn abstract_counter() -> Spec {
        let mut b = SpecBuilder::new("Counter");
        let c = b.sort("Counter");
        let start = b.ctor("START", [], c);
        let inc = b.ctor("INC", [c], c);
        let is_start = b.op("IS_START?", [c], b.bool_sort());
        let dec = b.op("DEC", [c], c);
        let x = Term::Var(b.var("c", c));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("a1", b.app(is_start, [b.app(start, [])]), tt);
        b.axiom("a2", b.app(is_start, [b.app(inc, [x.clone()])]), ff);
        b.axiom("a3", b.app(dec, [b.app(start, [])]), Term::Error(c));
        b.axiom("a4", b.app(dec, [b.app(inc, [x.clone()])]), x);
        b.build().unwrap()
    }

    /// Concrete spec: counters represented as stacks of unit marks, with
    /// primed ops and Φ.
    fn concrete_stack(correct_dec: bool) -> Spec {
        let mut b = SpecBuilder::new("MarkStack");
        let s = b.sort("Marks");
        let c = b.sort("Counter"); // the abstract sort, target of Φ
        let start_abs = b.ctor("START", [], c);
        let inc_abs = b.ctor("INC", [c], c);
        let nil = b.ctor("NIL", [], s);
        let mark = b.ctor("MARK", [s], s);
        let start_p = b.op("START'", [], s);
        let inc_p = b.op("INC'", [s], s);
        let is_start_p = b.op("IS_START?'", [s], b.bool_sort());
        let dec_p = b.op("DEC'", [s], s);
        let phi = b.op("PHI", [s], c);
        let m = Term::Var(b.var("m", s));
        let tt = b.tt();
        let ff = b.ff();
        // Primed definitions.
        b.axiom("d1", b.app(start_p, []), b.app(nil, []));
        b.axiom("d2", b.app(inc_p, [m.clone()]), b.app(mark, [m.clone()]));
        b.axiom("d3", b.app(is_start_p, [b.app(nil, [])]), tt);
        b.axiom("d4", b.app(is_start_p, [b.app(mark, [m.clone()])]), ff);
        b.axiom("d5", b.app(dec_p, [b.app(nil, [])]), Term::Error(s));
        if correct_dec {
            b.axiom("d6", b.app(dec_p, [b.app(mark, [m.clone()])]), m.clone());
        } else {
            // Wrong: DEC' of a mark keeps the mark (off by one).
            b.axiom(
                "d6",
                b.app(dec_p, [b.app(mark, [m.clone()])]),
                b.app(mark, [m.clone()]),
            );
        }
        // Φ.
        b.axiom("phi1", b.app(phi, [b.app(nil, [])]), b.app(start_abs, []));
        b.axiom(
            "phi2",
            b.app(phi, [b.app(mark, [m.clone()])]),
            b.app(inc_abs, [b.app(phi, [m])]),
        );
        b.build().unwrap()
    }

    fn op_map() -> OpMap {
        OpMap::new()
            .sort("Counter", "Marks")
            .op("START", "START'")
            .op("INC", "INC'")
            .op("IS_START?", "IS_START?'")
            .op("DEC", "DEC'")
    }

    #[test]
    fn translation_produces_phi_and_direct_obligations() {
        let abs = abstract_counter();
        let conc = concrete_stack(true);
        let (ext, obs) = translate_obligations(&abs, &conc, &op_map(), Some("PHI")).unwrap();
        assert_eq!(obs.len(), 4);
        assert_eq!(obs[0].kind, ObligationKind::Direct); // IS_START? : Bool
        assert_eq!(obs[2].kind, ObligationKind::Phi); // DEC : Counter
                                                      // Phi obligations are Φ-wrapped applications.
        let phi = ext.sig().find_op("PHI").unwrap();
        assert!(matches!(&obs[2].lhs, Term::App(op, _) if *op == phi));
        // The abstract variable `c` exists in the extension with sort Marks.
        let v = ext.sig().find_var("c").unwrap();
        assert_eq!(
            ext.sig().var(v).sort(),
            ext.sig().find_sort("Marks").unwrap()
        );
    }

    #[test]
    fn a_taken_abstract_variable_name_gets_abs_appended() {
        // `c` and `c~abs` are Bool variables of the concrete spec, so the
        // abstract `c : Counter` becomes `c~abs~abs : Marks`.
        let conc = concrete_stack(true);
        let bool_sort = conc.sig().bool_sort();
        let (conc, _) = conc.extend(|fresh| {
            fresh.var(bool_sort, ["c".to_owned()]);
            fresh.var(bool_sort, ["c~abs".to_owned()]);
        });
        let (ext, obs) =
            translate_obligations(&abstract_counter(), &conc, &op_map(), Some("PHI")).unwrap();
        let v = ext.sig().find_var("c~abs~abs").unwrap();
        assert_eq!(
            ext.sig().var(v).sort(),
            ext.sig().find_sort("Marks").unwrap()
        );
        let a4 = obs.iter().find(|o| o.label == "a4").unwrap();
        assert!(a4.lhs.vars().contains(&v), "{:?}", a4.lhs);
    }

    #[test]
    fn correct_representation_proves_all_obligations() {
        let abs = abstract_counter();
        let conc = concrete_stack(true);
        let (ext, obs) = translate_obligations(&abs, &conc, &op_map(), Some("PHI")).unwrap();
        let cfg = ProofConfig::default();
        for ob in &obs {
            let outcome = verify_obligation(&ext, ob, &cfg).unwrap();
            assert!(outcome.is_proved(), "axiom {}: {outcome:?}", ob.label);
        }
    }

    #[test]
    fn broken_representation_fails_the_right_axiom() {
        let abs = abstract_counter();
        let conc = concrete_stack(false);
        let (ext, obs) = translate_obligations(&abs, &conc, &op_map(), Some("PHI")).unwrap();
        let cfg = ProofConfig::default();
        let mut failed = Vec::new();
        for ob in &obs {
            if !verify_obligation(&ext, ob, &cfg).unwrap().is_proved() {
                failed.push(ob.label.clone());
            }
        }
        // Only DEC's inductive axiom a4 breaks.
        assert_eq!(failed, vec!["a4".to_owned()]);
    }

    #[test]
    fn failure_reports_carry_the_case_trail() {
        let abs = abstract_counter();
        let conc = concrete_stack(false);
        let (ext, obs) = translate_obligations(&abs, &conc, &op_map(), Some("PHI")).unwrap();
        let a4 = obs.iter().find(|o| o.label == "a4").unwrap();
        let outcome = verify_obligation(&ext, a4, &ProofConfig::default()).unwrap();
        let ObligationOutcome::Failed { lhs_nf, rhs_nf, .. } = outcome else {
            panic!("expected failure");
        };
        assert_ne!(lhs_nf, rhs_nf);
        assert!(
            lhs_nf.contains("INC") || rhs_nf.contains("INC"),
            "{lhs_nf} vs {rhs_nf}"
        );
    }

    #[test]
    fn restrictions_limit_case_analysis() {
        // With DEC' broken only on NIL (axiom d5 made wrong), restricting
        // Marks to MARK-built values (the "legal environment") hides the
        // failure — conditional correctness in miniature.
        let abs = abstract_counter();
        let mut b = SpecBuilder::new("MarkStack");
        let s = b.sort("Marks");
        let c = b.sort("Counter");
        let start_abs = b.ctor("START", [], c);
        let inc_abs = b.ctor("INC", [c], c);
        let nil = b.ctor("NIL", [], s);
        let mark = b.ctor("MARK", [s], s);
        let start_p = b.op("START'", [], s);
        let inc_p = b.op("INC'", [s], s);
        let is_start_p = b.op("IS_START?'", [s], b.bool_sort());
        let dec_p = b.op("DEC'", [s], s);
        let phi = b.op("PHI", [s], c);
        let m = Term::Var(b.var("m", s));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("d1", b.app(start_p, []), b.app(nil, []));
        b.axiom("d2", b.app(inc_p, [m.clone()]), b.app(mark, [m.clone()]));
        b.axiom("d3", b.app(is_start_p, [b.app(nil, [])]), tt);
        b.axiom("d4", b.app(is_start_p, [b.app(mark, [m.clone()])]), ff);
        // WRONG on the boundary: DEC'(NIL) = NIL instead of error.
        b.axiom("d5", b.app(dec_p, [b.app(nil, [])]), b.app(nil, []));
        b.axiom("d6", b.app(dec_p, [b.app(mark, [m.clone()])]), m.clone());
        b.axiom("phi1", b.app(phi, [b.app(nil, [])]), b.app(start_abs, []));
        b.axiom(
            "phi2",
            b.app(phi, [b.app(mark, [m.clone()])]),
            b.app(inc_abs, [b.app(phi, [m])]),
        );
        let conc = b.build().unwrap();
        let (ext, obs) = translate_obligations(&abs, &conc, &op_map(), Some("PHI")).unwrap();

        // a3 (DEC(START) = error) mentions no variable: still fails — the
        // boundary bug is in a constant case.
        let a3 = obs.iter().find(|o| o.label == "a3").unwrap();
        assert!(!verify_obligation(&ext, a3, &ProofConfig::default())
            .unwrap()
            .is_proved());

        // a4 (DEC(INC(c)) = c): proved unrestricted too (the bug is only
        // on NIL *as the direct argument of DEC'*, and INC'(m) is never
        // NIL). Restricting changes nothing here but exercises the path.
        let a4 = obs.iter().find(|o| o.label == "a4").unwrap();
        let restricted = ProofConfig::default().restrict("Marks", &["MARK"]);
        assert!(verify_obligation(&ext, a4, &restricted)
            .unwrap()
            .is_proved());
    }
}
