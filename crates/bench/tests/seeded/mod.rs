//! Seeded specifications whose left-hand sides are constructor case
//! splits, shared by the tests of this directory.

use adt_core::{DetRng, OpId, Spec, SpecBuilder, Term, VarId};

/// How a seeded spec departs from a constructor case split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flaw {
    None,
    /// One more axiom whose left-hand side overlaps an existing one.
    Overlap,
    /// One left-hand side repeats a variable.
    NonLinear,
}

/// A seeded spec over `N = Z | S(N) | P(N, N)` and a parameter sort
/// `Item = A | B`, with operations `B?: N -> Bool`, `G: N -> Item`,
/// `U: N -> N` and `T: N N -> N`. Each operation's left-hand sides split
/// its arguments into constructor cases down to a random depth, with a
/// fresh variable at every open position, so they are linear and
/// disjoint. Right-hand sides use the case's variables, constructors,
/// `error`, calls of earlier operations, conditionals on `B?`, and
/// recursive calls on a variable under a constructor, so every ground
/// term normalizes.
pub fn seeded_spec(seed: u64, flaw: Flaw) -> Spec {
    let mut rng = DetRng::new(seed);
    let mut b = SpecBuilder::new(format!("Seeded{seed}"));
    let n = b.sort("N");
    let item = b.param_sort("Item");
    let z = b.ctor("Z", [], n);
    let s = b.ctor("S", [n], n);
    let p = b.ctor("P", [n, n], n);
    let a = b.ctor("A", [], item);
    let bb = b.ctor("B", [], item);
    let bool_sort = b.bool_sort();
    let is_b = b.op("B?", [n], bool_sort);
    let g = b.op("G", [n], item);
    let u = b.op("U", [n], n);
    let t = b.op("T", [n, n], n);
    let vars: Vec<VarId> = (0..16).map(|k| b.var(&format!("x{k}"), n)).collect();

    // Pushes onto `out` the patterns of one argument: a single fresh
    // variable, or one pattern per constructor, split further under `S`.
    // Together they partition the constructor terms, and each binds
    // every variable at most once (`next` hands out fresh ones).
    fn split(
        rng: &mut DetRng,
        depth: usize,
        ctors: [OpId; 3],
        vars: &[VarId],
        next: &mut usize,
        out: &mut Vec<Term>,
    ) {
        if depth == 0 || rng.below(3) == 0 {
            out.push(Term::Var(vars[*next % vars.len()]));
            *next += 1;
            return;
        }
        let [z, s, p] = ctors;
        out.push(Term::App(z, vec![]));
        let mut inner = Vec::new();
        split(rng, depth - 1, ctors, vars, next, &mut inner);
        out.extend(inner.into_iter().map(|x| Term::App(s, vec![x])));
        let (x, y) = (vars[*next % vars.len()], vars[(*next + 1) % vars.len()]);
        *next += 2;
        out.push(Term::App(p, vec![Term::Var(x), Term::Var(y)]));
    }

    let ctors = [z, s, p];
    let ops = [is_b, g, u, t];
    let mut axioms: Vec<(Term, Term)> = Vec::new();
    for (level, &op) in ops.iter().enumerate() {
        let arity = b.sig().op(op).arity();
        // The case split of the first argument; a second argument stays
        // a variable.
        let mut next = 0;
        let mut cases = Vec::new();
        split(&mut rng, 2, ctors, &vars, &mut next, &mut cases);
        for case in cases {
            let mut args = vec![case];
            if arity == 2 {
                args.push(Term::Var(vars[next % vars.len()]));
                next += 1;
            }
            let lhs = Term::App(op, args);
            let rhs = seeded_rhs(&mut rng, &b, level, &lhs, ops, ctors, [a, bb]);
            axioms.push((lhs, rhs));
        }
    }
    match flaw {
        Flaw::None => {}
        Flaw::Overlap => {
            // A special case of an existing axiom: it overlaps that one
            // at the root.
            let k = rng.below(axioms.len());
            let (lhs, rhs) = axioms[k].clone();
            let special = Term::App(z, vec![]);
            let mut instance = adt_core::Subst::new();
            for v in lhs.vars() {
                instance.bind(v, special.clone());
            }
            axioms.push((instance.apply(&lhs), instance.apply(&rhs)));
        }
        Flaw::NonLinear => {
            // T(p, w) with a variable v in p becomes T(p, v): the case
            // split is unchanged, so nothing new overlaps.
            let (k, v) = axioms
                .iter()
                .enumerate()
                .find_map(|(k, (lhs, _))| match lhs {
                    Term::App(op, args) if *op == t => Some((k, *args[0].vars().first()?)),
                    _ => None,
                })
                .expect("one case of T's first argument binds a variable");
            let (lhs, rhs) = axioms[k].clone();
            let Term::App(op, mut args) = lhs else {
                unreachable!("left-hand sides are applications")
            };
            let mut rename = adt_core::Subst::new();
            if let Term::Var(w) = args[1] {
                rename.bind(w, Term::Var(v));
            }
            args[1] = Term::Var(v);
            axioms[k] = (Term::App(op, args), rename.apply(&rhs));
        }
    }
    for (k, (lhs, rhs)) in axioms.into_iter().enumerate() {
        b.axiom(format!("r{k}"), lhs, rhs);
    }
    b.build().unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// A right-hand side for `lhs`, an axiom of operation number `level`.
fn seeded_rhs(
    rng: &mut DetRng,
    b: &SpecBuilder,
    level: usize,
    lhs: &Term,
    ops: [OpId; 4],
    ctors: [OpId; 3],
    items: [OpId; 2],
) -> Term {
    let [is_b, g, u, t] = ops;
    let [z, s, _] = ctors;
    let bound = lhs.vars();
    let n_sort = b.sig().op(z).result();
    // Variables bound strictly under a constructor: recursion on them
    // terminates.
    let smaller: Vec<VarId> = match lhs {
        Term::App(_, args) => bound
            .iter()
            .copied()
            .filter(|v| !args.contains(&Term::Var(*v)))
            .collect(),
        _ => Vec::new(),
    };
    let head = match lhs {
        Term::App(op, _) => *op,
        _ => unreachable!("left-hand sides are applications"),
    };
    let nat_vars: Vec<Term> = bound
        .iter()
        .copied()
        .filter(|&v| b.sig().var(v).sort() == n_sort)
        .map(Term::Var)
        .collect();
    let nat = |rng: &mut DetRng| -> Term {
        let base = if nat_vars.is_empty() || rng.below(3) == 0 {
            Term::App(z, vec![])
        } else {
            nat_vars[rng.below(nat_vars.len())].clone()
        };
        match rng.below(4) {
            0 => Term::App(s, vec![base]),
            1 if level >= 3 => Term::App(u, vec![base]),
            _ => base,
        }
    };
    let value = match level {
        0 => {
            // B?: Bool.
            match rng.below(4) {
                0 => b.tt(),
                1 => b.ff(),
                2 => Term::Error(b.bool_sort()),
                _ => match smaller.first() {
                    Some(&v) => Term::App(is_b, vec![Term::Var(v)]),
                    None => b.ff(),
                },
            }
        }
        1 => {
            // G: Item.
            let item = Term::App(items[rng.below(2)], vec![]);
            match rng.below(3) {
                0 => Term::Error(b.sig().op(items[0]).result()),
                1 => match smaller.first() {
                    Some(&v) => Term::App(g, vec![Term::Var(v)]),
                    None => item,
                },
                _ => item,
            }
        }
        _ => {
            // U and T: N, possibly recursive on a smaller variable.
            match (rng.below(4), smaller.first()) {
                (0, _) => Term::Error(n_sort),
                (1, Some(&v)) if head == u => Term::App(s, vec![Term::App(u, vec![Term::Var(v)])]),
                (1, Some(&v)) if head == t => Term::App(t, vec![Term::Var(v), nat(rng)]),
                _ => nat(rng),
            }
        }
    };
    if level > 0 && rng.below(3) == 0 {
        let other = seeded_rhs(rng, b, level, lhs, ops, ctors, items);
        Term::ite(Term::App(is_b, vec![nat(rng)]), value, other)
    } else {
        value
    }
}
