//! Wiring the Rust implementations to their specifications.
//!
//! Each `*_model` function returns an [`adt_verify::TableModel`] that
//! interprets a specification's operations with the corresponding concrete
//! data structure, so `adt_verify::check_axioms` can test the paper's
//! axioms against real code, and `adt_verify::check_representation` can
//! test the abstraction functions Φ.
//!
//! Value encodings: elements of parameter sorts are carried as
//! [`MValue::Str`] holding the *constructor name* (`"A"`, `"ID_X"`, …),
//! which makes the Φ functions trivially exact.

use adt_core::{Spec, Term};
use adt_verify::{MValue, ModelBuilder, TableModel};

use crate::fifo::Fifo;
use crate::hash_array::{HashArray, ScopeArray};
use crate::ident::{AttrList, Ident};
use crate::linked_stack::LinkedStack;
use crate::ring::RingQueue;
use crate::symbol_table::SymbolTable;

/// The structure inside a model value. Observers read it in place. A
/// constructor never changes it, because the value may be shared (the
/// axiom checker evaluates each enumerated argument once): it clones it
/// and changes the clone, or, on the persistent [`LinkedStack`], builds
/// a new stack that shares it. What a clone copies is the structure's
/// own business: a [`SymbolTable`] shares its blocks (`ADD` then copies
/// the top one), a [`HashArray`] copies its bucket spine and shares the
/// chain entries, and the queues, the set and the list are copied whole.
///
/// # Panics
///
/// Panics if `v` does not hold a `T`: the checkers pass only well-sorted,
/// non-`error` arguments.
fn data<T: 'static>(v: &MValue) -> &T {
    v.downcast::<T>().expect("a well-sorted model value")
}

/// The primitive inside an argument (`v.as_str()`, `v.as_int()`).
///
/// # Panics
///
/// Panics on `None`: the checkers pass only well-sorted, non-`error`
/// arguments, so a parameter-sort argument is always the primitive its
/// constants build.
fn well_sorted<T>(v: Option<T>) -> T {
    v.expect("a well-sorted model value")
}

/// A model of the Queue specification ([`crate::specs::queue_spec`]) over
/// the growable ring-buffer [`Fifo`].
pub fn fifo_model(spec: &Spec) -> TableModel<'_> {
    type Q = Fifo<String>;
    let mut b = ModelBuilder::new(spec)
        .op("NEW", |_| MValue::data(Q::new()))
        .op("ADD", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            q.add(well_sorted(args[1].as_str()).to_owned());
            MValue::data(q)
        })
        .op("FRONT", |args| match data::<Q>(&args[0]).front() {
            Some(s) => MValue::Str(s.clone()),
            None => MValue::Error,
        })
        .op("REMOVE", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            match q.remove() {
                Some(_) => MValue::data(q),
                None => MValue::Error,
            }
        })
        .op("IS_EMPTY?", |args| {
            MValue::Bool(data::<Q>(&args[0]).is_empty())
        })
        .eq("Queue", |a, b| {
            a.downcast::<Q>()
                .zip(b.downcast::<Q>())
                .map(|(x, y)| x == y)
                .unwrap_or(false)
        });
    for item in ["A", "B", "C"] {
        b = b.op(item, move |_| MValue::Str(item.to_owned()));
    }
    b.build().expect("the Queue model is total")
}

/// The abstraction function Φ for [`fifo_model`]: a FIFO value becomes the
/// `ADD` chain that enqueues its elements oldest-first.
pub fn fifo_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
    move |v: &MValue| {
        let q = v.downcast::<Fifo<String>>().expect("a Queue value");
        let new = spec.sig().op_named("NEW").expect("NEW exists");
        let add = spec.sig().op_named("ADD").expect("ADD exists");
        let mut t = Term::constant(new);
        for item in q.iter() {
            let item_op = spec.sig().op_named(item).expect("item constant exists");
            t = Term::App(add, vec![t, Term::constant(item_op)]);
        }
        t
    }
}

/// A model of the *same* Queue specification over the fixed-capacity
/// [`RingQueue`]: adding to a full ring is `error`. Correct only for
/// workloads that stay within `capacity` — a *conditionally correct*
/// representation, checked under the [`max_add_chain`] assumption.
pub fn ring_model(spec: &Spec, capacity: usize) -> TableModel<'_> {
    type Q = RingQueue<String>;
    let mut b = ModelBuilder::new(spec)
        .op("NEW", move |_| MValue::data(Q::new(capacity)))
        .op("ADD", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            match q.add(well_sorted(args[1].as_str()).to_owned()) {
                Ok(()) => MValue::data(q),
                Err(_) => MValue::Error,
            }
        })
        .op("FRONT", |args| match data::<Q>(&args[0]).front() {
            Some(s) => MValue::Str(s.clone()),
            None => MValue::Error,
        })
        .op("REMOVE", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            match q.remove() {
                Some(_) => MValue::data(q),
                None => MValue::Error,
            }
        })
        .op("IS_EMPTY?", |args| {
            MValue::Bool(data::<Q>(&args[0]).is_empty())
        })
        .eq("Queue", |a, b| {
            // Equality of bounded queues is Φ-equality: same live elements
            // in order, regardless of physical layout (Φ⁻¹ one-to-many).
            a.downcast::<Q>()
                .zip(b.downcast::<Q>())
                .map(|(x, y)| x.abstract_value() == y.abstract_value())
                .unwrap_or(false)
        });
    for item in ["A", "B", "C"] {
        b = b.op(item, move |_| MValue::Str(item.to_owned()));
    }
    b.build().expect("the bounded Queue model is total")
}

/// The abstraction function Φ for [`ring_model`]: the live elements,
/// oldest-first, as an `ADD` chain — by construction independent of the
/// ring's physical layout.
pub fn ring_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
    move |v: &MValue| {
        let q = v.downcast::<RingQueue<String>>().expect("a Queue value");
        let new = spec.sig().op_named("NEW").expect("NEW exists");
        let add = spec.sig().op_named("ADD").expect("ADD exists");
        let mut t = Term::constant(new);
        for item in q.abstract_value() {
            let item_op = spec.sig().op_named(item).expect("item constant exists");
            t = Term::App(add, vec![t, Term::constant(item_op)]);
        }
        t
    }
}

/// A model of the Queue specification over the
/// [`TwoStackQueue`](crate::TwoStackQueue) — the
/// representation whose Φ⁻¹ is the most dramatically one-to-many (every
/// front/back split of the same sequence is a distinct concrete state).
pub fn two_stack_model(spec: &Spec) -> TableModel<'_> {
    type Q = crate::two_stack_queue::TwoStackQueue<String>;
    let mut b = ModelBuilder::new(spec)
        .op("NEW", |_| MValue::data(Q::new()))
        .op("ADD", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            q.add(well_sorted(args[1].as_str()).to_owned());
            MValue::data(q)
        })
        .op("FRONT", |args| {
            // `front` may move the back stack over, so it takes `&mut`.
            let mut q = data::<Q>(&args[0]).clone();
            match q.front() {
                Some(s) => MValue::Str(s.clone()),
                None => MValue::Error,
            }
        })
        .op("REMOVE", |args| {
            let mut q = data::<Q>(&args[0]).clone();
            match q.remove() {
                Some(_) => MValue::data(q),
                None => MValue::Error,
            }
        })
        .op("IS_EMPTY?", |args| {
            MValue::Bool(data::<Q>(&args[0]).is_empty())
        })
        .eq("Queue", |a, b| {
            a.downcast::<Q>()
                .zip(b.downcast::<Q>())
                .map(|(x, y)| x == y) // Φ-equality
                .unwrap_or(false)
        });
    for item in ["A", "B", "C"] {
        b = b.op(item, move |_| MValue::Str(item.to_owned()));
    }
    b.build().expect("the two-stack Queue model is total")
}

/// The abstraction function Φ for [`two_stack_model`]:
/// `front ++ reverse(back)` as an `ADD` chain.
pub fn two_stack_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
    use crate::two_stack_queue::TwoStackQueue;
    move |v: &MValue| {
        let q = v
            .downcast::<TwoStackQueue<String>>()
            .expect("a Queue value");
        let new = spec.sig().op_named("NEW").expect("NEW exists");
        let add = spec.sig().op_named("ADD").expect("ADD exists");
        let mut t = Term::constant(new);
        for item in q.abstract_value() {
            let item_op = spec.sig().op_named(&item).expect("item constant exists");
            t = Term::App(add, vec![t, Term::constant(item_op)]);
        }
        t
    }
}

/// The deepest `ADD` nesting anywhere in `term` — an upper bound on the
/// number of simultaneously live queue elements, used as the environment
/// assumption for the bounded ring ("programs never hold more than
/// `capacity` elements at once").
pub fn max_add_chain(spec: &Spec, term: &Term) -> usize {
    let add = spec.sig().find_op("ADD");
    fn walk(t: &Term, add: Option<adt_core::OpId>) -> usize {
        match t {
            Term::App(op, args) => {
                let inner = args.iter().map(|a| walk(a, add)).max().unwrap_or(0);
                if Some(*op) == add {
                    inner + 1
                } else {
                    inner
                }
            }
            Term::Ite(ite) => walk(&ite.cond, add)
                .max(walk(&ite.then_branch, add))
                .max(walk(&ite.else_branch, add)),
            _ => 0,
        }
    }
    walk(term, add)
}

/// A model of the Stack specification ([`crate::specs::stack_spec`]) over
/// the persistent [`LinkedStack`].
pub fn stack_model(spec: &Spec) -> TableModel<'_> {
    // A persistent stack: every operation takes `&self`.
    type S = LinkedStack<String>;
    let mut b = ModelBuilder::new(spec)
        .op("NEWSTACK", |_| MValue::data(S::new()))
        .op("PUSH", |args| {
            MValue::data(data::<S>(&args[0]).push(well_sorted(args[1].as_str()).to_owned()))
        })
        .op("POP", |args| match data::<S>(&args[0]).pop() {
            Some(s) => MValue::data(s),
            None => MValue::Error,
        })
        .op("TOP", |args| match data::<S>(&args[0]).top() {
            Some(s) => MValue::Str(s.clone()),
            None => MValue::Error,
        })
        .op("IS_NEWSTACK?", |args| {
            MValue::Bool(data::<S>(&args[0]).is_new())
        })
        .op("REPLACE", |args| {
            match data::<S>(&args[0]).replace(well_sorted(args[1].as_str()).to_owned()) {
                Some(s) => MValue::data(s),
                None => MValue::Error,
            }
        })
        .eq("Stack", |a, b| {
            a.downcast::<S>()
                .zip(b.downcast::<S>())
                .map(|(x, y)| x == y)
                .unwrap_or(false)
        });
    for e in ["E1", "E2"] {
        b = b.op(e, move |_| MValue::Str(e.to_owned()));
    }
    b.build().expect("the Stack model is total")
}

/// The abstraction function Φ for [`stack_model`]: a stack value becomes
/// the `PUSH` chain that builds it bottom-up.
pub fn stack_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
    move |v: &MValue| {
        let s = v.downcast::<LinkedStack<String>>().expect("a Stack value");
        let newstack = spec.sig().op_named("NEWSTACK").expect("NEWSTACK exists");
        let push = spec.sig().op_named("PUSH").expect("PUSH exists");
        let mut items: Vec<&String> = s.iter().collect();
        items.reverse(); // bottom-up
        let mut t = Term::constant(newstack);
        for item in items {
            let e = spec.sig().op_named(item).expect("element constant exists");
            t = Term::App(push, vec![t, Term::constant(e)]);
        }
        t
    }
}

/// The sample-identifier universe shared by the Array and Symboltable
/// models.
pub fn sample_ident_universe() -> Vec<Ident> {
    crate::specs::SAMPLE_IDENTIFIERS
        .iter()
        .map(|s| Ident::new(*s))
        .collect()
}

/// A model of the Array specification ([`crate::specs::array_spec`]) over
/// any [`ScopeArray`] representation. Equality at sort `Array` is
/// observational: two arrays are equal when `READ` agrees on every
/// sample identifier (what axioms 17–20 let a client see).
pub fn array_model_with<A>(spec: &Spec) -> TableModel<'_>
where
    A: ScopeArray<String> + Send + Sync + 'static,
{
    let universe = sample_ident_universe();
    let mut b = ModelBuilder::new(spec)
        .op("EMPTY", |_| MValue::data(A::empty()))
        .op("ASSIGN", |args| {
            let mut a = data::<A>(&args[0]).clone();
            a.assign(
                Ident::new(well_sorted(args[1].as_str())),
                well_sorted(args[2].as_str()).to_owned(),
            );
            MValue::data(a)
        })
        .op("READ", |args| {
            match data::<A>(&args[0]).read(well_sorted(args[1].as_str())) {
                Some(v) => MValue::Str(v.clone()),
                None => MValue::Error,
            }
        })
        .op("IS_UNDEFINED?", |args| {
            MValue::Bool(data::<A>(&args[0]).is_undefined(well_sorted(args[1].as_str())))
        })
        .op("ISSAME?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .eq("Array", move |a, b| {
            let (x, y) = match (a.downcast::<A>(), b.downcast::<A>()) {
                (Some(x), Some(y)) => (x, y),
                _ => return false,
            };
            universe.iter().all(|id| x.read(id) == y.read(id))
        });
    for name in crate::specs::SAMPLE_IDENTIFIERS
        .iter()
        .chain(crate::specs::SAMPLE_ATTRIBUTES.iter())
    {
        let owned = (*name).to_owned();
        b = b.op(name, move |_| MValue::Str(owned.clone()));
    }
    b.build().expect("the Array model is total")
}

/// [`array_model_with`] instantiated with the paper's chained
/// [`HashArray`].
pub fn array_model(spec: &Spec) -> TableModel<'_> {
    array_model_with::<HashArray<String>>(spec)
}

/// A model of the Set specification ([`crate::specs::set_spec`]) over the
/// canonical [`SortedSet`](crate::SortedSet); equality is structural
/// because the representation is canonical.
pub fn set_model(spec: &Spec) -> TableModel<'_> {
    type S = crate::sorted_set::SortedSet<String>;
    let mut b = ModelBuilder::new(spec)
        .op("EMPTYSET", |_| MValue::data(S::new()))
        .op("INSERT", |args| {
            let mut s = data::<S>(&args[0]).clone();
            s.insert(well_sorted(args[1].as_str()).to_owned());
            MValue::data(s)
        })
        .op("MEMBER?", |args| {
            MValue::Bool(data::<S>(&args[0]).contains(&well_sorted(args[1].as_str()).to_owned()))
        })
        .op("DELETE", |args| {
            let mut s = data::<S>(&args[0]).clone();
            s.remove(&well_sorted(args[1].as_str()).to_owned());
            MValue::data(s)
        })
        .op("IS_EMPTYSET?", |args| {
            MValue::Bool(data::<S>(&args[0]).is_empty())
        })
        .op("SAME?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .eq("Set", |a, b| {
            a.downcast::<S>()
                .zip(b.downcast::<S>())
                .map(|(x, y)| x == y)
                .unwrap_or(false)
        });
    for name in ["E1", "E2", "E3"] {
        b = b.op(name, move |_| MValue::Str(name.to_owned()));
    }
    b.build().expect("the Set model is total")
}

/// A model of the List specification ([`crate::specs::list_spec`]):
/// lists as `Vec<String>`, naturals as `i64`.
pub fn list_model(spec: &Spec) -> TableModel<'_> {
    type L = Vec<String>;
    let mut b = ModelBuilder::new(spec)
        .op("NIL", |_| MValue::data(L::new()))
        .op("CONS", |args| {
            let mut l = vec![well_sorted(args[0].as_str()).to_owned()];
            l.extend_from_slice(data::<L>(&args[1]));
            MValue::data(l)
        })
        .op("HEAD", |args| match data::<L>(&args[0]).first() {
            Some(e) => MValue::Str(e.clone()),
            None => MValue::Error,
        })
        .op("TAIL", |args| match data::<L>(&args[0]).split_first() {
            Some((_, tail)) => MValue::data(tail.to_vec()),
            None => MValue::Error,
        })
        .op("IS_NIL?", |args| {
            MValue::Bool(data::<L>(&args[0]).is_empty())
        })
        .op("APPEND", |args| {
            MValue::data([data::<L>(&args[0]).as_slice(), data::<L>(&args[1])].concat())
        })
        .op("LENGTH", |args| {
            MValue::Int(data::<L>(&args[0]).len() as i64)
        })
        .op("REVERSE", |args| {
            MValue::data(data::<L>(&args[0]).iter().rev().cloned().collect::<L>())
        })
        .op("ZERO", |_| MValue::Int(0))
        .op("SUCC", |args| {
            MValue::Int(well_sorted(args[0].as_int()) + 1)
        })
        .op("PLUS", |args| {
            MValue::Int(well_sorted(args[0].as_int()) + well_sorted(args[1].as_int()))
        })
        .eq("List", |a, b| a.downcast::<L>() == b.downcast::<L>());
    for name in ["E1", "E2", "E3"] {
        b = b.op(name, move |_| MValue::Str(name.to_owned()));
    }
    b.build().expect("the List model is total")
}

/// A model of the Symboltable specification
/// ([`crate::specs::symboltable_spec`]) over the real [`SymbolTable`]
/// (stack of chained hash arrays). Equality at sort `Symboltable` is the
/// observational equality of
/// [`SymbolTable::observationally_eq`] over the sample identifiers.
pub fn symtab_model(spec: &Spec) -> TableModel<'_> {
    type St = SymbolTable<HashArray<AttrList>>;
    let attr_of = |v: &MValue| AttrList::new().with("name", well_sorted(v.as_str()));
    let universe = sample_ident_universe();
    let mut b = ModelBuilder::new(spec)
        .op("INIT", |_| MValue::data(St::init()))
        .op("ENTERBLOCK", |args| {
            let mut t = data::<St>(&args[0]).clone();
            t.enter_block();
            MValue::data(t)
        })
        .op("LEAVEBLOCK", |args| {
            let mut t = data::<St>(&args[0]).clone();
            match t.leave_block() {
                Ok(()) => MValue::data(t),
                Err(_) => MValue::Error,
            }
        })
        .op("ADD", move |args| {
            let mut t = data::<St>(&args[0]).clone();
            t.add(Ident::new(well_sorted(args[1].as_str())), attr_of(&args[2]));
            MValue::data(t)
        })
        .op("IS_INBLOCK?", |args| {
            MValue::Bool(data::<St>(&args[0]).is_in_block(well_sorted(args[1].as_str())))
        })
        .op("RETRIEVE", |args| {
            match data::<St>(&args[0]).retrieve(well_sorted(args[1].as_str())) {
                Ok(attrs) => MValue::Str(attrs.get("name").expect("encoded attribute").to_owned()),
                Err(_) => MValue::Error,
            }
        })
        .op("ISSAME?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .eq("Symboltable", move |a, b| {
            let (x, y) = match (a.downcast::<St>(), b.downcast::<St>()) {
                (Some(x), Some(y)) => (x, y),
                _ => return false,
            };
            x.observationally_eq(y, &universe)
        });
    for name in crate::specs::SAMPLE_IDENTIFIERS
        .iter()
        .chain(crate::specs::SAMPLE_ATTRIBUTES.iter())
    {
        let owned = (*name).to_owned();
        b = b.op(name, move |_| MValue::Str(owned.clone()));
    }
    b.build().expect("the Symboltable model is total")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{array_spec, queue_spec, stack_spec, symboltable_spec};
    use adt_verify::{check_axioms, AxiomCheckConfig, Model};

    #[test]
    fn fifo_model_evaluates_operations() {
        let spec = queue_spec();
        let model = fifo_model(&spec);
        let new = spec.sig().find_op("NEW").unwrap();
        let add = spec.sig().find_op("ADD").unwrap();
        let front = spec.sig().find_op("FRONT").unwrap();
        let q0 = model.apply(new, &[]);
        let q1 = model.apply(add, &[q0, MValue::Str("A".into())]);
        let q2 = model.apply(add, &[q1, MValue::Str("B".into())]);
        assert_eq!(model.apply(front, &[q2]).as_str(), Some("A"));
    }

    #[test]
    fn fifo_model_satisfies_the_queue_axioms() {
        let spec = queue_spec();
        let model = fifo_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn stack_model_satisfies_the_stack_axioms() {
        let spec = stack_spec();
        let model = stack_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn array_model_satisfies_the_array_axioms() {
        let spec = array_spec();
        let model = array_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn all_three_array_representations_satisfy_the_axioms() {
        use crate::bst_array::BstArray;
        use crate::hash_array::LinearArray;
        let spec = array_spec();
        for (name, model) in [
            ("linear", array_model_with::<LinearArray<String>>(&spec)),
            ("bst", array_model_with::<BstArray<String>>(&spec)),
        ] {
            let report = check_axioms(&model, &AxiomCheckConfig::default());
            assert!(report.passed(), "{name}: {}", report.summary());
        }
    }

    #[test]
    fn set_model_satisfies_the_set_axioms() {
        let spec = crate::specs::set_spec();
        let model = set_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn list_model_satisfies_the_list_axioms() {
        let spec = crate::specs::list_spec();
        let model = list_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn symtab_model_satisfies_the_symboltable_axioms() {
        let spec = symboltable_spec();
        let model = symtab_model(&spec);
        let report = check_axioms(&model, &AxiomCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn max_add_chain_measures_live_elements() {
        let spec = queue_spec();
        let sig = spec.sig();
        let new = sig.apply("NEW", vec![]).unwrap();
        assert_eq!(max_add_chain(&spec, &new), 0);
        let a = sig.apply("A", vec![]).unwrap();
        let q1 = sig.apply("ADD", vec![new, a.clone()]).unwrap();
        let q2 = sig.apply("ADD", vec![q1, a.clone()]).unwrap();
        assert_eq!(max_add_chain(&spec, &q2), 2);
        let removed = sig.apply("REMOVE", vec![q2]).unwrap();
        // REMOVE does not undo the historical peak.
        assert_eq!(max_add_chain(&spec, &removed), 2);
    }

    #[test]
    fn ring_model_errors_beyond_capacity() {
        let spec = queue_spec();
        let model = ring_model(&spec, 2);
        let new = spec.sig().find_op("NEW").unwrap();
        let add = spec.sig().find_op("ADD").unwrap();
        let q0 = model.apply(new, &[]);
        let q1 = model.apply(add, &[q0, MValue::Str("A".into())]);
        let q2 = model.apply(add, &[q1, MValue::Str("B".into())]);
        let q3 = model.apply(add, &[q2, MValue::Str("C".into())]);
        assert!(q3.is_error());
    }
}
