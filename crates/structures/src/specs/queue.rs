//! The Queue of §3 (axioms 1–6).

use adt_core::Spec;

use crate::sources::shipped;

/// The Queue specification of §3, from `specs/queue.adt`, with `Item`
/// instantiated by the three constants `A`, `B`, `C`.
pub fn queue_spec() -> Spec {
    shipped("queue")
}

/// The same specification with axiom 4 *omitted*, from
/// `specs/queue_incomplete.adt` — the paper's running example of an
/// insufficiently complete axiom set, which the checker must prompt for.
pub fn queue_spec_incomplete() -> Spec {
    shipped("queue_incomplete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency, Coverage};
    use adt_rewrite::Rewriter;

    #[test]
    fn queue_spec_is_sufficiently_complete_and_consistent() {
        let spec = queue_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        let consistency = check_consistency(&spec);
        assert!(consistency.is_consistent(), "{}", consistency.summary());
    }

    #[test]
    fn incomplete_variant_is_flagged_on_front_add() {
        let spec = queue_spec_incomplete();
        let report = check_completeness(&spec);
        assert!(!report.is_sufficiently_complete());
        let front = spec.sig().find_op("FRONT").unwrap();
        let cov = report.for_op(front).unwrap();
        let Coverage::Missing(cases) = cov.coverage() else {
            panic!("expected a missing case");
        };
        assert_eq!(cases.len(), 1);
        let prompt = report.prompts();
        assert!(prompt.contains("FRONT(ADD("), "{prompt}");
    }

    #[test]
    fn fifo_order_is_derivable() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let new = sig.apply("NEW", vec![]).unwrap();
        let a = sig.apply("A", vec![]).unwrap();
        let b_ = sig.apply("B", vec![]).unwrap();
        let c = sig.apply("C", vec![]).unwrap();
        // Enqueue A, B, C.
        let q3 = sig
            .apply(
                "ADD",
                vec![
                    sig.apply(
                        "ADD",
                        vec![sig.apply("ADD", vec![new, a.clone()]).unwrap(), b_.clone()],
                    )
                    .unwrap(),
                    c.clone(),
                ],
            )
            .unwrap();
        let front = |t: &adt_core::Term| {
            rw.normalize(&sig.apply("FRONT", vec![t.clone()]).unwrap())
                .unwrap()
        };
        let remove = |t: &adt_core::Term| {
            rw.normalize(&sig.apply("REMOVE", vec![t.clone()]).unwrap())
                .unwrap()
        };
        assert_eq!(front(&q3), a);
        let q2 = remove(&q3);
        assert_eq!(front(&q2), b_);
        let q1 = remove(&q2);
        assert_eq!(front(&q1), c);
    }
}
