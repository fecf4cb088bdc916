//! Interned identifiers for sorts, operators and variables.
//!
//! All three are small copyable indices into tables owned by a
//! [`Signature`](crate::Signature). Newtypes keep them statically distinct
//! (you cannot pass an operator where a sort is expected) at zero cost.

use std::fmt;

use crate::error::CoreError;

/// Converts a table length into the next id index, failing loudly when the
/// table has outgrown the 32-bit id space.
///
/// Ids are `u32` by design (they are copied pervasively and keyed into
/// dense tables); a table of more than `u32::MAX` entries cannot be
/// represented and silently truncating the index would *alias* two
/// distinct entries — the worst possible failure mode for an interning
/// scheme. `kind` names the table for the error message (`"sort"`,
/// `"operation"`, `"variable"`, `"term"`).
///
/// # Errors
///
/// Returns [`CoreError::CapacityExceeded`] when `len` does not fit in a
/// `u32`.
pub(crate) fn checked_index(len: usize, kind: &'static str) -> Result<u32, CoreError> {
    u32::try_from(len).map_err(|_| CoreError::CapacityExceeded {
        kind,
        limit: u64::from(u32::MAX),
    })
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw index of this identifier inside its signature table.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a raw table index.
            ///
            /// Only meaningful for indices previously obtained from the same
            /// [`Signature`](crate::Signature); using a stale or foreign
            /// index yields lookup panics, never memory unsafety.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in the 32-bit id space —
            /// truncating would alias two distinct identifiers.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index exceeds the u32 id space"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a sort (a carrier set of the heterogeneous algebra),
    /// e.g. `Queue`, `Item`, or the built-in `Bool`.
    SortId,
    "s"
);

id_type!(
    /// Identifier of an operation of the algebra, e.g. `NEW`, `ADD`,
    /// `FRONT`, or the built-in `true`.
    OpId,
    "f"
);

id_type!(
    /// Identifier of a typed free variable usable in axioms, e.g. the `q`
    /// and `i` of `FRONT(ADD(q, i))`.
    VarId,
    "v"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_index() {
        let s = SortId::from_index(7);
        assert_eq!(s.index(), 7);
        let f = OpId::from_index(0);
        assert_eq!(f.index(), 0);
        let v = VarId::from_index(41);
        assert_eq!(v.index(), 41);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SortId::from_index(1));
        set.insert(SortId::from_index(1));
        set.insert(SortId::from_index(2));
        assert_eq!(set.len(), 2);
        assert!(SortId::from_index(1) < SortId::from_index(2));
    }

    #[test]
    fn checked_index_accepts_the_full_u32_range() {
        assert_eq!(checked_index(0, "sort").unwrap(), 0);
        assert_eq!(checked_index(41, "sort").unwrap(), 41);
        assert_eq!(checked_index(u32::MAX as usize, "sort").unwrap(), u32::MAX);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn checked_index_rejects_oversized_tables() {
        let err = checked_index(u32::MAX as usize + 1, "operation").unwrap_err();
        match err {
            CoreError::CapacityExceeded { kind, limit } => {
                assert_eq!(kind, "operation");
                assert_eq!(limit, u64::from(u32::MAX));
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        let rendered = checked_index(usize::MAX, "term").unwrap_err().to_string();
        assert!(rendered.contains("term table is full"), "{rendered}");
    }

    #[test]
    fn debug_is_nonempty_and_tagged() {
        assert_eq!(format!("{:?}", SortId::from_index(3)), "s3");
        assert_eq!(format!("{:?}", OpId::from_index(3)), "f3");
        assert_eq!(format!("{:?}", VarId::from_index(3)), "v3");
    }
}
