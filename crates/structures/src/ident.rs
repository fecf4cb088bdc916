//! Identifiers and attribute lists — the paper's parameter types.
//!
//! Type `Identifier` comes with `ISSAME?` (footnote 2) and `HASH`
//! ("assumed to be defined in the type Identifier specification", §4);
//! `AttributeList` is the payload a compiler attaches to a declaration.

use std::fmt;
use std::ops::Deref;

/// An identifier of the compiled language.
///
/// ```
/// use adt_structures::Ident;
///
/// let a = Ident::new("x");
/// let b = Ident::new("x");
/// assert!(a.same(&b));            // ISSAME?
/// let bucket = a.hash_bucket(64); // HASH: Identifier -> [0, 64)
/// assert!(bucket < 64);
/// assert_eq!(&*a, "x");           // an `Ident` derefs to its spelling
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ident(String);

impl Ident {
    /// Creates an identifier from its spelling.
    pub fn new(name: impl Into<String>) -> Self {
        Ident(name.into())
    }

    /// The spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The paper's `ISSAME?` operation.
    pub fn same(&self, other: &Ident) -> bool {
        self == other
    }

    /// The paper's `HASH: Identifier → [1, 2, …, n]` operation (0-based
    /// here), a polynomial rolling hash reduced modulo the table size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn hash_bucket(&self, n: usize) -> usize {
        hash_bucket(&self.0, n)
    }
}

/// [`Ident::hash_bucket`] on a spelling, so lookups by `&str` hash
/// without building an [`Ident`].
pub(crate) fn hash_bucket(name: &str, n: usize) -> usize {
    assert!(n > 0, "hash table size must be positive");
    let mut h: u64 = 5381;
    for b in name.bytes() {
        h = h.wrapping_mul(33).wrapping_add(u64::from(b));
    }
    // The same residue; a mask where the size allows it, since a
    // division costs more than the rest of a short lookup.
    if n.is_power_of_two() {
        (h & (n as u64 - 1)) as usize
    } else {
        (h % n as u64) as usize
    }
}

/// Lookups take `&str`; an `&Ident` coerces to one.
impl Deref for Ident {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The attributes a compiler associates with a declared identifier
/// (type, kind, offset, …): an ordered list of name/value pairs.
///
/// ```
/// use adt_structures::AttrList;
///
/// let attrs = AttrList::new()
///     .with("kind", "variable")
///     .with("type", "integer");
/// assert_eq!(attrs.get("type"), Some("integer"));
/// assert_eq!(attrs.get("size"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AttrList {
    attrs: Vec<(String, String)>,
}

impl AttrList {
    /// An empty attribute list.
    pub fn new() -> Self {
        AttrList::default()
    }

    /// Adds (or replaces) an attribute, builder-style.
    #[must_use]
    pub fn with(mut self, name: &str, value: &str) -> Self {
        self.set(name, value);
        self
    }

    /// Adds (or replaces) an attribute in place.
    pub fn set(&mut self, name: &str, value: &str) {
        match self.attrs.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value.to_owned(),
            None => self.attrs.push((name.to_owned(), value.to_owned())),
        }
    }

    /// The value of an attribute.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

impl fmt::Display for AttrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (n, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<(String, String)> for AttrList {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(iter: I) -> Self {
        let mut a = AttrList::new();
        for (n, v) in iter {
            a.set(&n, &v);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issame_is_spelling_equality() {
        assert!(Ident::new("x").same(&Ident::from("x")));
        assert!(!Ident::new("x").same(&Ident::new("y")));
        assert_eq!(Ident::new("foo").to_string(), "foo");
        assert_eq!(Ident::new("foo").as_str(), "foo");
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for n in [1, 7, 64, 1024] {
            for name in ["x", "y", "a_rather_long_identifier", ""] {
                let id = Ident::new(name);
                let b1 = id.hash_bucket(n);
                let b2 = id.hash_bucket(n);
                assert_eq!(b1, b2);
                assert!(b1 < n);
            }
        }
    }

    #[test]
    fn hash_spreads_distinct_names() {
        // Not a statistical test, just a sanity check that the hash is not
        // constant over a realistic name population.
        let buckets: std::collections::HashSet<usize> = (0..100)
            .map(|i| Ident::new(format!("var{i}")).hash_bucket(64))
            .collect();
        assert!(buckets.len() > 20, "only {} buckets used", buckets.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_buckets_panics() {
        Ident::new("x").hash_bucket(0);
    }

    #[test]
    fn attr_list_set_get_replace() {
        let mut attrs = AttrList::new();
        assert!(attrs.is_empty());
        attrs.set("kind", "variable");
        attrs.set("type", "integer");
        attrs.set("kind", "constant"); // replace
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs.get("kind"), Some("constant"));
        assert_eq!(attrs.get("type"), Some("integer"));
        assert_eq!(attrs.get("missing"), None);
        assert!(!attrs.is_empty());
    }

    #[test]
    fn attr_list_display_and_iteration_order() {
        let attrs = AttrList::new().with("a", "1").with("b", "2");
        assert_eq!(attrs.to_string(), "[a=1, b=2]");
        let pairs: Vec<_> = attrs.iter().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "2")]);
    }

    #[test]
    fn attr_list_from_iterator_deduplicates() {
        let attrs: AttrList = vec![
            ("a".to_owned(), "1".to_owned()),
            ("a".to_owned(), "2".to_owned()),
        ]
        .into_iter()
        .collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs.get("a"), Some("2"));
    }
}
