//! The shared tag/attribute/value vocabulary.
//!
//! Generated queries are only useful oracle food if they can actually hit
//! something in generated documents, so the document generators and all
//! three query generators draw from these pools. `TAGS` is a superset of
//! the `gql_ssdm::generator::random_tree` vocabulary (`a`–`d`), and in the
//! WG-Log instance mapping child tags double as edge labels, so the same
//! pool serves both node types and edge labels.

use gql_ssdm::rng::Rng;

/// Element names — also WG-Log object types and edge labels.
pub const TAGS: &[&str] = &["a", "b", "c", "d", "item"];

/// Attribute names; overlaps `gql_ssdm::generator`'s extra-attribute pool.
pub const ATTRS: &[&str] = &["id", "kind", "lang", "rank", "k"];

/// A small value domain, so equal values (and thus joins, deep-equal
/// subtrees and hash-equal candidates) occur often.
pub const VALUES: &[&str] = &["x", "y", "z", "10", "20", "2000", "north"];

/// Uniform pick from a pool.
pub fn pick<'a>(rng: &mut Rng, pool: &'a [&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}
