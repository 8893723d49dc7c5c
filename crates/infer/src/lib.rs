//! # gql-infer — static satisfiability and cardinality analysis
//!
//! The paper assumes queries are checked against a schema before they run;
//! `gql-analyze` covers the case where an explicit DTD or schema graph is at
//! hand. This crate covers every other document: it interprets queries
//! abstractly against the *inferred* structural summary
//! ([`gql_ssdm::Summary`], a DataGuide with per-path counts) and derives
//!
//! * **static emptiness** — [`Code::EmptyUnderSummary`] (GQL014) when a
//!   query provably selects nothing, [`Code::DeadRule`] (GQL015) for
//!   WG-Log rules whose positive observations can never be satisfied, and
//!   [`Code::PathNeverMatches`] (GQL016) for XPath steps that walk off the
//!   summary automaton;
//! * **cardinality upper bounds** per query node, exported as a
//!   [`CardinalityMap`] — the cost facts the planner consumes (`gql-plan`
//!   orders the XML-GL matcher's root joins by them).
//!
//! Every claim is an over-approximation of the concrete semantics: a query
//! flagged empty evaluates empty on the summarised document, and no result
//! count ever exceeds its bound. The argument is spelled out in DESIGN.md
//! and enforced end-to-end by `gql-testkit`'s differential oracles.
//!
//! [`Code::EmptyUnderSummary`]: gql_ssdm::Code::EmptyUnderSummary
//! [`Code::DeadRule`]: gql_ssdm::Code::DeadRule
//! [`Code::PathNeverMatches`]: gql_ssdm::Code::PathNeverMatches

pub mod fold;
pub mod glq;
pub mod wgq;
pub mod xpq;

use gql_ssdm::diag::Report;

pub use glq::infer_xmlgl;
pub use wgq::infer_wglog;
pub use xpq::infer_xpath;

/// One cardinality fact: an upper bound on how many bindings (or result
/// nodes) a query component can produce on the summarised document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CardEntry {
    /// Rule index for the rule-based languages; 0 for XPath.
    pub rule: usize,
    /// What the bound is for: a variable (`$v`), an anonymous query node
    /// (`q3`), an XPath step (`step 2 (child::title)`), or `result`.
    pub target: String,
    /// Upper bound on the binding/result count. Saturating arithmetic —
    /// `u64::MAX` reads as "unbounded".
    pub bound: u64,
}

/// The per-query-component cardinality facts produced by an inference run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CardinalityMap {
    entries: Vec<CardEntry>,
}

impl CardinalityMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, rule: usize, target: impl Into<String>, bound: u64) {
        self.entries.push(CardEntry {
            rule,
            target: target.into(),
            bound,
        });
    }

    pub fn iter(&self) -> impl Iterator<Item = &CardEntry> {
        self.entries.iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bound recorded for a component, if any.
    pub fn bound_for(&self, rule: usize, target: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.rule == rule && e.target == target)
            .map(|e| e.bound)
    }

    /// The whole-query bound for a rule (the `result` entry).
    pub fn result_bound(&self, rule: usize) -> Option<u64> {
        self.bound_for(rule, "result")
    }

    /// Human-readable rendering for the CLI surfaces: one line per fact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if e.bound == u64::MAX {
                out.push_str(&format!("rule {} {} ≤ ∞\n", e.rule + 1, e.target));
            } else {
                out.push_str(&format!("rule {} {} ≤ {}\n", e.rule + 1, e.target, e.bound));
            }
        }
        out
    }
}

/// Result of abstractly interpreting one query against a summary.
#[derive(Debug, Clone, Default)]
pub struct Inference {
    /// GQL014/GQL015/GQL016 diagnostics (all Warning severity by default).
    pub report: Report,
    /// Cardinality facts for the CLI and the planner.
    pub cards: CardinalityMap,
    /// XML-GL only: per rule, the upper bound for each extract root in
    /// declaration order — the join-ordering facts. Empty for the other
    /// languages.
    pub root_bounds: Vec<Vec<u64>>,
    /// Per rule: this rule provably produces no bindings (XML-GL) or never
    /// fires (WG-Log). Empty for XPath.
    pub empty_rules: Vec<bool>,
    /// The whole query provably produces an empty result: an XPath
    /// node-set with no members, or a WG-Log goal type that is never
    /// available. (Not asserted for XML-GL, whose construct side may emit
    /// a skeleton even with zero bindings — use [`Inference::empty_rules`]
    /// there.)
    pub result_empty: bool,
}

impl Inference {
    /// Whether the analysis proved the whole query result empty.
    pub fn is_statically_empty(&self) -> bool {
        self.result_empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_map_lookup_and_render() {
        let mut m = CardinalityMap::new();
        m.push(0, "$b", 12);
        m.push(0, "result", 24);
        m.push(1, "result", u64::MAX);
        assert_eq!(m.bound_for(0, "$b"), Some(12));
        assert_eq!(m.result_bound(0), Some(24));
        assert_eq!(m.result_bound(2), None);
        assert_eq!(m.len(), 3);
        let text = m.render();
        assert!(text.contains("rule 1 $b ≤ 12"));
        assert!(text.contains("rule 2 result ≤ ∞"));
    }
}
