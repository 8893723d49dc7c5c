//! # gql-plan — EXPLAIN printing, cost-based join ordering, plan cache
//!
//! The three query surfaces of the paper (XML-GL, WG-Log, XPath) share one
//! evaluation core but were planned ad hoc: a hardcoded indexed-vs-scan
//! choice plus gql-infer's greedy root-order hint. This crate makes
//! planning a first-class, cacheable artifact:
//!
//! * [`explain`] — the printed plan, a tree of [`PlanNode`] operators
//!   (`Scan`, `IndexLookup`, `Filter`, `HashJoin`, `Fixpoint`, `Construct`,
//!   `PathStep`) with its indented EXPLAIN rendering and its compact
//!   trace-note rendering;
//! * [`lower`] — the per-language printers that build that tree from the
//!   plans that run and stamp inference cardinalities onto the operators:
//!   an XML-GL `HashJoin` spine renders the rule's
//!   [`JoinPlan`](gql_xmlgl::eval::JoinPlan), the value the matcher runs, a
//!   WG-Log rule renders its [`SearchPlan`](gql_wglog::eval::SearchPlan),
//!   the search the fixpoint runs, one `Fixpoint` per stratum, and XPath
//!   renders its parsed expression;
//! * [`join_order`] — the cost model and bottom-up join-order enumerator
//!   (exhaustive subset DP for rule bodies of ≤ 8 roots, greedy beyond);
//! * [`cache`] — the engine-resident LRU plan cache keyed by (canonical
//!   query text, document content fingerprint), holding each XML-GL rule's
//!   join plan or a WG-Log program's plan, so warm traffic goes parse →
//!   execution without re-running analysis.
//!
//! Nothing here can change an answer: an order becomes a join plan only
//! through `JoinPlan::new`, which takes a permutation of the roots as given
//! and anything else as declaration order, and the matcher re-sorts to
//! declaration order after combining; a cached entry whose join plans do
//! not fit the query's rules is replanned. The testkit differential oracles
//! enforce this end to end.

pub mod cache;
pub mod explain;
pub mod join_order;
pub mod lower;

pub use cache::{
    CacheStats, CachedPlan, PlanCache, PlanKey, QueryKey, StatsCell, DEFAULT_CAPACITY,
};
pub use explain::PlanNode;
pub use join_order::{plan_rule_order, JoinGraph, DP_LIMIT};
pub use lower::{lower_join_plans, lower_wglog, lower_wglog_plan, lower_xmlgl, lower_xpath};
