//! # gql-testkit — differential fuzzing and conformance harness
//!
//! The paper's core claim is that one query intent can be expressed in
//! WG-Log, XML-GL and a navigational language — which makes *cross-engine
//! agreement* the strongest correctness oracle this reproduction has. This
//! crate turns that observation into infrastructure:
//!
//! * [`harness`] — the seed-reporting property runner shared by the
//!   workspace property tests, corpus replay and the fuzz CLI. Every
//!   failure prints an exact one-line replay command.
//! * [`vocab`] — the tag/attribute/value vocabulary shared between the
//!   document generators and the query generators, so generated queries
//!   are non-vacuous against generated documents.
//! * [`generators`] — deterministic random documents, XML-GL rules,
//!   WG-Log programs, XPath expressions, and cross-engine [`Intent`]s.
//! * [`model`] — naive reference models that model-based property tests
//!   run beside the real thing: of the document store (one record per
//!   node, `Vec` children, `String` attributes, its own XML writer) and of
//!   the trace record (the tree-of-`String`s sink it replaced).
//! * [`mod@reference`] — a reference embedding enumerator for XML-GL extract
//!   graphs: the `Vec`-of-rows, owned-`String` recursion the matcher's
//!   binding table replaced, with nested-loop joins over content-key
//!   strings. It shares nothing with the matcher it is held against.
//!   [`reference::xpath`] is the textbook XPath 1.0 evaluator, written
//!   against `Document` alone, that `gql_xpath` is held to.
//! * [`oracle`] — differential oracles over every dual execution path
//!   (XML-GL matcher vs reference, XPath evaluator with a prebuilt or a
//!   lazy index vs reference, semi-naive vs naive fixpoint, translated vs
//!   direct) plus
//!   metamorphic properties (print→parse round-trips, re-serialization
//!   invariance, prune monotonicity).
//! * [`fault`] — fault-injection differential oracles: every
//!   [`FaultPlan`](gql_guard::fault::FaultPlan) variant driven against
//!   every generator, proving injected faults degrade to the correct
//!   answer, surface a clean budget error, or (XML-GL or XPath without an
//!   index) refuse by name — never a wrong answer.
//! * [`shrink`] — greedy delta-debugging that minimizes both the failing
//!   document and the failing query.
//! * [`fuzz`] — the budgeted runner behind the `gql-fuzz` binary.
//! * [`corpus`] — the replayable regression-corpus file format; every bug
//!   the fuzzer ever finds becomes a permanent regression test under
//!   `tests/corpus/`.
//! * [`serve_oracle`] — the concurrency differential oracle: the whole
//!   corpus replayed through the `gql-serve` service at concurrency N
//!   with mixed tenants, held byte-identical to a fresh single-threaded
//!   engine, plus trace-shape determinism and cancellation-hygiene
//!   checks.
//! * [`chaos_oracle`] — the service-layer chaos matrix: the corpus
//!   stormed through a real TCP server and the retrying client while
//!   replies are torn, runs panic, slow-loris connections stall, and
//!   the catalog hot-reloads epochs mid-storm — answers held
//!   byte-identical throughout, permits and telemetry conserved exactly.
//!
//! [`Intent`]: generators::Intent

pub mod chaos_oracle;
pub mod corpus;
pub mod fault;
pub mod fuzz;
pub mod generators;
pub mod harness;
pub mod model;
pub mod oracle;
pub mod reference;
pub mod serve_oracle;
pub mod shrink;
pub mod vocab;

pub use fuzz::{Failure, FuzzReport, Generator};
pub use harness::{case_rng, check, replay_command};
pub use vocab::{pick, ATTRS, TAGS, VALUES};
