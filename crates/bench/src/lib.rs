//! # gql-bench — the experiment harness
//!
//! Everything needed to regenerate the paper's tables and figures (and the
//! declared quantitative extensions) lives here:
//!
//! * [`suite`] — the canonical query suite Q1–Q10 and the figure queries
//!   F1–F5, each expressed in every formalism that can express it;
//! * [`tables`] — a plain-text table renderer for the harness output;
//! * the `harness` binary (`cargo run -p gql-bench --bin harness -- all`)
//!   prints tables T1–T5 and writes figures F1–F5 as SVG;
//! * the benches (`cargo bench`) measure the same workloads with the
//!   dependency-free [`microbench`] timer and append their rows, each
//!   stamped with commit and core count, to `BENCH_results.json`.
//!
//! The rows regenerate the paper's tables and carry ratio bars measured
//! inside one run. A performance claim cites `gql-benchmark` (the
//! repository's benchmark, its own package at the workspace root), never a
//! row of this crate: the service is measured there and nowhere else.

pub mod microbench;
pub mod suite;
pub mod tables;
