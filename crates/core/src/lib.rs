//! # gql-core — the unified graphical-query layer
//!
//! The paper's contribution is not one language but the *comparison*: two
//! graphical styles for querying semi-structured information — XML-GL
//! (schema-optional, two-graph rules) and WG-Log (schema-aware, one
//! coloured graph, fixpoint semantics) — measured against each other and
//! against the navigational mainstream. This crate is that comparison made
//! executable:
//!
//! * [`translate`] — compilers between the two graphical formalisms:
//!   XML-GL → WG-Log and WG-Log → XML-GL (partial by design: the failures
//!   are the expressiveness gaps of experiment **T2**);
//! * [`capability`] — feature analysis of concrete queries and the static
//!   language-capability matrix of experiment **T1**;
//! * [`engine`] — one entry point that runs a query written in any of the
//!   three formalisms (XML-GL, WG-Log, XPath) against a document and
//!   returns a result document, with wall-clock instrumentation for the
//!   benchmark harness;
//! * [`docview`] — the Xing/VXT document metaphor: documents rendered as
//!   nested labelled boxes.
//!
//! The plans the three surfaces run print as one operator tree,
//! [`gql_plan::PlanNode`], and the one cardinality estimator is
//! [`gql_infer`]'s summary bounds; this crate holds neither.

pub mod capability;
pub mod docview;
pub mod engine;
pub mod translate;

pub use capability::{Feature, LanguageProfile};
pub use engine::{Engine, Prepared, QueryKind};
pub use gql_guard::{Budget, CancelToken, Guard, GuardError, RunCtx};

/// Errors of the unified layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A query uses a feature its target formalism cannot express.
    Untranslatable { feature: String, detail: String },
    /// An underlying engine failed.
    Engine { msg: String },
    /// Static analysis refused the program before evaluation; carries every
    /// Error-level diagnostic found.
    Rejected {
        diagnostics: Vec<gql_ssdm::Diagnostic>,
    },
    /// A resource budget tripped during a bounded run
    /// ([`Engine::execute`] under a guard); carries the structured partial-progress
    /// report instead of a wrong or truncated answer.
    Budget(gql_guard::GuardError),
    /// XML-GL evaluates over the document's index only, and none could be
    /// had: its build failed, or the built postings failed their integrity
    /// check. A refusal, never an answer computed some other way.
    IndexUnavailable { reason: &'static str },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Untranslatable { feature, detail } => {
                write!(f, "untranslatable ({feature}): {detail}")
            }
            CoreError::Engine { msg } => write!(f, "engine error: {msg}"),
            CoreError::Rejected { diagnostics } => {
                write!(
                    f,
                    "program rejected by static analysis ({} error{}):",
                    diagnostics.len(),
                    if diagnostics.len() == 1 { "" } else { "s" }
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            CoreError::Budget(e) => write!(f, "{e}"),
            CoreError::IndexUnavailable { reason } => {
                write!(f, "document index unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

pub type Result<T> = std::result::Result<T, CoreError>;
