//! # gql-wglog — the WG-Log graphical query language
//!
//! WG-Log is the second language the paper presents: a schema-aware,
//! G-Log/GraphLog-derived graphical language for querying complex-object
//! graphs. Where XML-GL draws a rule as *two* graphs (extract | construct),
//! a WG-Log rule is **one** graph whose nodes and edges are coloured: thin
//! (red) parts are the query, thick (green) parts are what must exist — and
//! is *added* when missing. Evaluation is a datalog-style fixpoint with
//! object invention and stratified negation, which gives WG-Log the
//! recursion XML-GL lacks (the expressiveness gap of experiments T1/T2).
//!
//! The crate provides:
//!
//! * a complex-object graph model ([`instance`]) with a loader from the
//!   semi-structured store (elements → objects, text-only children →
//!   attributes, containment and ID/IDREF → labelled edges);
//! * schema graphs and schema extraction ([`schema`]);
//! * the coloured rule graphs ([`rule`]), a textual concrete syntax
//!   ([`dsl`]), and GraphLog-style regular path edges (`-(label+)->`);
//! * the evaluation engine ([`eval`]): subgraph embedding, semi-naive (and,
//!   for the ablation, naive) fixpoint, stratification;
//! * diagram conversion for rendering ([`diagram`]).
//!
//! ```
//! use gql_ssdm::Document;
//! use gql_wglog::{dsl, instance::Instance, eval};
//!
//! let doc = Document::parse_str(
//!     "<guide><restaurant id='r1'><name>Roma</name><menu><price>20</price></menu></restaurant>\
//!      <restaurant id='r2'><name>Milano</name></restaurant></guide>").unwrap();
//! let db = Instance::from_document(&doc);
//! let program = dsl::parse(r#"
//!     rule {
//!       query { $r: restaurant; $m: menu; $r -menu-> $m }
//!       construct { $l: rest-list; $l -member-> $r }
//!     }
//!     goal rest-list
//! "#).unwrap();
//! let result = eval::run(&program, &db).unwrap();
//! assert_eq!(result.objects_of_type("rest-list").count(), 1);
//! ```

pub mod diagram;
pub mod dsl;
pub mod editor;
pub mod eval;
pub mod instance;
pub mod rule;
pub mod schema;

pub use instance::{Instance, ObjId, ObjRef};
pub use rule::{rule_label, Color, Program, Rule};

/// Errors shared by the WG-Log front- and back-ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WgLogError {
    /// DSL syntax error.
    Syntax { line: u32, col: u32, msg: String },
    /// Rule-graph well-formedness violation.
    IllFormed { msg: String },
    /// The program cannot be stratified (negation through recursion).
    NotStratifiable { msg: String },
    /// Runtime failure.
    Eval { msg: String },
    /// A resource budget tripped during evaluation (carries the partial
    /// progress report).
    Budget(gql_guard::GuardError),
}

impl std::fmt::Display for WgLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WgLogError::Syntax { line, col, msg } => {
                write!(f, "WG-Log syntax error at {line}:{col}: {msg}")
            }
            WgLogError::IllFormed { msg } => write!(f, "ill-formed WG-Log rule: {msg}"),
            WgLogError::NotStratifiable { msg } => {
                write!(f, "program is not stratifiable: {msg}")
            }
            WgLogError::Eval { msg } => write!(f, "WG-Log evaluation error: {msg}"),
            WgLogError::Budget(e) => write!(f, "WG-Log {e}"),
        }
    }
}

impl std::error::Error for WgLogError {}

pub type Result<T> = std::result::Result<T, WgLogError>;
