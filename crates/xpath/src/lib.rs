//! # gql-xpath — navigational baseline engine
//!
//! An XPath 1.0 subset over the [`gql_ssdm`] store. The paper contrasts
//! *graphical, pattern-based* query languages with the *navigational* style
//! of the W3C stack; this crate is the navigational comparator used by the
//! benchmark harness (experiment **T3**) and a generally useful substrate.
//!
//! Supported: the `child`, `descendant`, `descendant-or-self`, `parent`,
//! `ancestor`, `ancestor-or-self`, `self`, `attribute`,
//! `following-sibling`, `preceding-sibling`, `following` and `preceding`
//! axes (plus all their abbreviations `/`, `//`, `.`, `..`, `@`); name,
//! `*`, `text()`, `comment()` and `node()` node tests; positional and
//! boolean predicates; the full 1.0 comparison/arithmetic semantics over
//! node-sets; unions; and the core function library.
//!
//! Not supported: variables, namespaces, `lang()`, and the
//! `processing-instruction(name)` test.
//!
//! ```
//! use gql_ssdm::Document;
//!
//! let doc = Document::parse_str("<bib><book year='1999'><title>X</title></book></bib>").unwrap();
//! let hits = gql_xpath::select(&doc, "//book[@year > 1998]/title").unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod ast;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod parser;

pub use ast::{Axis, Expr, LocationPath, NodeTest, Step};
pub use eval::{evaluate, evaluate_in, evaluate_with_index, select, Item, XValue};
pub use parser::parse;

/// Errors produced while parsing or evaluating an XPath expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XPathError {
    /// Lexical error with character offset.
    Lex { offset: usize, msg: String },
    /// Syntax error with the character offset of the offending token (input
    /// length when the error is at end of input).
    Parse { offset: usize, msg: String },
    /// Runtime error (bad function arity, type misuse, …).
    Eval { msg: String },
    /// A resource budget tripped during evaluation (carries the partial
    /// progress report).
    Budget(gql_guard::GuardError),
}

impl std::fmt::Display for XPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XPathError::Lex { offset, msg } => write!(f, "lex error at offset {offset}: {msg}"),
            XPathError::Parse { offset, msg } => {
                write!(f, "parse error at offset {offset}: {msg}")
            }
            XPathError::Eval { msg } => write!(f, "evaluation error: {msg}"),
            XPathError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for XPathError {}

pub type Result<T> = std::result::Result<T, XPathError>;
