//! # gql-ssdm — semi-structured data model
//!
//! The storage substrate every query engine in this workspace runs on. It
//! provides:
//!
//! * an arena-based document store ([`Document`]) with `u32` node ids,
//!   interned names, ordered children and attribute tables — a tree that
//!   becomes a *graph* once ID/IDREF reference edges are resolved
//!   ([`idref`]);
//! * a parser and serializer for a practical XML subset ([`xml`]);
//! * the two consumers of an engine's answer ([`sink`]): one builds a
//!   [`Document`], one writes the answer's bytes;
//! * a DTD parser and validator ([`dtd`]) used by the XML-GL schema
//!   formalism;
//! * typed atomic values with XPath-style coercion ([`value`]);
//! * navigation helpers ([`path`]);
//! * the tree-pattern kernel XML-GL and XPath both match with ([`pattern`]);
//! * deterministic synthetic dataset generators ([`generator`]) reproducing
//!   the shapes of the datasets the paper's worked examples query
//!   (bibliography, city guide, greengrocer).
//!
//! ```
//! use gql_ssdm::Document;
//!
//! let doc = Document::parse_str("<bib><book isbn='1'><title>T</title></book></bib>").unwrap();
//! let bib = doc.root_element().unwrap();
//! assert_eq!(doc.name(bib), Some("bib"));
//! let book = doc.child_elements(bib).next().unwrap();
//! assert_eq!(doc.attr(book, "isbn"), Some("1"));
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod diag;
pub mod document;
pub mod dtd;
pub mod error;
pub mod generator;
pub mod idref;
pub mod index;
pub mod path;
pub mod pattern;
pub mod rng;
pub mod sink;
pub mod stream;
pub mod summary;
mod token;
pub mod value;
pub mod xml;

pub use arena::{NodeId, Symbol};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use document::{Document, NodeKind};
pub use error::{Error, Result};
/// The workspace's one JSON writer, re-exported for the crates that depend
/// on `gql-ssdm` and not on `gql-trace`.
pub use gql_trace::json;
pub use index::{shallow_fingerprint, DocIndex, IndexStats, NodeSets};
pub use summary::{PathId, Summary, SummaryStats};
pub use value::{CmpOp, Value};
