//! # gql — Graphical Query Languages for Semi-Structured Information
//!
//! A from-scratch Rust reproduction of the system described in *"Graphical
//! Query Languages for Semi-Structured Information"* (S. Comai, EDBT 2000):
//! the two graph-based visual query languages **XML-GL** and **WG-Log**,
//! implemented end to end over a common semi-structured data store, plus a
//! navigational **XPath** baseline, a diagram layout/rendering substrate
//! (the programmatic stand-in for the paper's interactive editors) and a
//! unified comparison layer (one engine over the three formalisms lowering
//! to one logical plan, cross-language translators, capability analysis).
//!
//! This crate is the facade: it re-exports every sub-crate under one name
//! so examples, tests and downstream users need a single dependency.
//!
//! ```
//! use gql::ssdm::Document;
//!
//! let doc = Document::parse_str(
//!     "<bib><book year='2001'><title>Semi-Structured Data</title></book></bib>").unwrap();
//! let program = gql::xmlgl::dsl::parse(r#"
//!     rule {
//!       extract { book as $b { @year as $y >= "2000" } }
//!       construct { recent { all $b } }
//!     }
//! "#).unwrap();
//! let result = gql::xmlgl::run(&program, &doc).unwrap();
//! assert!(result.to_xml_string().contains("Semi-Structured Data"));
//! ```

pub use gql_analyze as analyze;
pub use gql_core as core;
pub use gql_guard as guard;
pub use gql_infer as infer;
pub use gql_layout as layout;
pub use gql_plan as plan;
pub use gql_ssdm as ssdm;
pub use gql_trace as trace;
pub use gql_vgraph as vgraph;
pub use gql_wglog as wglog;
pub use gql_xmlgl as xmlgl;
pub use gql_xpath as xpath;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        let doc = crate::ssdm::Document::parse_str("<a><b/></a>").unwrap();
        assert_eq!(crate::xpath::select(&doc, "//b").unwrap().len(), 1);
    }
}
