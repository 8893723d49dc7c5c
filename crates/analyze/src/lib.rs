//! # gql-analyze — static analysis and linting for XML-GL and WG-Log
//!
//! A unified pass-based analyzer over both graphical query languages of the
//! paper. Every finding is a [`Diagnostic`] with a stable code (`GQL001`…),
//! a severity, a source span, the offending rule's label, a message and
//! (usually) a help string; a [`Report`] renders them for humans or as JSON
//! for tooling.
//!
//! The passes:
//!
//! | pass | codes | needs context? |
//! |------|-------|----------------|
//! | syntax                      | GQL000 | no |
//! | well-formedness & safety    | GQL001–GQL004, GQL011 | no |
//! | connectivity                | GQL005 | no |
//! | schema conformance          | GQL006, GQL012, GQL013 | schema |
//! | contradictory predicates    | GQL007 | no |
//! | unused variables            | GQL008 | no |
//! | cost estimation             | GQL009 | document summary |
//! | stratification              | GQL010 | no |
//! | summary inference           | GQL014–GQL016 | document summary |
//!
//! Context (a DTD-derived schema, an extracted WG-Log schema, an inferred
//! structural summary) is optional: passes that need missing context are
//! skipped.
//!
//! ```
//! use gql_analyze::Analyzer;
//!
//! let report = Analyzer::new().analyze_xmlgl_src(
//!     "rule { extract { book as $b { not review } } construct { out { all $b } } }",
//! );
//! assert!(report.is_empty()); // safe: $b is outside the negated subtree
//! ```

pub mod wglog;
pub mod xmlgl;

pub use gql_infer::{CardEntry, CardinalityMap, Inference};
pub use gql_ssdm::{Code, Diagnostic, Report, Severity, Span};

use gql_ssdm::Summary;
use gql_wglog::schema::WgSchema;
use gql_xmlgl::schema::GlSchema;

/// Optional context that unlocks the schema-conformance, cost and
/// summary-inference passes.
#[derive(Debug, Default)]
pub struct Context {
    /// XML-GL schema (e.g. built from a DTD) for GQL006.
    pub gl_schema: Option<GlSchema>,
    /// WG-Log schema (declared or extracted from an instance) for
    /// GQL012/GQL013.
    pub wg_schema: Option<WgSchema>,
    /// Inferred structural summary (DataGuide with counts) for the cost
    /// pass (GQL009), the summary-inference pass (GQL014–GQL016) and
    /// cardinality bounds.
    pub summary: Option<Summary>,
}

/// Description of one analysis pass, for `--explain`-style tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    pub name: &'static str,
    pub codes: &'static [Code],
    /// Context the pass needs, if any.
    pub needs: Option<&'static str>,
}

/// The registry of passes, in execution order.
pub const PASSES: &[PassInfo] = &[
    PassInfo {
        name: "syntax",
        codes: &[Code::Syntax],
        needs: None,
    },
    PassInfo {
        name: "well-formedness",
        codes: &[
            Code::XmlGlIllFormed,
            Code::DuplicateVariable,
            Code::WgLogIllFormed,
        ],
        needs: None,
    },
    PassInfo {
        name: "safety",
        codes: &[Code::NegationScope, Code::UnsafeConstruct],
        needs: None,
    },
    PassInfo {
        name: "connectivity",
        codes: &[Code::DisconnectedQuery],
        needs: None,
    },
    PassInfo {
        name: "schema-conformance",
        codes: &[
            Code::XmlSchemaMismatch,
            Code::WgSchemaMismatch,
            Code::GoalNeverConstructed,
        ],
        needs: Some("schema"),
    },
    PassInfo {
        name: "predicates",
        codes: &[Code::ContradictoryPredicate],
        needs: None,
    },
    PassInfo {
        name: "unused",
        codes: &[Code::UnusedVariable],
        needs: None,
    },
    PassInfo {
        name: "cost",
        codes: &[Code::CostBlowup],
        needs: Some("document summary"),
    },
    PassInfo {
        name: "stratification",
        codes: &[Code::NotStratifiable],
        needs: None,
    },
    PassInfo {
        name: "summary-inference",
        codes: &[
            Code::EmptyUnderSummary,
            Code::DeadRule,
            Code::PathNeverMatches,
        ],
        needs: Some("document summary"),
    },
];

/// The analyzer: run every applicable pass over a program and collect the
/// diagnostics into a [`Report`].
#[derive(Debug, Default)]
pub struct Analyzer {
    ctx: Context,
}

impl Analyzer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Provide an XML-GL schema (unlocks GQL006).
    pub fn with_gl_schema(mut self, schema: GlSchema) -> Self {
        self.ctx.gl_schema = Some(schema);
        self
    }

    /// Provide a WG-Log schema (unlocks GQL012/GQL013).
    pub fn with_wg_schema(mut self, schema: WgSchema) -> Self {
        self.ctx.wg_schema = Some(schema);
        self
    }

    /// Provide an inferred structural summary (unlocks GQL009,
    /// GQL014–GQL016 and the cardinality bounds of [`Analyzer::infer_xmlgl`] /
    /// [`Analyzer::infer_wglog`]).
    pub fn with_summary(mut self, summary: Summary) -> Self {
        self.ctx.summary = Some(summary);
        self
    }

    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Full summary inference for an XML-GL program — GQL014 diagnostics
    /// plus per-node cardinality bounds. `None` without a summary in
    /// context.
    pub fn infer_xmlgl(&self, program: &gql_xmlgl::ast::Program) -> Option<Inference> {
        self.ctx
            .summary
            .as_ref()
            .map(|s| gql_infer::infer_xmlgl(program, s))
    }

    /// Full summary inference for a WG-Log program (GQL014/GQL015 and
    /// bounds). `None` without a summary in context.
    pub fn infer_wglog(&self, program: &gql_wglog::Program) -> Option<Inference> {
        self.ctx
            .summary
            .as_ref()
            .map(|s| gql_infer::infer_wglog(program, s))
    }

    /// Full summary inference for a parsed XPath expression (GQL016 and
    /// per-step bounds). `None` without a summary in context.
    pub fn infer_xpath(&self, expr: &gql_xpath::Expr) -> Option<Inference> {
        self.ctx
            .summary
            .as_ref()
            .map(|s| gql_infer::infer_xpath(expr, s))
    }

    /// Analyze a parsed XML-GL program.
    pub fn analyze_xmlgl(&self, program: &gql_xmlgl::ast::Program) -> Report {
        xmlgl::analyze(program, &self.ctx)
    }

    /// Analyze a parsed WG-Log program.
    pub fn analyze_wglog(&self, program: &gql_wglog::Program) -> Report {
        wglog::analyze(program, &self.ctx)
    }

    /// Parse and analyze XML-GL DSL source. Syntax errors become a GQL000
    /// diagnostic instead of an `Err`, so tooling has one output shape.
    pub fn analyze_xmlgl_src(&self, src: &str) -> Report {
        match gql_xmlgl::dsl::parse_unchecked(src) {
            Ok(program) => self.analyze_xmlgl(&program),
            Err(e) => Report::from(vec![syntax_diag(&e.to_string(), syntax_span_xmlgl(&e))]),
        }
    }

    /// Parse and analyze WG-Log DSL source (syntax errors become GQL000).
    pub fn analyze_wglog_src(&self, src: &str) -> Report {
        match gql_wglog::dsl::parse_unchecked(src) {
            Ok(program) => self.analyze_wglog(&program),
            Err(e) => Report::from(vec![syntax_diag(&e.to_string(), syntax_span_wglog(&e))]),
        }
    }

    /// Parse and analyze an XPath expression. Only the syntax (GQL000) and
    /// summary-inference (GQL016) passes apply to XPath; the latter needs a
    /// summary in context.
    pub fn analyze_xpath_src(&self, src: &str) -> Report {
        match gql_xpath::parse(src) {
            Ok(expr) => self
                .infer_xpath(&expr)
                .map(|inf| inf.report)
                .unwrap_or_default(),
            Err(e) => Report::from(vec![syntax_diag(&e.to_string(), syntax_span_xpath(&e))]),
        }
    }
}

fn syntax_diag(msg: &str, span: Span) -> Diagnostic {
    Diagnostic::new(Code::Syntax, msg).with_span(span)
}

fn syntax_span_xmlgl(e: &gql_xmlgl::XmlGlError) -> Span {
    match e {
        gql_xmlgl::XmlGlError::Syntax { line, col, .. } => Span::new(*line, *col),
        _ => Span::none(),
    }
}

fn syntax_span_wglog(e: &gql_wglog::WgLogError) -> Span {
    match e {
        gql_wglog::WgLogError::Syntax { line, col, .. } => Span::new(*line, *col),
        _ => Span::none(),
    }
}

fn syntax_span_xpath(e: &gql_xpath::XPathError) -> Span {
    // XPath expressions are single-line; the error offset is the column.
    match e {
        gql_xpath::XPathError::Lex { offset, .. } | gql_xpath::XPathError::Parse { offset, .. } => {
            Span::new(1, u32::try_from(offset + 1).unwrap_or(u32::MAX))
        }
        _ => Span::none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_registry_covers_every_code() {
        let mut covered: Vec<&str> = PASSES
            .iter()
            .flat_map(|p| p.codes)
            .map(|c| c.as_str())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), Code::all().len());
    }

    #[test]
    fn syntax_errors_are_gql000_with_spans() {
        let r = Analyzer::new().analyze_xmlgl_src("rule {\n  extract {");
        assert_eq!(r.len(), 1);
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, Code::Syntax);
        assert!(d.is_error());
        let r = Analyzer::new().analyze_wglog_src("rule {\n query { $r restaurant } }");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, Code::Syntax);
        assert_eq!(d.span.line, 2);
    }

    #[test]
    fn summary_unlocks_inference_pass() {
        let doc = gql_ssdm::Document::parse_str(
            "<guide><restaurant><name>A</name></restaurant>\
             <restaurant><name>B</name></restaurant></guide>",
        )
        .unwrap();
        let analyzer = Analyzer::new().with_summary(Summary::build(&doc));
        // XML-GL: a tag absent from the document is statically empty.
        let r = analyzer.analyze_xmlgl_src(
            "rule { extract { cinema as $c { show } } construct { out { all $c } } }",
        );
        assert!(
            r.iter().any(|d| d.code == Code::EmptyUnderSummary),
            "{}",
            r.render()
        );
        // A live query gets cardinality bounds instead of diagnostics.
        let p = gql_xmlgl::dsl::parse_unchecked(
            "rule { extract { restaurant as $r { name } } construct { out { all $r } } }",
        )
        .unwrap();
        let inf = analyzer.infer_xmlgl(&p).unwrap();
        assert!(!inf.is_statically_empty());
        assert!(inf.cards.iter().any(|e| e.bound == 2), "{:?}", inf.cards);
        // XPath: dead step is GQL016, garbage is GQL000 with a column.
        let r = analyzer.analyze_xpath_src("/guide/cinema");
        assert!(r.iter().any(|d| d.code == Code::PathNeverMatches));
        let r = analyzer.analyze_xpath_src("/guide//");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, Code::Syntax);
        assert!(!d.span.is_none());
        // Without a summary the pass is skipped entirely.
        assert!(Analyzer::new()
            .analyze_xpath_src("/guide/cinema")
            .is_empty());
    }

    #[test]
    fn clean_program_clean_report() {
        let r = Analyzer::new().analyze_xmlgl_src(
            "rule { extract { restaurant as $r { menu } } construct { answer { all $r } } }",
        );
        assert!(r.is_empty(), "{}", r.render());
        let r = Analyzer::new().analyze_wglog_src(
            "rule { query { $r: restaurant  $m: menu  $r -menu-> $m } \
             construct { $l: rest-list  $l -member-> $r } } goal rest-list",
        );
        assert!(r.is_empty(), "{}", r.render());
    }
}
