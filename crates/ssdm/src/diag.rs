//! Structured diagnostics for the graphical query languages.
//!
//! The paper's central usability claim is that visual queries can be
//! *checked while drawn*: the editor flags ill-formedness, unsafe
//! constructions and schema violations before a query ever runs. This
//! module is the vocabulary for those checks — stable codes
//! ([`Code`], rendered `GQL001`…), severities ([`Severity`]), source spans
//! ([`Span`]), and a [`Report`] that renders both human-readable text and a
//! machine-readable JSON document.
//!
//! It lives in `gql-ssdm` (the crate everything else depends on) so that
//! both language front ends, the unified core and the `gql-analyze` lint
//! framework can produce and consume the same diagnostic type without a
//! dependency cycle.

use std::fmt;

use gql_trace::json::Writer;

/// A source position (1-based line/column) attached to an AST node or
/// diagnostic. `line == 0` means "no position" (e.g. programs assembled via
/// the builders rather than parsed from DSL text).
///
/// Spans are **metadata, not value**: two ASTs that differ only in spans are
/// the same program, and the DSL printers deliberately do not round-trip
/// positions. `PartialEq`/`Hash` therefore ignore spans entirely — every
/// span compares equal — so structural equality of parsed programs is
/// unaffected by where their tokens sat in the source text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// The absent span, used by programmatic builders.
    pub fn none() -> Span {
        Span { line: 0, col: 0 }
    }

    pub fn is_none(&self) -> bool {
        self.line == 0
    }
}

// Spans are position metadata: equality and hashing ignore them (see type
// docs). This keeps `Program` equality structural across print/reparse.
impl PartialEq for Span {
    fn eq(&self, _other: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

impl std::hash::Hash for Span {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Diagnostic severity, ordered `Hint < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Hint,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Hint => "hint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The numeric rendering (`GQL001`…) is part of
/// the tool's public interface: codes are never renumbered, only added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// GQL000 — DSL syntax error (the parser could not produce an AST).
    Syntax,
    /// GQL001 — XML-GL structural ill-formedness (graph shape violations).
    XmlGlIllFormed,
    /// GQL002 — a variable is bound more than once in a rule.
    DuplicateVariable,
    /// GQL003 — a binding or join endpoint escapes a negated subtree.
    NegationScope,
    /// GQL004 — unsafe construct part: references a variable that is never
    /// positively bound on the query side (range restriction).
    UnsafeConstruct,
    /// GQL005 — the query graph is disconnected: independently bound parts
    /// multiply into an accidental cartesian product.
    DisconnectedQuery,
    /// GQL006 — XML-GL query contradicts the document schema (DTD).
    XmlSchemaMismatch,
    /// GQL007 — a predicate is unsatisfiable (e.g. `= "a" and = "b"`).
    ContradictoryPredicate,
    /// GQL008 — a variable is bound but never used.
    UnusedVariable,
    /// GQL009 — cost hint: the plan contains a super-linear join blowup.
    CostBlowup,
    /// GQL010 — WG-Log program is not stratifiable (negation in a cycle).
    NotStratifiable,
    /// GQL011 — WG-Log rule ill-formedness (coloring/shape violations).
    WgLogIllFormed,
    /// GQL012 — WG-Log rule contradicts the schema graph.
    WgSchemaMismatch,
    /// GQL013 — the goal type is neither in the schema nor constructed by
    /// any rule: the answer is provably empty.
    GoalNeverConstructed,
    /// GQL014 — the query is provably empty under the inferred structural
    /// summary of the queried document (no conforming data can match).
    EmptyUnderSummary,
    /// GQL015 — a WG-Log rule is dead: its positive observations can never
    /// be satisfied by the base facts or any live rule's output.
    DeadRule,
    /// GQL016 — an XPath step selects along a path the document's summary
    /// automaton does not contain.
    PathNeverMatches,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Syntax => "GQL000",
            Code::XmlGlIllFormed => "GQL001",
            Code::DuplicateVariable => "GQL002",
            Code::NegationScope => "GQL003",
            Code::UnsafeConstruct => "GQL004",
            Code::DisconnectedQuery => "GQL005",
            Code::XmlSchemaMismatch => "GQL006",
            Code::ContradictoryPredicate => "GQL007",
            Code::UnusedVariable => "GQL008",
            Code::CostBlowup => "GQL009",
            Code::NotStratifiable => "GQL010",
            Code::WgLogIllFormed => "GQL011",
            Code::WgSchemaMismatch => "GQL012",
            Code::GoalNeverConstructed => "GQL013",
            Code::EmptyUnderSummary => "GQL014",
            Code::DeadRule => "GQL015",
            Code::PathNeverMatches => "GQL016",
        }
    }

    /// The severity this code carries unless a producer overrides it.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::Syntax
            | Code::XmlGlIllFormed
            | Code::DuplicateVariable
            | Code::NegationScope
            | Code::UnsafeConstruct
            | Code::NotStratifiable
            | Code::WgLogIllFormed => Severity::Error,
            Code::DisconnectedQuery
            | Code::XmlSchemaMismatch
            | Code::ContradictoryPredicate
            | Code::WgSchemaMismatch
            | Code::GoalNeverConstructed
            | Code::EmptyUnderSummary
            | Code::DeadRule
            | Code::PathNeverMatches => Severity::Warning,
            Code::UnusedVariable | Code::CostBlowup => Severity::Hint,
        }
    }

    /// All codes, in numeric order (used by docs and coverage tests).
    pub fn all() -> &'static [Code] {
        &[
            Code::Syntax,
            Code::XmlGlIllFormed,
            Code::DuplicateVariable,
            Code::NegationScope,
            Code::UnsafeConstruct,
            Code::DisconnectedQuery,
            Code::XmlSchemaMismatch,
            Code::ContradictoryPredicate,
            Code::UnusedVariable,
            Code::CostBlowup,
            Code::NotStratifiable,
            Code::WgLogIllFormed,
            Code::WgSchemaMismatch,
            Code::GoalNeverConstructed,
            Code::EmptyUnderSummary,
            Code::DeadRule,
            Code::PathNeverMatches,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a coded, located, severity-ranked finding about a query
/// program, with an optional `help` suggestion (the "what the editor would
/// tell you" text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub span: Span,
    /// Human label of the rule the finding is in, e.g. `rule 2 (book)`.
    pub rule: Option<String>,
    pub message: String,
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span: Span::none(),
            rule: None,
            message: message.into(),
            help: None,
        }
    }

    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    pub fn with_rule(mut self, rule: impl Into<String>) -> Diagnostic {
        self.rule = Some(rule.into());
        self
    }

    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    /// `error[GQL003] at 4:7 in rule 2 (book): message (help: …)`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if !self.span.is_none() {
            write!(f, " at {}", self.span)?;
        }
        if let Some(rule) = &self.rule {
            write!(f, " in {rule}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(help) = &self.help {
            write!(f, " (help: {help})")?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics with rendering helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Diagnostics at Error severity, e.g. to attach to a refusal.
    pub fn errors(&self) -> Vec<Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.is_error())
            .cloned()
            .collect()
    }

    /// The highest severity present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// One diagnostic per line, in emission order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON report. Schema:
    /// `{"diagnostics":[{code,severity,line,col,rule,message,help}…],
    ///   "errors":N,"warnings":N,"hints":N}`
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::new(&mut out));
        out
    }

    /// [`Report::to_json`] as one value of a larger JSON text.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_object().key("diagnostics").begin_array();
        for d in &self.diagnostics {
            w.begin_object().key("code").string(d.code.as_str());
            w.key("severity").string(d.severity.as_str());
            w.key("line").number(d.span.line);
            w.key("col").number(d.span.col);
            match &d.rule {
                Some(r) => w.key("rule").string(r),
                None => w.key("rule").null(),
            };
            w.key("message").string(&d.message);
            match &d.help {
                Some(h) => w.key("help").string(h),
                None => w.key("help").null(),
            };
            w.end_object();
        }
        w.end_array();
        w.key("errors").number(self.count(Severity::Error));
        w.key("warnings").number(self.count(Severity::Warning));
        w.key("hints").number(self.count(Severity::Hint));
        w.end_object();
    }
}

impl IntoIterator for Report {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.into_iter()
    }
}

impl From<Vec<Diagnostic>> for Report {
    fn from(diagnostics: Vec<Diagnostic>) -> Report {
        Report { diagnostics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_metadata_only() {
        assert_eq!(Span::new(3, 9), Span::none());
        let a = Diagnostic::new(Code::UnusedVariable, "x").with_span(Span::new(1, 1));
        let b = Diagnostic::new(Code::UnusedVariable, "x").with_span(Span::new(7, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::new(Code::NegationScope, "variable $x escapes")
            .with_span(Span::new(4, 7))
            .with_rule("rule 2 (book)")
            .with_help("bind $x outside the negation");
        assert_eq!(
            d.to_string(),
            "error[GQL003] at 4:7 in rule 2 (book): variable $x escapes \
             (help: bind $x outside the negation)"
        );
        let bare = Diagnostic::new(Code::CostBlowup, "plan multiplies");
        assert_eq!(bare.to_string(), "hint[GQL009]: plan multiplies");
    }

    #[test]
    fn report_counters() {
        let mut r = Report::new();
        assert!(r.is_empty() && !r.has_errors() && r.worst().is_none());
        r.push(Diagnostic::new(Code::UnusedVariable, "a"));
        r.push(Diagnostic::new(Code::DisconnectedQuery, "b"));
        assert_eq!(r.worst(), Some(Severity::Warning));
        assert!(!r.has_errors());
        r.push(Diagnostic::new(Code::DuplicateVariable, "c"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.errors().len(), 1);
        assert_eq!(r.render().lines().count(), 3);
    }

    #[test]
    fn json_escaping_and_shape() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(Code::Syntax, "unexpected \"quote\"\nline two")
                .with_span(Span::new(2, 5)),
        );
        let j = r.to_json();
        assert!(j.contains("\"code\":\"GQL000\""));
        assert!(j.contains("\\\"quote\\\"\\nline two"));
        assert!(j.contains("\"line\":2,\"col\":5"));
        assert!(j.contains("\"errors\":1,\"warnings\":0,\"hints\":0"));
        assert!(j.contains("\"rule\":null"));
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let all = Code::all();
        assert_eq!(all.len(), 17);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.as_str(), format!("GQL{i:03}"));
        }
    }
}
