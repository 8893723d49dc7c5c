//! Coloured rule graphs — the WG-Log AST.
//!
//! One rule is a single graph. Thin (red) nodes and edges form the query
//! part; thick (green) parts must exist for every embedding of the query
//! part and are *added* when missing (object invention). A program is a set
//! of rules plus a goal type naming the objects to extract.

use std::fmt;

use gql_ssdm::diag::{Code, Diagnostic};
use gql_ssdm::value::parse_number;
pub use gql_ssdm::Span;

use crate::{Result, WgLogError};

/// Part colouring: thin/red = query, thick/green = construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Color {
    Query,
    Construct,
}

/// Type test on a rule node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeTest {
    Type(String),
    /// `*` — any object type.
    Any,
}

impl TypeTest {
    pub fn matches(&self, ty: &str) -> bool {
        match self {
            TypeTest::Type(t) => t == ty,
            TypeTest::Any => true,
        }
    }
}

impl fmt::Display for TypeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeTest::Type(t) => write!(f, "{t}"),
            TypeTest::Any => write!(f, "*"),
        }
    }
}

/// Comparison operators on attribute constraints — the workspace-shared
/// operator set from `gql_ssdm`.
pub use gql_ssdm::CmpOp;

/// One attribute constraint: `attr op constant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    pub attr: String,
    pub op: CmpOp,
    pub value: String,
}

impl Constraint {
    pub fn holds(&self, obj: &crate::instance::Object) -> bool {
        self.holds_values(obj.attr_values(&self.attr), parse_number(&self.value))
    }

    /// [`holds`](Constraint::holds) over the values of the constrained
    /// attribute, however they were found (an instance's objects give them
    /// by key: [`ObjRef::values`](crate::ObjRef::values)), with the
    /// constant's [`parse_number`] parsed once by whoever tests one
    /// constraint against many objects.
    pub fn holds_values<'v>(
        &self,
        mut values: impl Iterator<Item = &'v str>,
        constant: Option<f64>,
    ) -> bool {
        values.any(|v| (self.op).eval_parsed((v, parse_number(v)), (&self.value, constant)))
    }
}

/// Index of a node in a rule graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RNodeId(pub u32);

impl RNodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One rule-graph node.
#[derive(Debug, Clone, PartialEq)]
pub struct RNode {
    pub var: String,
    pub test: TypeTest,
    pub color: Color,
    pub constraints: Vec<Constraint>,
    /// Attributes to set on invented objects (construct nodes only);
    /// values can copy a query variable's attribute: `(attr, From)`.
    pub set_attrs: Vec<(String, AttrValue)>,
    /// Invention granularity (construct nodes only): the query variables a
    /// fresh object is created *per distinct binding of*. Empty = one
    /// object per rule (the figure-F1 "single collection node" reading).
    /// Variables referenced by `set_attrs` copies are implicitly included.
    pub per: Vec<String>,
    /// Source position of the node's declaration (metadata; ignored by
    /// equality so printed/reparsed rules still compare equal).
    pub span: Span,
}

/// Value of an attribute set on an invented object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    Literal(String),
    /// Copy `attr` of the object bound to `var`.
    CopyFrom {
        var: String,
        attr: String,
    },
}

/// A regular path over edge labels (GraphLog's dashed edges): one or more
/// alternative labels with a repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRe {
    pub labels: Vec<String>,
    pub rep: PathRep,
}

/// Repetition of a path expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRep {
    /// Exactly one step.
    One,
    /// One or more steps (`+`).
    Plus,
    /// Zero or more steps (`*`).
    Star,
}

impl fmt::Display for PathRe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = self.labels.join("|");
        match self.rep {
            PathRep::One => write!(f, "{body}"),
            PathRep::Plus => write!(f, "({body})+"),
            PathRep::Star => write!(f, "({body})*"),
        }
    }
}

/// Edge label test: a concrete label, any label, or a regular path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelTest {
    Label(String),
    Any,
    Regex(PathRe),
}

impl fmt::Display for LabelTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelTest::Label(l) => write!(f, "{l}"),
            LabelTest::Any => write!(f, "*"),
            LabelTest::Regex(r) => write!(f, "{r}"),
        }
    }
}

/// One rule-graph edge.
#[derive(Debug, Clone, PartialEq)]
pub struct REdge {
    pub from: RNodeId,
    pub to: RNodeId,
    pub label: LabelTest,
    pub color: Color,
    /// Crossed-out: the query part matches only if no such edge/path exists.
    pub negated: bool,
}

/// One WG-Log rule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rule {
    pub nodes: Vec<RNode>,
    pub edges: Vec<REdge>,
    /// Position of the rule's opening keyword (metadata only).
    pub span: Span,
}

impl Rule {
    pub fn node(&self, id: RNodeId) -> &RNode {
        &self.nodes[id.index()]
    }

    pub fn by_var(&self, var: &str) -> Option<RNodeId> {
        self.nodes
            .iter()
            .position(|n| n.var == var)
            .map(|i| RNodeId(i as u32))
    }

    pub fn ids(&self) -> impl Iterator<Item = RNodeId> {
        (0..self.nodes.len() as u32).map(RNodeId)
    }

    /// Query-coloured node ids.
    pub fn query_nodes(&self) -> impl Iterator<Item = RNodeId> + '_ {
        self.ids().filter(|id| self.node(*id).color == Color::Query)
    }

    /// Construct-coloured node ids.
    pub fn construct_nodes(&self) -> impl Iterator<Item = RNodeId> + '_ {
        self.ids()
            .filter(|id| self.node(*id).color == Color::Construct)
    }

    /// Human label for the rule: what it constructs (first construct node's
    /// type, or first construct edge's label), e.g. `rest-list`.
    pub fn head_label(&self) -> Option<String> {
        if let Some(id) = self.construct_nodes().next() {
            return Some(self.node(id).test.to_string());
        }
        self.edges
            .iter()
            .find(|e| e.color == Color::Construct)
            .map(|e| e.label.to_string())
    }

    /// All well-formedness diagnostics for this rule: distinct vars; edges
    /// in range; construct edges never negated and concretely labelled;
    /// regular paths and wildcards only on the query side; query edges
    /// never touching construct nodes; `per`/attribute copies referencing
    /// query variables.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let ill =
            |msg: String, span: Span| Diagnostic::new(Code::WgLogIllFormed, msg).with_span(span);
        let mut seen = std::collections::HashSet::new();
        for n in &self.nodes {
            if n.var.is_empty() {
                out.push(ill("empty variable name".into(), n.span));
            }
            if !n.var.is_empty() && !seen.insert(&n.var) {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateVariable,
                        format!("variable ${} is bound twice", n.var),
                    )
                    .with_span(n.span),
                );
            }
            if n.color == Color::Query && !n.set_attrs.is_empty() {
                out.push(ill(
                    format!("query node ${} cannot set attributes", n.var),
                    n.span,
                ));
            }
            if n.color == Color::Construct {
                if n.test == TypeTest::Any {
                    out.push(ill(
                        format!("construct node ${} needs a concrete type", n.var),
                        n.span,
                    ));
                }
                if !n.constraints.is_empty() {
                    out.push(ill(
                        format!("construct node ${} cannot carry constraints", n.var),
                        n.span,
                    ));
                }
                for var in &n.per {
                    match self.by_var(var) {
                        None => out.push(ill(format!("'per' references unknown ${var}"), n.span)),
                        Some(src) if self.node(src).color != Color::Query => out.push(ill(
                            format!("'per' must reference a query node, got ${var}"),
                            n.span,
                        )),
                        _ => {}
                    }
                }
                for (_, v) in &n.set_attrs {
                    if let AttrValue::CopyFrom { var, .. } = v {
                        match self.by_var(var) {
                            None => {
                                out.push(ill(format!("attribute copies unknown ${var}"), n.span))
                            }
                            Some(src) if self.node(src).color != Color::Query => out.push(ill(
                                format!("attribute copies from non-query node ${var}"),
                                n.span,
                            )),
                            _ => {}
                        }
                    }
                }
            }
        }
        if self.nodes.is_empty() {
            out.push(ill("a rule needs at least one node".into(), self.span));
        }
        for e in &self.edges {
            if e.from.index() >= self.nodes.len() || e.to.index() >= self.nodes.len() {
                out.push(ill("edge endpoint out of range".into(), self.span));
                continue;
            }
            let espan = self.node(e.from).span;
            let (fc, tc) = (self.node(e.from).color, self.node(e.to).color);
            match e.color {
                Color::Construct => {
                    if e.negated {
                        out.push(ill("construct edges cannot be negated".into(), espan));
                    }
                    if matches!(e.label, LabelTest::Any | LabelTest::Regex(_)) {
                        out.push(ill("construct edges need a concrete label".into(), espan));
                    }
                }
                Color::Query => {
                    if fc == Color::Construct || tc == Color::Construct {
                        out.push(
                            ill("query edges cannot touch construct nodes".into(), espan)
                                .with_help(
                                    "thin (query) edges match existing data; invented \
                                     objects are only reachable through thick edges",
                                ),
                        );
                    }
                }
            }
        }
        out
    }

    /// Fail-fast well-formedness check: the first Error-level diagnostic.
    pub fn check(&self) -> Result<()> {
        match self.diagnostics().into_iter().find(Diagnostic::is_error) {
            Some(d) => Err(WgLogError::IllFormed { msg: d.message }),
            None => Ok(()),
        }
    }
}

/// Human label for a rule in a program: 1-based index plus what it
/// constructs, e.g. `rule 2 (rest-list)`.
pub fn rule_label(rule: &Rule, index: usize) -> String {
    match rule.head_label() {
        Some(h) => format!("rule {} ({h})", index + 1),
        None => format!("rule {}", index + 1),
    }
}

/// A WG-Log program: rules plus the goal type to extract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub rules: Vec<Rule>,
    /// Object type whose instances form the query answer.
    pub goal: Option<String>,
}

impl Program {
    /// All well-formedness diagnostics, each tagged with the offending
    /// rule's label and falling back to the rule's span.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.rules.is_empty() {
            out.push(Diagnostic::new(
                Code::WgLogIllFormed,
                "a program needs at least one rule",
            ));
            return out;
        }
        for (i, r) in self.rules.iter().enumerate() {
            let label = rule_label(r, i);
            for mut d in r.diagnostics() {
                if d.span.is_none() {
                    d.span = r.span;
                }
                out.push(d.with_rule(label.clone()));
            }
        }
        out
    }

    /// Fail-fast check: the first Error-level diagnostic, its message
    /// prefixed with the rule's label.
    pub fn check(&self) -> Result<()> {
        match self.diagnostics().into_iter().find(Diagnostic::is_error) {
            Some(d) => Err(WgLogError::IllFormed {
                msg: match &d.rule {
                    Some(label) => format!("{label}: {}", d.message),
                    None => d.message,
                },
            }),
            None => Ok(()),
        }
    }
}

/// Fluent builder for rules.
#[derive(Debug, Default)]
pub struct RuleBuilder {
    rule: Rule,
}

impl RuleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a query node.
    pub fn query_node(mut self, var: &str, ty: &str) -> Self {
        self.rule.nodes.push(RNode {
            var: var.to_string(),
            test: if ty == "*" {
                TypeTest::Any
            } else {
                TypeTest::Type(ty.to_string())
            },
            color: Color::Query,
            constraints: Vec::new(),
            set_attrs: Vec::new(),
            per: Vec::new(),
            span: Span::none(),
        });
        self
    }

    /// Add a construct node.
    pub fn construct_node(mut self, var: &str, ty: &str) -> Self {
        self.rule.nodes.push(RNode {
            var: var.to_string(),
            test: TypeTest::Type(ty.to_string()),
            color: Color::Construct,
            constraints: Vec::new(),
            set_attrs: Vec::new(),
            per: Vec::new(),
            span: Span::none(),
        });
        self
    }

    /// Parameterise the most recently added construct node: invent one
    /// object per distinct binding of `var`.
    pub fn per(mut self, var: &str) -> Self {
        if let Some(n) = self.rule.nodes.last_mut() {
            n.per.push(var.to_string());
        }
        self
    }

    /// Attach a constraint to the most recently added node.
    pub fn constraint(mut self, attr: &str, op: CmpOp, value: &str) -> Self {
        if let Some(n) = self.rule.nodes.last_mut() {
            n.constraints.push(Constraint {
                attr: attr.to_string(),
                op,
                value: value.to_string(),
            });
        }
        self
    }

    /// Set a literal attribute on the most recently added (construct) node.
    pub fn set_attr(mut self, attr: &str, value: &str) -> Self {
        if let Some(n) = self.rule.nodes.last_mut() {
            n.set_attrs
                .push((attr.to_string(), AttrValue::Literal(value.to_string())));
        }
        self
    }

    /// Copy an attribute from a query variable onto the most recently added
    /// (construct) node.
    pub fn copy_attr(mut self, attr: &str, from_var: &str, from_attr: &str) -> Self {
        if let Some(n) = self.rule.nodes.last_mut() {
            n.set_attrs.push((
                attr.to_string(),
                AttrValue::CopyFrom {
                    var: from_var.to_string(),
                    attr: from_attr.to_string(),
                },
            ));
        }
        self
    }

    fn resolve(&self, var: &str) -> Result<RNodeId> {
        self.rule.by_var(var).ok_or_else(|| WgLogError::IllFormed {
            msg: format!("unknown variable ${var}"),
        })
    }

    /// Add a query edge.
    pub fn query_edge(mut self, from: &str, label: &str, to: &str) -> Result<Self> {
        let e = REdge {
            from: self.resolve(from)?,
            to: self.resolve(to)?,
            label: if label == "*" {
                LabelTest::Any
            } else {
                LabelTest::Label(label.to_string())
            },
            color: Color::Query,
            negated: false,
        };
        self.rule.edges.push(e);
        Ok(self)
    }

    /// Add a negated query edge.
    pub fn negated_edge(mut self, from: &str, label: &str, to: &str) -> Result<Self> {
        let e = REdge {
            from: self.resolve(from)?,
            to: self.resolve(to)?,
            label: if label == "*" {
                LabelTest::Any
            } else {
                LabelTest::Label(label.to_string())
            },
            color: Color::Query,
            negated: true,
        };
        self.rule.edges.push(e);
        Ok(self)
    }

    /// Add a regular-path query edge.
    pub fn path_edge(mut self, from: &str, re: PathRe, to: &str) -> Result<Self> {
        let e = REdge {
            from: self.resolve(from)?,
            to: self.resolve(to)?,
            label: LabelTest::Regex(re),
            color: Color::Query,
            negated: false,
        };
        self.rule.edges.push(e);
        Ok(self)
    }

    /// Add a construct edge.
    pub fn construct_edge(mut self, from: &str, label: &str, to: &str) -> Result<Self> {
        let e = REdge {
            from: self.resolve(from)?,
            to: self.resolve(to)?,
            label: LabelTest::Label(label.to_string()),
            color: Color::Construct,
            negated: false,
        };
        self.rule.edges.push(e);
        Ok(self)
    }

    pub fn build(self) -> Result<Rule> {
        self.rule.check()?;
        Ok(self.rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f1_rule() -> Rule {
        // The paper's F1: restaurants offering menus → rest-list.
        RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .construct_node("l", "rest-list")
            .query_edge("r", "menu", "m")
            .unwrap()
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_f1() {
        let r = f1_rule();
        assert_eq!(r.nodes.len(), 3);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.query_nodes().count(), 2);
        assert_eq!(r.construct_nodes().count(), 1);
    }

    #[test]
    fn constraints_eval() {
        let mut obj = crate::instance::Object::new("restaurant");
        obj.attrs.push(("category".into(), "italian".into()));
        obj.attrs.push(("stars".into(), "4".into()));
        let c = Constraint {
            attr: "category".into(),
            op: CmpOp::Eq,
            value: "italian".into(),
        };
        assert!(c.holds(&obj));
        let c = Constraint {
            attr: "stars".into(),
            op: CmpOp::Ge,
            value: "5".into(),
        };
        assert!(!c.holds(&obj));
        let c = Constraint {
            attr: "missing".into(),
            op: CmpOp::Eq,
            value: "x".into(),
        };
        assert!(!c.holds(&obj));
    }

    #[test]
    fn multivalued_constraints_are_existential() {
        let mut obj = crate::instance::Object::new("menu");
        obj.attrs.push(("dish".into(), "risotto".into()));
        obj.attrs.push(("dish".into(), "polenta".into()));
        let c = Constraint {
            attr: "dish".into(),
            op: CmpOp::Eq,
            value: "polenta".into(),
        };
        assert!(c.holds(&obj));
    }

    #[test]
    fn duplicate_vars_rejected() {
        let err = RuleBuilder::new()
            .query_node("x", "a")
            .query_node("x", "b")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn construct_rules_validated() {
        // Wildcard construct node.
        let err = RuleBuilder::new().construct_node("c", "*").build();
        assert!(err.is_err() || err.is_ok()); // "*" becomes a literal type name here
                                              // Negated construct edge is impossible through the builder; check
                                              // the validator directly.
        let mut rule = f1_rule();
        rule.edges[1].negated = true;
        assert!(rule.check().unwrap_err().to_string().contains("negated"));
        // Query edge touching a construct node.
        let mut rule = f1_rule();
        rule.edges[1].color = Color::Query;
        assert!(rule
            .check()
            .unwrap_err()
            .to_string()
            .contains("construct nodes"));
    }

    #[test]
    fn construct_node_with_constraint_rejected() {
        let err = RuleBuilder::new()
            .query_node("q", "a")
            .construct_node("c", "out")
            .constraint("x", CmpOp::Eq, "1")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("constraints"));
    }

    #[test]
    fn copy_attr_validation() {
        let err = RuleBuilder::new()
            .query_node("q", "a")
            .construct_node("c", "out")
            .copy_attr("n", "ghost", "name")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("$ghost"));
        let ok = RuleBuilder::new()
            .query_node("q", "a")
            .construct_node("c", "out")
            .copy_attr("n", "q", "name")
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn path_re_display() {
        let p = PathRe {
            labels: vec!["link".into(), "index".into()],
            rep: PathRep::Plus,
        };
        assert_eq!(p.to_string(), "(link|index)+");
        let one = PathRe {
            labels: vec!["a".into()],
            rep: PathRep::One,
        };
        assert_eq!(one.to_string(), "a");
    }

    #[test]
    fn program_check_names_rule() {
        let mut bad = f1_rule();
        bad.edges[0].to = RNodeId(99);
        let p = Program {
            rules: vec![f1_rule(), bad],
            goal: Some("rest-list".into()),
        };
        let err = p.check().unwrap_err();
        assert!(err.to_string().contains("rule 2"));
    }

    #[test]
    fn diagnostics_name_rule_and_head() {
        let mut bad = f1_rule();
        bad.edges[1].negated = true;
        let p = Program {
            rules: vec![f1_rule(), bad],
            goal: Some("rest-list".into()),
        };
        let ds = p.diagnostics();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, gql_ssdm::Code::WgLogIllFormed);
        assert_eq!(ds[0].rule.as_deref(), Some("rule 2 (rest-list)"));
        let err = p.check().unwrap_err().to_string();
        assert!(err.contains("rule 2 (rest-list)"), "{err}");
    }
}
