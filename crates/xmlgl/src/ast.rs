//! Typed abstract syntax of XML-GL diagrams.
//!
//! Extract and construct graphs are stored as flat node arenas with child
//! index lists — the same index-based style as the document store, so query
//! nodes are cheap to reference from bindings (`QNodeId`) and construction
//! templates (`CNodeId`).

use std::fmt;

use gql_ssdm::value::parse_number;
pub use gql_ssdm::Span;

/// Index of a node in a rule's extract graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QNodeId(pub u32);

/// Index of a node in a rule's construct graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CNodeId(pub u32);

impl QNodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CNodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Element name test: concrete name or the `*` wildcard box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    Name(String),
    Wildcard,
}

impl NameTest {
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NameTest::Name(n) => n == name,
            NameTest::Wildcard => true,
        }
    }
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Name(n) => write!(f, "{n}"),
            NameTest::Wildcard => write!(f, "*"),
        }
    }
}

/// Comparison operators usable in predicates on text/attribute nodes —
/// the workspace-shared operator set.
pub use gql_ssdm::CmpOp;

/// A predicate drawn next to a text or attribute node. Disjunction is a set
/// of alternatives; the whole predicate is a conjunction of those sets
/// (conjunctive normal form, which covers everything the figures draw).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Conjunction of disjunctions: every clause must have one alternative
    /// hold.
    pub clauses: Vec<Vec<(CmpOp, String)>>,
}

impl Predicate {
    /// A single-comparison predicate.
    pub fn cmp(op: CmpOp, value: impl Into<String>) -> Self {
        Predicate {
            clauses: vec![vec![(op, value.into())]],
        }
    }

    /// No constraint.
    pub fn always() -> Self {
        Predicate {
            clauses: Vec::new(),
        }
    }

    pub fn is_trivial(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Conjoin another clause.
    pub fn and(mut self, op: CmpOp, value: impl Into<String>) -> Self {
        self.clauses.push(vec![(op, value.into())]);
        self
    }

    /// Add an alternative to the last clause (disjunction).
    pub fn or(mut self, op: CmpOp, value: impl Into<String>) -> Self {
        match self.clauses.last_mut() {
            Some(last) => last.push((op, value.into())),
            None => self.clauses.push(vec![(op, value.into())]),
        }
        self
    }

    pub fn eval(&self, data: &str) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|(op, constant)| op.eval(data, constant)))
    }

    /// Every alternative's constant as a number, where it is one, in clause
    /// order: parsed once for [`eval_with`](Predicate::eval_with) by whoever
    /// tests one predicate against many values.
    pub fn parsed_constants(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        let constants = self.clauses.iter().flatten();
        constants.map(|(_, c)| parse_number(c))
    }

    /// [`eval`](Predicate::eval) given this predicate's
    /// [`parsed_constants`](Predicate::parsed_constants): `data` is parsed
    /// at most once ([`CmpOp::eval_lazy`]) and no constant again.
    pub fn eval_with(&self, constants: &[Option<f64>], data: &str) -> bool {
        let d = (data, &std::cell::OnceCell::new());
        let mut next = 0;
        self.clauses.iter().all(|clause| {
            let parsed = &constants[next..next + clause.len()];
            next += clause.len();
            clause
                .iter()
                .zip(parsed)
                .any(|((op, c), &n)| op.eval_lazy(d, (c, n)))
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            for (j, (op, v)) in clause.iter().enumerate() {
                if j > 0 {
                    write!(f, " or ")?;
                }
                write!(f, "{} \"{v}\"", op.symbol())?;
            }
        }
        Ok(())
    }
}

/// Kinds of extract-graph nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum QNodeKind {
    /// A labelled box.
    Element(NameTest),
    /// A hollow circle — the textual content of the parent element.
    Text,
    /// A filled circle — an attribute of the parent element.
    Attribute(String),
}

/// One extract-graph node.
#[derive(Debug, Clone, PartialEq)]
pub struct QNode {
    pub kind: QNodeKind,
    /// Variable name when the node is referenced from the construct side
    /// or a join (purely presentational in diagrams — the reference *is*
    /// the shared node — but needed by the textual syntax).
    pub var: Option<String>,
    /// Predicate on the node's string value (text/attribute nodes, or the
    /// full text content for elements).
    pub predicate: Predicate,
    /// Containment edges to child query nodes.
    pub children: Vec<QEdge>,
    /// Source position of the node in DSL text ([`Span::none`] for
    /// programs assembled via the builder). Metadata only — ignored by
    /// equality (see [`Span`]).
    pub span: Span,
}

impl QNode {
    pub fn element(test: NameTest) -> Self {
        QNode {
            kind: QNodeKind::Element(test),
            var: None,
            predicate: Predicate::always(),
            children: Vec::new(),
            span: Span::none(),
        }
    }

    pub fn text() -> Self {
        QNode {
            kind: QNodeKind::Text,
            var: None,
            predicate: Predicate::always(),
            children: Vec::new(),
            span: Span::none(),
        }
    }

    pub fn attribute(name: impl Into<String>) -> Self {
        QNode {
            kind: QNodeKind::Attribute(name.into()),
            var: None,
            predicate: Predicate::always(),
            children: Vec::new(),
            span: Span::none(),
        }
    }
}

/// A containment edge in the extract graph.
#[derive(Debug, Clone, PartialEq)]
pub struct QEdge {
    pub target: QNodeId,
    /// Asterisk edge: match at any depth below the parent.
    pub deep: bool,
    /// Crossed-out edge: the parent matches only if *no* such child exists.
    pub negated: bool,
}

impl QEdge {
    pub fn child(target: QNodeId) -> Self {
        QEdge {
            target,
            deep: false,
            negated: false,
        }
    }

    pub fn deep(target: QNodeId) -> Self {
        QEdge {
            target,
            deep: true,
            negated: false,
        }
    }

    pub fn negated(target: QNodeId) -> Self {
        QEdge {
            target,
            deep: false,
            negated: true,
        }
    }
}

/// The extract (query) side of a rule: a forest plus join constraints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtractGraph {
    pub nodes: Vec<QNode>,
    /// Roots of the pattern forest.
    pub roots: Vec<QNodeId>,
    /// Join edges: the two query nodes must bind deep-equal data. In the
    /// diagram this is one node with two containment parents; the AST keeps
    /// both occurrences and links them.
    pub joins: Vec<(QNodeId, QNodeId)>,
    /// Whether children of each node must match in document order
    /// (the "crossed first edge" marker); indexed parallel to `nodes`.
    pub ordered: Vec<bool>,
}

impl ExtractGraph {
    pub fn add(&mut self, node: QNode) -> QNodeId {
        let id = QNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.ordered.push(false);
        id
    }

    pub fn node(&self, id: QNodeId) -> &QNode {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: QNodeId) -> &mut QNode {
        &mut self.nodes[id.index()]
    }

    /// Find the query node bound to a variable name.
    pub fn by_var(&self, var: &str) -> Option<QNodeId> {
        self.nodes
            .iter()
            .position(|n| n.var.as_deref() == Some(var))
            .map(|i| QNodeId(i as u32))
    }

    /// All node ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = QNodeId> {
        (0..self.nodes.len() as u32).map(QNodeId)
    }
}

/// Aggregation functions available on the construct side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// Kinds of construct-graph nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum CNodeKind {
    /// Create an element with this tag.
    Element(String),
    /// Literal text.
    Text(String),
    /// Set an attribute on the enclosing element; the value is a literal or
    /// the string value of a query node.
    Attribute { name: String, value: CValue },
    /// Copy the match of a query node (deep copy of the element, or a text
    /// node with the value for text/attribute query nodes). Instantiated
    /// once per binding in scope.
    Copy { source: QNodeId, deep: bool },
    /// The triangle: collect *all* matches of `source` compatible with the
    /// enclosing instantiation, optionally sorted by the value of another
    /// query node (the `order by` extension of the XML-GL literature).
    All {
        source: QNodeId,
        order: Option<SortSpec>,
    },
    /// The list icon: like [`CNodeKind::All`] but grouped by the value of
    /// another query node; one `wrapper` element is emitted per group.
    GroupBy {
        source: QNodeId,
        key: QNodeId,
        wrapper: String,
    },
    /// Aggregate function over the matches of a query node.
    Aggregate { func: AggFunc, source: QNodeId },
}

/// One construct-graph node.
#[derive(Debug, Clone, PartialEq)]
pub struct CNode {
    pub kind: CNodeKind,
    pub children: Vec<CNodeId>,
    /// Source position (metadata only — ignored by equality, see [`Span`]).
    pub span: Span,
}

impl CNode {
    pub fn new(kind: CNodeKind) -> Self {
        CNode {
            kind,
            children: Vec::new(),
            span: Span::none(),
        }
    }
}

/// Sort specification for ordered collections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortSpec {
    /// Query node whose bound value keys the sort.
    pub key: QNodeId,
    /// Descending instead of ascending.
    pub descending: bool,
}

/// Attribute value on the construct side.
#[derive(Debug, Clone, PartialEq)]
pub enum CValue {
    Literal(String),
    Binding(QNodeId),
}

/// The construct side of a rule: a forest of templates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstructGraph {
    pub nodes: Vec<CNode>,
    pub roots: Vec<CNodeId>,
}

impl ConstructGraph {
    pub fn add(&mut self, node: CNode) -> CNodeId {
        let id = CNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    pub fn node(&self, id: CNodeId) -> &CNode {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: CNodeId) -> &mut CNode {
        &mut self.nodes[id.index()]
    }

    pub fn ids(&self) -> impl Iterator<Item = CNodeId> {
        (0..self.nodes.len() as u32).map(CNodeId)
    }
}

/// One XML-GL rule: an extract graph and a construct graph drawn side by
/// side, separated by the vertical line in the figures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rule {
    pub extract: ExtractGraph,
    pub construct: ConstructGraph,
    /// Position of the rule's opening keyword in DSL text (metadata only).
    pub span: Span,
}

/// An XML-GL program is a set of rules; their outputs are concatenated
/// under one result document in rule order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn single(rule: Rule) -> Self {
        Program { rules: vec![rule] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_test() {
        assert!(NameTest::Name("book".into()).matches("book"));
        assert!(!NameTest::Name("book".into()).matches("article"));
        assert!(NameTest::Wildcard.matches("anything"));
        assert_eq!(NameTest::Wildcard.to_string(), "*");
    }

    #[test]
    fn cmp_op_numeric_coercion() {
        assert!(CmpOp::Gt.eval("20", "9"));
        assert!(!CmpOp::Gt.eval("20", "90"));
        assert!(CmpOp::Eq.eval("20.0", "20"));
        assert!(CmpOp::Lt.eval("apple", "banana")); // lexicographic fallback
        assert!(CmpOp::Contains.eval("Data on the Web", "Web"));
        assert!(CmpOp::StartsWith.eval("http://x", "http:"));
        assert!(CmpOp::Ne.eval("a", "b"));
    }

    #[test]
    fn predicate_cnf() {
        // (= Smith or > 16) and (< 20)
        let p = Predicate::cmp(CmpOp::Eq, "Smith")
            .or(CmpOp::Gt, "16")
            .and(CmpOp::Lt, "20");
        // "Smith" passes the first clause but "< 20" is undefined for a
        // string-vs-number comparison, so the conjunction fails.
        assert!(!p.eval("Smith"));
        assert!(p.eval("18"));
        assert!(!p.eval("25"));
        assert!(Predicate::always().eval("whatever"));
        // With the constants parsed beforehand the verdicts are the same.
        let constants: Vec<Option<f64>> = p.parsed_constants().collect();
        assert_eq!(constants, [None, Some(16.0), Some(20.0)]);
        for data in ["Smith", "18", "25", "16", "", " 17 ", "x"] {
            assert_eq!(p.eval_with(&constants, data), p.eval(data), "{data:?}");
        }
        assert!(Predicate::always().eval_with(&[], "whatever"));
    }

    #[test]
    fn predicate_display() {
        let p = Predicate::cmp(CmpOp::Ge, "16")
            .or(CmpOp::Eq, "x")
            .and(CmpOp::Lt, "20");
        assert_eq!(p.to_string(), ">= \"16\" or = \"x\" and < \"20\"");
    }

    #[test]
    fn extract_graph_vars() {
        let mut g = ExtractGraph::default();
        let mut n = QNode::element(NameTest::Name("book".into()));
        n.var = Some("b".into());
        let id = g.add(n);
        g.roots.push(id);
        assert_eq!(g.by_var("b"), Some(id));
        assert_eq!(g.by_var("zzz"), None);
    }

    #[test]
    fn agg_func_names_roundtrip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
