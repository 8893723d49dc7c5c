//! Result construction from bindings.
//!
//! Each construct root is instantiated once per distinct tuple of its
//! *scope* — the query nodes referenced by `copy` nodes and bound attribute
//! values in its subtree. Collector nodes (triangle `all`, list-icon
//! `group by`, aggregates) range over every binding compatible with the
//! instantiation, so nesting a triangle under a copied element expresses
//! grouping, exactly like the nested construction patterns of the figures.
//!
//! Construction is one producer of [`Sink`] events, top-down: an element,
//! its attributes, its content. Whether that builds a document or writes
//! the answer's bytes is the sink's business.

use std::borrow::Cow;
use std::collections::HashMap;

use gql_ssdm::sink::{DocSink, Sink};
use gql_ssdm::value::{format_number, parse_number};
use gql_ssdm::{DocIndex, Document, NodeId};

use crate::ast::{AggFunc, CNodeId, CNodeKind, CValue, QNodeId, QNodeKind, Rule};
use crate::{Result, XmlGlError};

use super::bindings::{cell_text, distinct_of, Bindings, Keys, Row};

/// Materialise one rule's construct side into `out`, given the bindings of
/// its extract side. Instances are appended under the output document node.
pub fn construct_rule(
    rule: &Rule,
    doc: &Document,
    bindings: &Bindings,
    out: &mut Document,
) -> Result<()> {
    construct_rule_into(rule, doc, bindings, &mut DocSink::new(out)).map(drop)
}

/// Exactly [`construct_rule`]: construction reads no index. `_idx` survives
/// only because `gql-benchmark/src/replay.rs`, frozen outside a `benchmark`
/// PR, passes one; the next `benchmark` PR deletes this function.
pub fn construct_rule_with(
    rule: &Rule,
    doc: &Document,
    _idx: Option<&DocIndex>,
    bindings: &Bindings,
    out: &mut Document,
) -> Result<()> {
    construct_rule(rule, doc, bindings, out)
}

/// The full form of [`construct_rule`]: emit the rule's instances into
/// `sink` as top-level elements and return how many there were. `doc` is the
/// document `bindings` was matched against: values are read from it.
///
/// An `Err` can follow events already emitted (an aggregate over something
/// that is no number): the caller drops what the sink holds.
pub fn construct_rule_into(
    rule: &Rule,
    doc: &Document,
    bindings: &Bindings,
    sink: &mut impl Sink,
) -> Result<usize> {
    let cx = Cx {
        rule,
        doc,
        bindings,
    };
    let mut instances = 0;
    for &root in &rule.construct.roots {
        let scope = scope_of(rule, root);
        if scope.is_empty() {
            // One static instance, over every binding.
            cx.instantiate(root, Group::All(bindings.len()), sink)?;
            instances += 1;
        } else {
            for rows in group_by_scope(bindings, &scope) {
                cx.instantiate(root, Group::Rows(&rows), sink)?;
                instances += 1;
            }
        }
    }
    Ok(instances)
}

/// The scope of a construct subtree: query nodes whose binding determines
/// one instance (copy sources and bound attribute values).
fn scope_of(rule: &Rule, root: CNodeId) -> Vec<QNodeId> {
    let g = &rule.construct;
    let mut scope = Vec::new();
    let mut stack = vec![root];
    while let Some(c) = stack.pop() {
        let n = g.node(c);
        match &n.kind {
            CNodeKind::Copy { source, .. } => scope.push(*source),
            CNodeKind::Attribute {
                value: CValue::Binding(source),
                ..
            } => scope.push(*source),
            _ => {}
        }
        stack.extend(n.children.iter().copied());
    }
    scope.sort();
    scope.dedup();
    scope
}

/// The rows of the binding table one instance ranges over.
#[derive(Clone, Copy)]
enum Group<'a> {
    /// Every row of a table this long.
    All(usize),
    Rows(&'a [u32]),
}

impl<'a> Group<'a> {
    fn rows(self) -> impl Iterator<Item = u32> + Clone + 'a {
        let len = match self {
            Group::All(len) => len,
            Group::Rows(rows) => rows.len(),
        };
        (0..len).map(move |i| match self {
            Group::All(_) => i as u32,
            Group::Rows(rows) => rows[i],
        })
    }
}

/// Partition the rows of `bindings` into groups with equal scope tuples,
/// preserving the order of first occurrence. Rows missing a scope slot are
/// dropped.
fn group_by_scope(bindings: &Bindings, scope: &[QNodeId]) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut group_of: HashMap<Vec<NodeId>, usize> = HashMap::new();
    let mut parts = Vec::with_capacity(scope.len());
    for (row, b) in bindings.iter().enumerate() {
        parts.clear();
        // Group instances by *identity* — the cell: two distinct matched
        // nodes with equal content still yield two instances, matching the
        // "one output per match" reading of the figures.
        parts.extend(scope.iter().map_while(|&q| b.get(q)));
        if parts.len() < scope.len() {
            continue;
        }
        let group = match group_of.get(parts.as_slice()) {
            Some(&group) => group,
            None => {
                group_of.insert(parts.clone(), groups.len());
                groups.push(Vec::new());
                groups.len() - 1
            }
        };
        groups[group].push(row as u32);
    }
    groups
}

/// What every step of one rule's construction reads.
#[derive(Clone, Copy)]
struct Cx<'a> {
    rule: &'a Rule,
    doc: &'a Document,
    bindings: &'a Bindings,
}

impl<'a> Cx<'a> {
    fn rows_of(self, group: Group<'a>) -> impl Iterator<Item = Row<'a>> + Clone {
        group.rows().map(move |row| self.bindings.row(row as usize))
    }

    /// The string value of a cell of column `q`.
    fn text(self, q: QNodeId, cell: NodeId) -> Cow<'a, str> {
        cell_text(self.doc, &self.rule.extract, q, cell)
    }

    /// Partition `group` by *content* of the binding at `key`, preserving
    /// order of first occurrence: rows are bucketed by the `u64` hash of the
    /// content key and only hash-equal rows are compared.
    fn group_by_content(self, group: Group<'a>, key: QNodeId) -> Vec<Vec<u32>> {
        let mut keys = Keys::new(self.doc, &self.rule.extract);
        // Each group keeps its first cell as the representative for equality.
        let mut out: Vec<(NodeId, Vec<u32>)> = Vec::new();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for row in group.rows() {
            let Some(cell) = self.bindings.row(row as usize).get(key) else {
                continue;
            };
            let slot = buckets.entry(keys.hash(key, cell)).or_default();
            match slot
                .iter()
                .find(|&&gi| keys.eq((key, Some(out[gi].0)), (key, Some(cell))))
            {
                Some(&gi) => out[gi].1.push(row),
                None => {
                    slot.push(out.len());
                    out.push((cell, vec![row]));
                }
            }
        }
        out.into_iter().map(|(_, members)| members).collect()
    }

    /// Emit one instance of a construct element: the start tag with the
    /// element's attribute children, in construct order wherever among the
    /// children they stand, then what the other children produce.
    fn instantiate(self, c: CNodeId, group: Group<'a>, sink: &mut impl Sink) -> Result<()> {
        let g = &self.rule.construct;
        let node = g.node(c);
        let CNodeKind::Element(name) = &node.kind else {
            return Err(XmlGlError::Eval {
                msg: format!(
                    "internal: instantiate called on non-element {:?}",
                    node.kind
                ),
            });
        };
        sink.start(name);
        for &child in &node.children {
            if let CNodeKind::Attribute { name, value } = &g.node(child).kind {
                match value {
                    CValue::Literal(s) => sink.attr(name, s),
                    CValue::Binding(q) => {
                        sink.attr(name, &self.text(*q, self.first_cell(group, *q)?))
                    }
                }
            }
        }
        for &child in &node.children {
            self.content(child, group, sink)?;
        }
        sink.end();
        Ok(())
    }

    /// Emit the (possibly several) nodes a non-attribute construct child
    /// produces within one instance.
    fn content(self, c: CNodeId, group: Group<'a>, sink: &mut impl Sink) -> Result<()> {
        match &self.rule.construct.node(c).kind {
            CNodeKind::Element(_) => self.instantiate(c, group, sink)?,
            CNodeKind::Text(s) => sink.text(s),
            CNodeKind::Attribute { .. } => {} // in the parent's start tag
            CNodeKind::Copy { source, deep } => {
                self.copy(*source, self.first_cell(group, *source)?, *deep, sink)
            }
            CNodeKind::All { source, order } => {
                let mut cells = distinct_of(self.rows_of(group), *source);
                if let Some(spec) = order {
                    // Sort by the first key value seen with each collected
                    // binding; numeric when both keys are numbers.
                    let key_of = |cell: NodeId| {
                        self.rows_of(group)
                            .find(|row| row.get(*source) == Some(cell))
                            .and_then(|row| row.get(spec.key))
                            .map(|k| self.text(spec.key, k))
                    };
                    let mut keyed: Vec<(Option<Cow<'_, str>>, NodeId)> =
                        cells.into_iter().map(|c| (key_of(c), c)).collect();
                    keyed.sort_by(|(a, _), (b, _)| compare_sort_keys(a.as_deref(), b.as_deref()));
                    if spec.descending {
                        keyed.reverse();
                    }
                    cells = keyed.into_iter().map(|(_, c)| c).collect();
                }
                for cell in cells {
                    self.copy(*source, cell, true, sink);
                }
            }
            CNodeKind::GroupBy {
                source,
                key,
                wrapper,
            } => {
                // Groups ordered by first occurrence of the key.
                for members in self.group_by_content(group, *key) {
                    sink.start(wrapper);
                    // Label the group with its key value.
                    if let Some(kv) = self.bindings.row(members[0] as usize).get(*key) {
                        sink.attr("key", &self.text(*key, kv));
                    }
                    for cell in distinct_of(self.rows_of(Group::Rows(&members)), *source) {
                        self.copy(*source, cell, true, sink);
                    }
                    sink.end();
                }
            }
            CNodeKind::Aggregate { func, source } => {
                let cells = distinct_of(self.rows_of(group), *source);
                sink.text(&self.aggregate(*func, *source, &cells)?);
            }
        }
        Ok(())
    }

    fn first_cell(self, group: Group<'a>, q: QNodeId) -> Result<NodeId> {
        self.rows_of(group)
            .find_map(|row| row.get(q))
            .ok_or_else(|| XmlGlError::Eval {
                msg: format!("query node {q:?} is unbound"),
            })
    }

    /// Emit a copy of what a cell of column `q` stands for.
    fn copy(self, q: QNodeId, cell: NodeId, deep: bool, sink: &mut impl Sink) {
        let doc = self.doc;
        match &self.rule.extract.node(q).kind {
            QNodeKind::Element(_) if deep => sink.subtree(doc, cell),
            // Shallow: the element shell with its attributes only.
            QNodeKind::Element(_) => {
                sink.start(doc.name(cell).unwrap_or(""));
                for (k, v) in doc.attrs(cell) {
                    sink.attr(k, v);
                }
                sink.end();
            }
            QNodeKind::Text | QNodeKind::Attribute(_) => sink.text(&self.text(q, cell)),
        }
    }

    fn aggregate(self, func: AggFunc, q: QNodeId, cells: &[NodeId]) -> Result<String> {
        if func == AggFunc::Count {
            return Ok(cells.len().to_string());
        }
        let nums: Vec<f64> = cells
            .iter()
            .map(|&cell| {
                let t = self.text(q, cell);
                parse_number(&t).ok_or_else(|| XmlGlError::Eval {
                    msg: format!("{func:?} over non-number {t:?}"),
                })
            })
            .collect::<Result<_>>()?;
        if nums.is_empty() {
            // min/max/avg/sum of nothing: empty string mirrors "no value".
            return Ok(if func == AggFunc::Sum {
                "0".to_string()
            } else {
                String::new()
            });
        }
        let v = match func {
            AggFunc::Sum => nums.iter().sum(),
            AggFunc::Min => nums.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Avg => nums.iter().sum::<f64>() / nums.len() as f64,
            AggFunc::Count => unreachable!("handled above"),
        };
        // Round away accumulated binary-float noise (sums of prices like 39.95
        // would otherwise print as 145.85000000000002).
        let rounded = (v * 1e9).round() / 1e9;
        Ok(format_number(rounded))
    }
}

/// Ordering for sort keys: numbers numerically, otherwise lexicographic;
/// missing keys sort last.
fn compare_sort_keys(a: Option<&str>, b: Option<&str>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) => match (parse_number(x), parse_number(y)) {
            (Some(nx), Some(ny)) => nx.partial_cmp(&ny).unwrap_or(std::cmp::Ordering::Equal),
            _ => x.cmp(y),
        },
        _ => b.is_some().cmp(&a.is_some()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_rule;
    use crate::ast::{AggFunc, CmpOp};
    use crate::builder::{RuleBuilder, C, Q};
    use gql_ssdm::Document;

    fn doc() -> Document {
        Document::parse_str(
            "<bib>\
               <book year='1994'><title>TCP/IP</title><price>65.95</price></book>\
               <book year='2000'><title>Data on the Web</title><price>39.95</price></book>\
               <book year='2000'><title>XML Handbook</title><price>39.95</price></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn all_collects_every_match() {
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("result").child(C::all("b")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let root = out.root_element().unwrap();
        assert_eq!(out.name(root), Some("result"));
        assert_eq!(out.child_elements(root).count(), 3);
        // Deep copies: titles present.
        assert!(out.to_xml_string().contains("<title>TCP/IP</title>"));
    }

    #[test]
    fn copy_instantiates_per_binding() {
        let r = RuleBuilder::new()
            .extract(Q::elem("book").child(Q::elem("title").child(Q::text().var("t"))))
            .construct(C::elem("entry").child(C::copy("t")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let entries: Vec<_> = out.child_elements(out.root()).collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(out.text_content(entries[0]), "TCP/IP");
    }

    #[test]
    fn shallow_copy_keeps_attrs_only() {
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("shells").child(C::all("b")))
            .build()
            .unwrap();
        // all() is deep; use copy_shallow via scope instead.
        let r2 = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("shell").child(C::copy_shallow("b")))
            .build()
            .unwrap();
        let out = run_rule(&r2, &doc()).unwrap();
        let first = out.child_elements(out.root()).next().unwrap();
        let book = out.child_elements(first).next().unwrap();
        assert_eq!(out.attr(book, "year"), Some("1994"));
        assert_eq!(out.children(book).len(), 0);
        drop(r);
    }

    #[test]
    fn attributes_from_bindings() {
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .child(Q::attr("year").var("y"))
                    .child(Q::elem("title").child(Q::text().var("t"))),
            )
            .construct(
                C::elem("entry")
                    .child(C::attr_var("published", "y"))
                    .child(C::copy("t")),
            )
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let first = out.child_elements(out.root()).next().unwrap();
        assert_eq!(out.attr(first, "published"), Some("1994"));
    }

    /// Attributes stand wherever among a construct element's children they
    /// were drawn; a name drawn twice is one attribute. The written answer
    /// is the built one's bytes.
    #[test]
    fn attributes_go_in_the_start_tag_and_a_repeated_name_takes_its_last_value() {
        use gql_ssdm::sink::{Sink, XmlSink};
        let r = RuleBuilder::new()
            .extract(Q::elem("book").child(Q::attr("year").var("y")))
            .construct(
                C::elem("e")
                    .child(C::attr("k", "drawn first"))
                    .child(C::text("t"))
                    .child(C::attr_var("published", "y"))
                    .child(C::elem("inner").child(C::attr("k", "its own")))
                    .child(C::attr_var("k", "y")),
            )
            .build()
            .unwrap();
        let d = doc();
        let built = run_rule(&r, &d).unwrap().to_xml_string();
        let e = |y| format!("<e k=\"{y}\" published=\"{y}\">t<inner k=\"its own\"/></e>");
        assert_eq!(built, [e(1994), e(2000), e(2000)].concat());
        let mut written = String::new();
        let mut sink = XmlSink::new(&mut written);
        let bindings = super::super::match_rule(&r, &d);
        let instances = super::construct_rule_into(&r, &d, &bindings, &mut sink).unwrap();
        assert_eq!((instances, sink.nodes()), (3, 9));
        assert_eq!(written, built);
    }

    #[test]
    fn aggregates() {
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::elem("price").child(Q::text().var("p"))),
            )
            .construct(
                C::elem("stats")
                    .child(C::elem("n").child(C::agg(AggFunc::Count, "b")))
                    .child(C::elem("total").child(C::agg(AggFunc::Sum, "p")))
                    .child(C::elem("cheapest").child(C::agg(AggFunc::Min, "p")))
                    .child(C::elem("dearest").child(C::agg(AggFunc::Max, "p"))),
            )
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let xml = out.to_xml_string();
        assert!(xml.contains("<n>3</n>"), "{xml}");
        assert!(xml.contains("<total>145.85</total>"), "{xml}");
        assert!(xml.contains("<cheapest>39.95</cheapest>"), "{xml}");
        assert!(xml.contains("<dearest>65.95</dearest>"), "{xml}");
    }

    #[test]
    fn count_distinct_is_by_identity_not_value() {
        // Two books share the price 39.95 — count over price text still sees
        // one value per *text occurrence*; values are strings, so identical
        // strings collapse. Counting books (nodes) keeps all three.
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("n").child(C::agg(AggFunc::Count, "b")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        assert!(out.to_xml_string().contains(">3<") || out.to_xml_string().contains("<n>3</n>"));
    }

    #[test]
    fn group_by_emits_one_wrapper_per_key() {
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b").child(Q::attr("year").var("y")))
            .construct(C::elem("by-year").child(C::group_by("b", "y", "year-group")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let root = out.root_element().unwrap();
        let groups: Vec<_> = out.child_elements(root).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(out.attr(groups[0], "key"), Some("1994"));
        assert_eq!(out.child_elements(groups[0]).count(), 1);
        assert_eq!(out.attr(groups[1], "key"), Some("2000"));
        assert_eq!(out.child_elements(groups[1]).count(), 2);
    }

    #[test]
    fn static_construction_without_bindings() {
        let r = RuleBuilder::new()
            .extract(Q::elem("nonexistent").var("x"))
            .construct(C::elem("empty").child(C::all("x")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        assert_eq!(out.to_xml_string(), "<empty/>");
    }

    #[test]
    fn no_instances_when_scope_unmatched() {
        let r = RuleBuilder::new()
            .extract(Q::elem("nonexistent").child(Q::text().var("t")))
            .construct(C::elem("entry").child(C::copy("t")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        assert_eq!(out.to_xml_string(), "");
    }

    #[test]
    fn literal_text_and_attrs() {
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(
                C::elem("report")
                    .child(C::attr("generated-by", "gql"))
                    .child(C::text("books: "))
                    .child(C::elem("list").child(C::all("b"))),
            )
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let xml = out.to_xml_string();
        assert!(
            xml.starts_with("<report generated-by=\"gql\">books: <list>"),
            "{xml}"
        );
    }

    #[test]
    fn restructuring_inverts_nesting() {
        // Q9-style: group titles under their year — nesting inversion.
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .child(Q::attr("year").var("y"))
                    .child(Q::elem("title").var("t")),
            )
            .construct(C::elem("years").child(C::group_by("t", "y", "year")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let xml = out.to_xml_string();
        assert!(xml.contains("<year key=\"2000\"><title>Data on the Web</title><title>XML Handbook</title></year>"), "{xml}");
    }

    #[test]
    fn the_paper_f2_query_shape() {
        // F2: all BOOKs (with their subelements) from the source.
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("result").child(C::all("b")))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        assert_eq!(out.child_elements(out.root_element().unwrap()).count(), 3);
    }

    #[test]
    fn sorted_collection_orders_by_key() {
        use crate::builder::C as CB;
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::elem("price").child(Q::text().var("p"))),
            )
            .construct(C::elem("by-price").child(CB::all_sorted("b", "p", false)))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let root = out.root_element().unwrap();
        let prices: Vec<String> = out
            .child_elements(root)
            .map(|b| gql_ssdm::path::select_text(&out, b, "price").unwrap())
            .collect();
        assert_eq!(prices, vec!["39.95", "39.95", "65.95"]);
        // Descending flips the order.
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::elem("price").child(Q::text().var("p"))),
            )
            .construct(C::elem("by-price").child(CB::all_sorted("b", "p", true)))
            .build()
            .unwrap();
        let out = run_rule(&r, &doc()).unwrap();
        let root = out.root_element().unwrap();
        let first = out.child_elements(root).next().unwrap();
        assert_eq!(
            gql_ssdm::path::select_text(&out, first, "price").unwrap(),
            "65.95"
        );
    }

    #[test]
    fn sort_keys_numeric_before_lexicographic() {
        // Titles sort lexicographically, prices numerically ("9" < "10").
        let d = gql_ssdm::Document::parse_str(
            "<bib><book><title>b</title><price>10</price></book>\
             <book><title>a</title><price>9</price></book></bib>",
        )
        .unwrap();
        let by_price = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::elem("price").child(Q::text().var("p"))),
            )
            .construct(C::elem("out").child(C::all_sorted("b", "p", false)))
            .build()
            .unwrap();
        let out = run_rule(&by_price, &d).unwrap();
        let root = out.root_element().unwrap();
        let first = out.child_elements(root).next().unwrap();
        assert_eq!(
            gql_ssdm::path::select_text(&out, first, "price").unwrap(),
            "9"
        );
    }

    #[test]
    fn multi_rule_program_concatenates() {
        use crate::ast::Program;
        let r1 = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::attr("year").pred(CmpOp::Eq, "1994")),
            )
            .construct(C::elem("old").child(C::all("b")))
            .build()
            .unwrap();
        let r2 = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::attr("year").pred(CmpOp::Eq, "2000")),
            )
            .construct(C::elem("new").child(C::all("b")))
            .build()
            .unwrap();
        let out = super::super::run(
            &Program {
                rules: vec![r1, r2],
            },
            &doc(),
        )
        .unwrap();
        let tops: Vec<_> = out.child_elements(out.root()).collect();
        assert_eq!(tops.len(), 2);
        assert_eq!(out.name(tops[0]), Some("old"));
        assert_eq!(out.name(tops[1]), Some("new"));
        assert_eq!(out.child_elements(tops[1]).count(), 2);
    }
}
