//! Update operations — the XML-GL extension for modifying documents.
//!
//! The XML-GL literature extends the query rules to *updates*: the extract
//! graph selects targets exactly as in queries, and the right-hand side,
//! instead of constructing a result document, edits the source. Three
//! operations cover the published examples:
//!
//! * [`UpdateOp::Delete`] — remove every element matched by a variable;
//! * [`UpdateOp::InsertUnder`] — instantiate a construct template once per
//!   binding and append it under the matched element;
//! * [`UpdateOp::SetAttr`] — set an attribute on every matched element
//!   (literal value or copied from another binding).
//!
//! Updates are applied to a *clone* of the input ([`UpdateRule::apply`] is pure); the
//! binding phase runs entirely before the mutation phase, so an update
//! never observes its own effects (snapshot semantics — the only sane
//! reading of a declarative diagram).

use gql_ssdm::{Document, NodeId};

use crate::ast::{CNodeId, QNodeId, QNodeKind, Rule};
use crate::eval::{cell_text, distinct_cells, match_rule, Bindings};
use crate::{Result, XmlGlError};

/// One update operation, tied to a rule's extract graph.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Delete every element bound to the variable.
    Delete { target: QNodeId },
    /// Instantiate the construct root `template` once per binding and
    /// append it under the element bound to `target`.
    InsertUnder { target: QNodeId, template: CNodeId },
    /// Set `attr` on every element bound to `target`.
    SetAttr {
        target: QNodeId,
        attr: String,
        value: UpdateValue,
    },
}

/// Value source for [`UpdateOp::SetAttr`].
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateValue {
    Literal(String),
    /// The string value of another bound query node.
    Binding(QNodeId),
}

/// An update program: a rule (whose construct side holds any insertion
/// templates) plus the operations to apply.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRule {
    pub rule: Rule,
    pub ops: Vec<UpdateOp>,
}

/// Statistics of one update application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    pub bindings: usize,
    pub deleted: usize,
    pub inserted: usize,
    pub attrs_set: usize,
}

impl UpdateRule {
    /// Validate: operation targets exist; insert templates are construct
    /// roots (elements); delete targets are element nodes.
    pub fn check(&self) -> Result<()> {
        let ill = |msg: String| Err(XmlGlError::IllFormed { msg });
        crate::check::check_rule(&self.rule)?;
        if self.ops.is_empty() {
            return ill("an update rule needs at least one operation".into());
        }
        let q_ok = |id: QNodeId| id.index() < self.rule.extract.nodes.len();
        for op in &self.ops {
            match op {
                UpdateOp::Delete { target } | UpdateOp::SetAttr { target, .. } => {
                    if !q_ok(*target) {
                        return ill("operation targets a missing query node".into());
                    }
                    if !matches!(self.rule.extract.node(*target).kind, QNodeKind::Element(_)) {
                        return ill("updates target element boxes".into());
                    }
                }
                UpdateOp::InsertUnder { target, template } => {
                    if !q_ok(*target) {
                        return ill("insert targets a missing query node".into());
                    }
                    if !self.rule.construct.roots.contains(template) {
                        return ill("insert templates must be construct roots".into());
                    }
                }
            }
            if let UpdateOp::SetAttr {
                value: UpdateValue::Binding(src),
                ..
            } = op
            {
                if !q_ok(*src) {
                    return ill("attribute value copies a missing query node".into());
                }
            }
        }
        Ok(())
    }

    /// Apply to a document, returning the edited copy and statistics.
    ///
    /// Bindings are node ids into `doc` and a value is read through them
    /// when an operation asks for it — always from `doc`, never from the
    /// copy under edit, whose earlier operations must not show.
    pub fn apply(&self, doc: &Document) -> Result<(Document, UpdateStats)> {
        self.check()?;
        let bindings = match_rule(&self.rule, doc);
        let mut out = doc.clone();
        let mut stats = UpdateStats {
            bindings: bindings.len(),
            ..Default::default()
        };

        for op in &self.ops {
            match op {
                UpdateOp::Delete { target } => {
                    for node in distinct_cells(&bindings, *target) {
                        // A node may sit inside an already-deleted subtree;
                        // detach is idempotent either way.
                        if out.parent(node).is_some() {
                            out.detach(node)
                                .map_err(|e| XmlGlError::Eval { msg: e.to_string() })?;
                            stats.deleted += 1;
                        }
                    }
                }
                UpdateOp::InsertUnder { target, template } => {
                    // Only a box is a place to insert under: a circle's cell
                    // names the element its value is read from.
                    let kind = &self.rule.extract.node(*target).kind;
                    if !matches!(kind, QNodeKind::Element(_)) {
                        continue;
                    }
                    for (row, b) in bindings.iter().enumerate() {
                        let Some(parent) = b.get(*target) else {
                            continue;
                        };
                        let one = bindings.only(row);
                        let instance =
                            instantiate_template(&self.rule, *template, doc, &one, &mut out)?;
                        out.append_child(parent, instance)
                            .map_err(|e| XmlGlError::Eval { msg: e.to_string() })?;
                        stats.inserted += 1;
                    }
                }
                UpdateOp::SetAttr {
                    target,
                    attr,
                    value,
                } => {
                    for b in bindings.iter() {
                        let Some(node) = b.get(*target) else {
                            continue;
                        };
                        let v = match value {
                            UpdateValue::Literal(s) => s.as_str().into(),
                            UpdateValue::Binding(src) => {
                                let cell = b.get(*src).ok_or_else(|| XmlGlError::Eval {
                                    msg: format!("unbound value source {src:?}"),
                                })?;
                                cell_text(doc, &self.rule.extract, *src, cell)
                            }
                        };
                        out.set_attr(node, attr, &v)
                            .map_err(|e| XmlGlError::Eval { msg: e.to_string() })?;
                        stats.attrs_set += 1;
                    }
                }
            }
        }
        Ok((out, stats))
    }
}

/// Instantiate a construct template for one binding (single-binding variant
/// of the query construction machinery), reading values from `doc`.
fn instantiate_template(
    rule: &Rule,
    template: CNodeId,
    doc: &Document,
    binding: &Bindings,
    out: &mut Document,
) -> Result<NodeId> {
    // Reuse the construction engine over the one-row table: instantiate
    // into a scratch document, then import the result. The scratch step
    // keeps this module independent of construct-internal APIs.
    let mut scratch = Document::new();
    crate::eval::construct_rule(rule, doc, binding, &mut scratch)?;
    // The template is a construct root; roots are emitted in order, so find
    // the instance with the template's position.
    let pos = rule
        .construct
        .roots
        .iter()
        .position(|&r| r == template)
        .expect("checked: template is a root");
    let Some(&instance) = scratch.children(scratch.root()).get(pos) else {
        return Err(XmlGlError::Eval {
            msg: "template produced no instance for this binding".into(),
        });
    };
    Ok(out.import_subtree(&scratch, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::builder::{RuleBuilder, C, Q};

    fn doc() -> Document {
        Document::parse_str(
            "<bib>\
               <book year='1994'><title>Old</title><price>65.95</price></book>\
               <book year='2001'><title>New</title><price>39.95</price></book>\
               <book year='2005'><title>Newer</title><price>20.00</price></book>\
             </bib>",
        )
        .unwrap()
    }

    fn rule_selecting_old() -> Rule {
        RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::attr("year").var("y").pred(CmpOp::Lt, "2000")),
            )
            .construct(C::elem("unused"))
            .build()
            .unwrap()
    }

    #[test]
    fn delete_matched_books() {
        let r = rule_selecting_old();
        let target = r.extract.by_var("b").unwrap();
        let u = UpdateRule {
            rule: r,
            ops: vec![UpdateOp::Delete { target }],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.bindings, 1);
        assert_eq!(stats.deleted, 1);
        assert!(!out.to_xml_string().contains("Old"));
        assert!(out.to_xml_string().contains("New"));
        // The input is untouched.
        assert!(doc().to_xml_string().contains("Old"));
    }

    #[test]
    fn insert_under_matched_elements() {
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::attr("year").var("y").pred(CmpOp::Ge, "2000")),
            )
            .construct(
                C::elem("tag")
                    .child(C::attr_var("since", "y"))
                    .child(C::text("modern")),
            )
            .build()
            .unwrap();
        let target = r.extract.by_var("b").unwrap();
        let template = r.construct.roots[0];
        let u = UpdateRule {
            rule: r,
            ops: vec![UpdateOp::InsertUnder { target, template }],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.inserted, 2);
        let xml = out.to_xml_string();
        assert!(xml.contains("<tag since=\"2001\">modern</tag>"), "{xml}");
        assert!(xml.contains("<tag since=\"2005\">modern</tag>"), "{xml}");
        // The 1994 book is untouched.
        assert_eq!(xml.matches("<tag").count(), 2);
    }

    #[test]
    fn set_attr_literal_and_copied() {
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::elem("price").child(Q::text().var("p").pred(CmpOp::Lt, "40"))),
            )
            .construct(C::elem("unused"))
            .build()
            .unwrap();
        let b = r.extract.by_var("b").unwrap();
        let p = r.extract.by_var("p").unwrap();
        let u = UpdateRule {
            rule: r,
            ops: vec![
                UpdateOp::SetAttr {
                    target: b,
                    attr: "budget".into(),
                    value: UpdateValue::Literal("yes".into()),
                },
                UpdateOp::SetAttr {
                    target: b,
                    attr: "was".into(),
                    value: UpdateValue::Binding(p),
                },
            ],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.attrs_set, 4); // two books × two ops
        let xml = out.to_xml_string();
        assert!(xml.contains("budget=\"yes\""));
        assert!(xml.contains("was=\"39.95\""));
        assert!(xml.contains("was=\"20.00\""));
        assert!(!xml.contains("year=\"1994\" budget"));
    }

    /// A value is read through its binding when an operation asks, and from
    /// the source: an earlier operation's edit of the same attribute, or a
    /// subtree it deleted, does not show in what a later one copies.
    #[test]
    fn values_are_read_from_the_source_not_from_the_copy_under_edit() {
        let r = RuleBuilder::new()
            .extract(
                Q::elem("book")
                    .var("b")
                    .child(Q::attr("year").var("y"))
                    .child(Q::elem("title").var("t").child(Q::text().var("tt"))),
            )
            .construct(C::elem("was").child(C::copy("tt")))
            .build()
            .unwrap();
        let at = |v: &str| r.extract.by_var(v).unwrap();
        let u = UpdateRule {
            ops: vec![
                UpdateOp::SetAttr {
                    target: at("b"),
                    attr: "year".into(),
                    value: UpdateValue::Literal("overwritten".into()),
                },
                UpdateOp::Delete { target: at("t") },
                UpdateOp::SetAttr {
                    target: at("b"),
                    attr: "from".into(),
                    value: UpdateValue::Binding(at("y")),
                },
                UpdateOp::InsertUnder {
                    target: at("b"),
                    template: r.construct.roots[0],
                },
            ],
            rule: r,
        };
        let (out, _) = u.apply(&doc()).unwrap();
        assert_eq!(
            out.to_xml_string(),
            "<bib>\
             <book year=\"overwritten\" from=\"1994\"><price>65.95</price><was>Old</was></book>\
             <book year=\"overwritten\" from=\"2001\"><price>39.95</price><was>New</was></book>\
             <book year=\"overwritten\" from=\"2005\"><price>20.00</price><was>Newer</was></book>\
             </bib>"
        );
    }

    #[test]
    fn snapshot_semantics_insert_does_not_feed_matching() {
        // Insert a <book> under every <book>: with snapshot semantics this
        // adds exactly one child per original book and terminates.
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .construct(C::elem("book").child(C::text("nested")))
            .build()
            .unwrap();
        let target = r.extract.by_var("b").unwrap();
        let template = r.construct.roots[0];
        let u = UpdateRule {
            rule: r,
            ops: vec![UpdateOp::InsertUnder { target, template }],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.inserted, 3);
        assert_eq!(
            out.to_xml_string().matches("<book>nested</book>").count(),
            3
        );
    }

    #[test]
    fn delete_parent_and_child_together() {
        // Both the book and its title match; deleting both must not error
        // when the title goes down with its parent.
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b").child(Q::elem("title").var("t")))
            .construct(C::elem("unused"))
            .build()
            .unwrap();
        let b = r.extract.by_var("b").unwrap();
        let t = r.extract.by_var("t").unwrap();
        let u = UpdateRule {
            rule: r,
            ops: vec![
                UpdateOp::Delete { target: b },
                UpdateOp::Delete { target: t },
            ],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.deleted, 3 + 3); // detach is per-node; titles detach from detached books
        assert_eq!(out.to_xml_string(), "<bib/>");
    }

    #[test]
    fn validation_errors() {
        let r = rule_selecting_old();
        let bogus = QNodeId(99);
        let u = UpdateRule {
            rule: r.clone(),
            ops: vec![UpdateOp::Delete { target: bogus }],
        };
        assert!(u.apply(&doc()).is_err());
        let u = UpdateRule {
            rule: r.clone(),
            ops: vec![],
        };
        assert!(u.apply(&doc()).is_err());
        // Delete targeting an attribute circle.
        let y = r.extract.by_var("y").unwrap();
        let u = UpdateRule {
            rule: r,
            ops: vec![UpdateOp::Delete { target: y }],
        };
        assert!(u
            .apply(&doc())
            .unwrap_err()
            .to_string()
            .contains("element boxes"));
    }

    #[test]
    fn no_matches_is_a_clean_noop() {
        let r = RuleBuilder::new()
            .extract(Q::elem("pamphlet").var("x"))
            .construct(C::elem("unused"))
            .build()
            .unwrap();
        let target = r.extract.by_var("x").unwrap();
        let u = UpdateRule {
            rule: r,
            ops: vec![UpdateOp::Delete { target }],
        };
        let (out, stats) = u.apply(&doc()).unwrap();
        assert_eq!(stats.bindings, 0);
        assert_eq!(out.to_xml_string(), doc().to_xml_string());
    }
}
