//! The editor simulation for WG-Log rule graphs.
//!
//! WG-Log is the schema-*aware* language: the paper emphasises that queries
//! are drawn against a schema, which keeps them small because the editor
//! can offer the declared relations while drawing. This module keeps that
//! workflow as an API — gestures ([`EditOp`]) validated in context, undo,
//! schema-derived affordances ([`Editor::suggest_relations`]), and a final
//! [`Editor::finish`] producing a checked [`Rule`].

use crate::rule::{
    AttrValue, CmpOp, Color, Constraint, LabelTest, PathRe, REdge, RNode, RNodeId, Rule, TypeTest,
};
use crate::schema::WgSchema;
use crate::{Result, WgLogError};

/// One editing gesture on the single coloured rule graph.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Drop a thin (query) node.
    AddQueryNode { var: String, ty: String },
    /// Drop a thick (construct) node.
    AddConstructNode { var: String, ty: String },
    /// Draw a thin edge.
    AddQueryEdge {
        from: String,
        label: String,
        to: String,
    },
    /// Draw a crossed-out (negated) thin edge.
    AddNegatedEdge {
        from: String,
        label: String,
        to: String,
    },
    /// Draw a dashed regular-path edge.
    AddPathEdge {
        from: String,
        re: PathRe,
        to: String,
    },
    /// Draw a thick (construct) edge.
    AddConstructEdge {
        from: String,
        label: String,
        to: String,
    },
    /// Write a constraint next to a query node.
    AddConstraint {
        var: String,
        attr: String,
        op: CmpOp,
        value: String,
    },
    /// Parameterise invention of a construct node.
    AddPer { var: String, by: String },
    /// Set an attribute on an invented object (literal).
    SetAttr {
        var: String,
        attr: String,
        value: String,
    },
    /// Copy an attribute from a query node onto an invented object.
    CopyAttr {
        var: String,
        attr: String,
        from: String,
        from_attr: String,
    },
}

/// An editing session over one rule graph.
#[derive(Debug, Default)]
pub struct Editor {
    rule: Rule,
    history: Vec<Rule>,
    schema: Option<WgSchema>,
}

impl Editor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a schema: node types, constraint attributes and edge labels are
    /// then checked while drawing, and suggestions become available.
    pub fn with_schema(mut self, schema: WgSchema) -> Self {
        self.schema = Some(schema);
        self
    }

    pub fn current(&self) -> &Rule {
        &self.rule
    }

    pub fn depth(&self) -> usize {
        self.history.len()
    }

    /// Relations the schema declares from the type of a drawn node — the
    /// palette the paper's editor shows next to a selected object.
    pub fn suggest_relations(&self, var: &str) -> Vec<(String, String)> {
        let (Some(schema), Some(id)) = (&self.schema, self.rule.by_var(var)) else {
            return Vec::new();
        };
        let TypeTest::Type(ty) = &self.rule.node(id).test else {
            return Vec::new();
        };
        schema
            .relations_from(ty)
            .map(|(label, to, mult)| (label.to_string(), format!("{to} ({mult:?})")))
            .collect()
    }

    pub fn apply(&mut self, op: EditOp) -> Result<()> {
        let snapshot = self.rule.clone();
        match self.try_apply(&op) {
            Ok(()) => {
                self.history.push(snapshot);
                Ok(())
            }
            Err(e) => {
                self.rule = snapshot;
                Err(e)
            }
        }
    }

    pub fn undo(&mut self) -> bool {
        match self.history.pop() {
            Some(prev) => {
                self.rule = prev;
                true
            }
            None => false,
        }
    }

    pub fn finish(self) -> Result<Rule> {
        self.rule.check()?;
        Ok(self.rule)
    }

    // ------------------------------------------------------------------

    fn ill(msg: impl Into<String>) -> WgLogError {
        WgLogError::IllFormed { msg: msg.into() }
    }

    fn resolve(&self, var: &str) -> Result<RNodeId> {
        self.rule
            .by_var(var)
            .ok_or_else(|| Self::ill(format!("no node ${var} on the canvas")))
    }

    fn add_node(&mut self, var: &str, ty: &str, color: Color) -> Result<()> {
        if var.is_empty() || ty.is_empty() {
            return Err(Self::ill("nodes need a variable and a type"));
        }
        if self.rule.by_var(var).is_some() {
            return Err(Self::ill(format!("${var} is already on the canvas")));
        }
        let test = if ty == "*" {
            if color == Color::Construct {
                return Err(Self::ill("construct nodes need a concrete type"));
            }
            TypeTest::Any
        } else {
            TypeTest::Type(ty.to_string())
        };
        // Schema gate: query node types must be declared (construct nodes
        // extend the schema and pass).
        if color == Color::Query {
            if let (Some(schema), TypeTest::Type(t)) = (&self.schema, &test) {
                if !schema.has_type(t) {
                    return Err(Self::ill(format!("schema declares no type '{t}'")));
                }
            }
        }
        self.rule.nodes.push(RNode {
            var: var.to_string(),
            test,
            color,
            constraints: Vec::new(),
            set_attrs: Vec::new(),
            per: Vec::new(),
            span: gql_ssdm::Span::none(),
        });
        Ok(())
    }

    fn add_edge(
        &mut self,
        from: &str,
        label: LabelTest,
        to: &str,
        color: Color,
        negated: bool,
    ) -> Result<()> {
        let f = self.resolve(from)?;
        let t = self.resolve(to)?;
        let (fc, tc) = (self.rule.node(f).color, self.rule.node(t).color);
        if color == Color::Query && (fc == Color::Construct || tc == Color::Construct) {
            return Err(Self::ill("thin edges cannot touch thick nodes"));
        }
        // Schema gate for concrete query edges between typed nodes.
        if color == Color::Query && !negated {
            if let (Some(schema), LabelTest::Label(l)) = (&self.schema, &label) {
                if let (TypeTest::Type(ft), TypeTest::Type(tt)) =
                    (&self.rule.node(f).test, &self.rule.node(t).test)
                {
                    if schema.relation(ft, l, tt).is_none() {
                        return Err(Self::ill(format!(
                            "schema declares no relation {ft} -{l}-> {tt}"
                        )));
                    }
                }
            }
        }
        self.rule.edges.push(REdge {
            from: f,
            to: t,
            label,
            color,
            negated,
        });
        Ok(())
    }

    fn try_apply(&mut self, op: &EditOp) -> Result<()> {
        match op {
            EditOp::AddQueryNode { var, ty } => self.add_node(var, ty, Color::Query),
            EditOp::AddConstructNode { var, ty } => self.add_node(var, ty, Color::Construct),
            EditOp::AddQueryEdge { from, label, to } => {
                let label = if label == "*" {
                    LabelTest::Any
                } else {
                    LabelTest::Label(label.clone())
                };
                self.add_edge(from, label, to, Color::Query, false)
            }
            EditOp::AddNegatedEdge { from, label, to } => {
                let label = if label == "*" {
                    LabelTest::Any
                } else {
                    LabelTest::Label(label.clone())
                };
                self.add_edge(from, label, to, Color::Query, true)
            }
            EditOp::AddPathEdge { from, re, to } => {
                if re.labels.is_empty() {
                    return Err(Self::ill("a path edge needs at least one label"));
                }
                self.add_edge(from, LabelTest::Regex(re.clone()), to, Color::Query, false)
            }
            EditOp::AddConstructEdge { from, label, to } => {
                if label.is_empty() || label == "*" {
                    return Err(Self::ill("thick edges need a concrete label"));
                }
                self.add_edge(
                    from,
                    LabelTest::Label(label.clone()),
                    to,
                    Color::Construct,
                    false,
                )
            }
            EditOp::AddConstraint {
                var,
                attr,
                op,
                value,
            } => {
                let id = self.resolve(var)?;
                if self.rule.node(id).color != Color::Query {
                    return Err(Self::ill("constraints annotate query nodes"));
                }
                if let (Some(schema), TypeTest::Type(t)) = (&self.schema, &self.rule.node(id).test)
                {
                    if let Some(decl) = schema.type_decl(t) {
                        if !decl.attrs.contains(attr) {
                            return Err(Self::ill(format!(
                                "schema declares no attribute '{attr}' on '{t}'"
                            )));
                        }
                    }
                }
                self.rule.nodes[id.index()].constraints.push(Constraint {
                    attr: attr.clone(),
                    op: *op,
                    value: value.clone(),
                });
                Ok(())
            }
            EditOp::AddPer { var, by } => {
                let id = self.resolve(var)?;
                let by_id = self.resolve(by)?;
                if self.rule.node(id).color != Color::Construct {
                    return Err(Self::ill("'per' parameterises construct nodes"));
                }
                if self.rule.node(by_id).color != Color::Query {
                    return Err(Self::ill("'per' ranges over query nodes"));
                }
                self.rule.nodes[id.index()].per.push(by.clone());
                Ok(())
            }
            EditOp::SetAttr { var, attr, value } => {
                let id = self.resolve(var)?;
                if self.rule.node(id).color != Color::Construct {
                    return Err(Self::ill("attributes are set on invented objects"));
                }
                self.rule.nodes[id.index()]
                    .set_attrs
                    .push((attr.clone(), AttrValue::Literal(value.clone())));
                Ok(())
            }
            EditOp::CopyAttr {
                var,
                attr,
                from,
                from_attr,
            } => {
                let id = self.resolve(var)?;
                let src = self.resolve(from)?;
                if self.rule.node(id).color != Color::Construct {
                    return Err(Self::ill("attributes are set on invented objects"));
                }
                if self.rule.node(src).color != Color::Query {
                    return Err(Self::ill("attribute copies read query nodes"));
                }
                self.rule.nodes[id.index()].set_attrs.push((
                    attr.clone(),
                    AttrValue::CopyFrom {
                        var: from.clone(),
                        attr: from_attr.clone(),
                    },
                ));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Object};

    fn city_db() -> Instance {
        let mut db = Instance::new();
        let r0 = db.add_object(Object::new("restaurant"));
        db.add_attr(r0, "category", "italian");
        let r1 = db.add_object(Object::new("restaurant"));
        db.add_attr(r1, "category", "french");
        let m = db.add_object(Object::new("menu"));
        db.add_attr(m, "price", "20");
        db.add_edge(r0, "offers", m);
        db
    }

    #[test]
    fn build_f1_by_gestures() {
        let mut ed = Editor::new();
        ed.apply(EditOp::AddQueryNode {
            var: "r".into(),
            ty: "restaurant".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddQueryNode {
            var: "m".into(),
            ty: "menu".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddQueryEdge {
            from: "r".into(),
            label: "offers".into(),
            to: "m".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructNode {
            var: "l".into(),
            ty: "rest-list".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructEdge {
            from: "l".into(),
            label: "member".into(),
            to: "r".into(),
        })
        .unwrap();
        let rule = ed.finish().unwrap();
        let mut db = city_db();
        crate::eval::fixpoint(&[&rule], &mut db, crate::eval::FixpointMode::SemiNaive).unwrap();
        let lists: Vec<_> = db.objects_of_type("rest-list").collect();
        assert_eq!(lists.len(), 1);
        assert_eq!(db.out_edges(lists[0]).count(), 1);
    }

    #[test]
    fn schema_gates_types_relations_and_attributes() {
        let schema = WgSchema::extract(&city_db());
        let mut ed = Editor::new().with_schema(schema);
        // Undeclared type refused.
        assert!(ed
            .apply(EditOp::AddQueryNode {
                var: "x".into(),
                ty: "pizzeria".into()
            })
            .is_err());
        ed.apply(EditOp::AddQueryNode {
            var: "r".into(),
            ty: "restaurant".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddQueryNode {
            var: "m".into(),
            ty: "menu".into(),
        })
        .unwrap();
        // Undeclared relation refused; declared accepted.
        assert!(ed
            .apply(EditOp::AddQueryEdge {
                from: "m".into(),
                label: "offers".into(),
                to: "r".into()
            })
            .is_err());
        ed.apply(EditOp::AddQueryEdge {
            from: "r".into(),
            label: "offers".into(),
            to: "m".into(),
        })
        .unwrap();
        // Undeclared constraint attribute refused.
        assert!(ed
            .apply(EditOp::AddConstraint {
                var: "r".into(),
                attr: "rating".into(),
                op: CmpOp::Ge,
                value: "4".into()
            })
            .is_err());
        ed.apply(EditOp::AddConstraint {
            var: "r".into(),
            attr: "category".into(),
            op: CmpOp::Eq,
            value: "italian".into(),
        })
        .unwrap();
        // Construct nodes extend the schema freely.
        ed.apply(EditOp::AddConstructNode {
            var: "l".into(),
            ty: "hits".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructEdge {
            from: "l".into(),
            label: "member".into(),
            to: "r".into(),
        })
        .unwrap();
        assert!(ed.finish().is_ok());
    }

    #[test]
    fn suggestions_list_declared_relations() {
        let schema = WgSchema::extract(&city_db());
        let mut ed = Editor::new().with_schema(schema);
        ed.apply(EditOp::AddQueryNode {
            var: "r".into(),
            ty: "restaurant".into(),
        })
        .unwrap();
        let suggestions = ed.suggest_relations("r");
        assert_eq!(suggestions.len(), 1);
        assert_eq!(suggestions[0].0, "offers");
        assert!(suggestions[0].1.starts_with("menu"));
        assert!(ed.suggest_relations("ghost").is_empty());
    }

    #[test]
    fn colour_discipline_enforced_while_drawing() {
        let mut ed = Editor::new();
        ed.apply(EditOp::AddQueryNode {
            var: "q".into(),
            ty: "a".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructNode {
            var: "c".into(),
            ty: "out".into(),
        })
        .unwrap();
        // Thin edge touching a thick node.
        assert!(ed
            .apply(EditOp::AddQueryEdge {
                from: "q".into(),
                label: "l".into(),
                to: "c".into()
            })
            .is_err());
        // Thick edge with a wildcard label.
        assert!(ed
            .apply(EditOp::AddConstructEdge {
                from: "c".into(),
                label: "*".into(),
                to: "q".into()
            })
            .is_err());
        // Constraints on thick nodes.
        assert!(ed
            .apply(EditOp::AddConstraint {
                var: "c".into(),
                attr: "x".into(),
                op: CmpOp::Eq,
                value: "1".into()
            })
            .is_err());
        // per must point construct→query.
        assert!(ed
            .apply(EditOp::AddPer {
                var: "q".into(),
                by: "c".into()
            })
            .is_err());
        ed.apply(EditOp::AddPer {
            var: "c".into(),
            by: "q".into(),
        })
        .unwrap();
        // Wildcard construct type.
        assert!(ed
            .apply(EditOp::AddConstructNode {
                var: "w".into(),
                ty: "*".into()
            })
            .is_err());
    }

    #[test]
    fn undo_and_isolation_on_error() {
        let mut ed = Editor::new();
        ed.apply(EditOp::AddQueryNode {
            var: "a".into(),
            ty: "t".into(),
        })
        .unwrap();
        let before = ed.current().clone();
        assert!(ed
            .apply(EditOp::AddQueryEdge {
                from: "a".into(),
                label: "l".into(),
                to: "ghost".into()
            })
            .is_err());
        assert_eq!(ed.current(), &before);
        assert!(ed.undo());
        assert!(ed.current().nodes.is_empty());
        assert!(!ed.undo());
    }

    #[test]
    fn copy_attr_gesture_feeds_invention() {
        let mut ed = Editor::new();
        ed.apply(EditOp::AddQueryNode {
            var: "r".into(),
            ty: "restaurant".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructNode {
            var: "s".into(),
            ty: "summary".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddPer {
            var: "s".into(),
            by: "r".into(),
        })
        .unwrap();
        ed.apply(EditOp::CopyAttr {
            var: "s".into(),
            attr: "cat".into(),
            from: "r".into(),
            from_attr: "category".into(),
        })
        .unwrap();
        ed.apply(EditOp::AddConstructEdge {
            from: "s".into(),
            label: "about".into(),
            to: "r".into(),
        })
        .unwrap();
        let rule = ed.finish().unwrap();
        let mut db = city_db();
        crate::eval::fixpoint(&[&rule], &mut db, crate::eval::FixpointMode::SemiNaive).unwrap();
        let summaries: Vec<_> = db.objects_of_type("summary").collect();
        assert_eq!(summaries.len(), 2);
        let cats: std::collections::HashSet<&str> = summaries
            .iter()
            .filter_map(|&s| db.object(s).attr("cat"))
            .collect();
        assert_eq!(cats, ["italian", "french"].into_iter().collect());
    }
}
