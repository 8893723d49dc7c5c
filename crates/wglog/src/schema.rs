//! WG-Log schema graphs.
//!
//! WG-Log is the *schema-aware* of the paper's two languages: its queries
//! are drawn against a schema, which lets them stay smaller than their
//! untyped equivalents (the editor can offer the `offers` relation because
//! the schema declares it). This module provides:
//!
//! * the schema graph model ([`WgSchema`]): object types with attribute
//!   declarations and typed, multiplicity-annotated relations;
//! * schema **extraction** from an instance (the loader's world is
//!   schema-free XML, so WG-Log's schema is recovered from data);
//! * validation of instances against a schema;
//! * static checking of rules against a schema — the feature XML-GL, being
//!   schema-optional, deliberately does without (comparison point in T1).

use std::collections::{HashMap, HashSet};

use crate::instance::Instance;
use crate::rule::{Color, LabelTest, Rule, TypeTest};

/// Relation multiplicity as observed/declared: whether one source object
/// may have several targets, mirroring the 1 / n edge annotations of the
/// figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelMult {
    One,
    Many,
}

/// A relation declaration: `from --label--> to`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelDecl {
    pub from: String,
    pub label: String,
    pub to: String,
}

/// One object-type declaration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TypeDecl {
    /// Attribute names this type may carry.
    pub attrs: HashSet<String>,
}

/// A WG-Log schema graph.
#[derive(Debug, Clone, Default)]
pub struct WgSchema {
    types: HashMap<String, TypeDecl>,
    relations: HashMap<RelDecl, RelMult>,
}

impl WgSchema {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn declare_type(&mut self, name: &str, attrs: &[&str]) {
        let decl = self.types.entry(name.to_string()).or_default();
        decl.attrs.extend(attrs.iter().map(|a| a.to_string()));
    }

    pub fn declare_relation(&mut self, from: &str, label: &str, to: &str, mult: RelMult) {
        self.relations.insert(
            RelDecl {
                from: from.to_string(),
                label: label.to_string(),
                to: to.to_string(),
            },
            mult,
        );
    }

    pub fn has_type(&self, name: &str) -> bool {
        self.types.contains_key(name)
    }

    pub fn type_decl(&self, name: &str) -> Option<&TypeDecl> {
        self.types.get(name)
    }

    pub fn relation(&self, from: &str, label: &str, to: &str) -> Option<RelMult> {
        self.relations
            .get(&RelDecl {
                from: from.into(),
                label: label.into(),
                to: to.into(),
            })
            .copied()
    }

    /// Relations leaving a type — what an editor would offer while drawing.
    pub fn relations_from<'a>(
        &'a self,
        ty: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a str, RelMult)> {
        self.relations
            .iter()
            .filter(move |(r, _)| r.from == ty)
            .map(|(r, m)| (r.label.as_str(), r.to.as_str(), *m))
    }

    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Recover a schema from an instance: every object type with the union
    /// of its attribute names; every (from-type, label, to-type) edge with
    /// multiplicity Many iff some source object has two such targets.
    pub fn extract(db: &Instance) -> WgSchema {
        let mut schema = WgSchema::new();
        for (_, obj) in db.objects() {
            let decl = schema.types.entry(obj.ty().to_string()).or_default();
            decl.attrs.extend(obj.attrs().map(|(n, _)| n.to_string()));
        }
        // Count per (source object, label, to-type) to derive multiplicity.
        let mut counts: HashMap<(crate::ObjId, String, String), usize> = HashMap::new();
        for e in db.edges() {
            let to_ty = db.object(e.to).ty().to_string();
            *counts
                .entry((e.from, e.label.to_string(), to_ty))
                .or_default() += 1;
        }
        for ((from_obj, label, to_ty), count) in counts {
            let from_ty = db.object(from_obj).ty().to_string();
            let decl = RelDecl {
                from: from_ty,
                label,
                to: to_ty,
            };
            let mult = if count > 1 {
                RelMult::Many
            } else {
                RelMult::One
            };
            schema
                .relations
                .entry(decl)
                .and_modify(|m| {
                    if mult == RelMult::Many {
                        *m = RelMult::Many;
                    }
                })
                .or_insert(mult);
        }
        schema
    }

    /// Validate an instance against the schema; returns violations.
    pub fn validate(&self, db: &Instance) -> Vec<String> {
        let mut v = Vec::new();
        for (_, obj) in db.objects() {
            match self.types.get(obj.ty()) {
                None => v.push(format!("object type '{}' is not declared", obj.ty())),
                Some(decl) => {
                    for (a, _) in obj.attrs() {
                        if !decl.attrs.contains(a) {
                            v.push(format!(
                                "attribute '{a}' not declared on type '{}'",
                                obj.ty()
                            ));
                        }
                    }
                }
            }
        }
        // Relation conformance + multiplicity.
        let mut per_source: HashMap<(crate::ObjId, &str, &str), usize> = HashMap::new();
        for e in db.edges() {
            let from_ty = db.object(e.from).ty();
            let to_ty = db.object(e.to).ty();
            match self.relation(from_ty, e.label, to_ty) {
                None => v.push(format!(
                    "relation {from_ty} -{}-> {to_ty} is not declared",
                    e.label
                )),
                Some(_) => {
                    *per_source.entry((e.from, e.label, to_ty)).or_default() += 1;
                }
            }
        }
        for ((from_obj, label, to_ty), count) in per_source {
            let from_ty = db.object(from_obj).ty();
            if count > 1 && self.relation(from_ty, label, to_ty) == Some(RelMult::One) {
                v.push(format!(
                    "object of type '{from_ty}' has {count} '{label}' edges to '{to_ty}' but the relation is declared single-valued"
                ));
            }
        }
        v
    }

    /// Statically check a rule against the schema: query node types must be
    /// declared, constraints must use declared attributes, and concrete
    /// query edge labels must be declared between the endpoint types.
    /// Construct parts may extend the schema and are not checked.
    pub fn check_rule(&self, rule: &Rule) -> Vec<String> {
        let mut v = Vec::new();
        for id in rule.query_nodes() {
            let n = rule.node(id);
            match &n.test {
                TypeTest::Any => {}
                TypeTest::Type(t) => match self.types.get(t) {
                    None => v.push(format!("query node ${} uses undeclared type '{t}'", n.var)),
                    Some(decl) => {
                        for c in &n.constraints {
                            if !decl.attrs.contains(&c.attr) {
                                v.push(format!(
                                    "constraint on ${} uses undeclared attribute '{}'",
                                    n.var, c.attr
                                ));
                            }
                        }
                    }
                },
            }
        }
        for e in &rule.edges {
            if e.color != Color::Query || e.negated {
                continue;
            }
            let LabelTest::Label(label) = &e.label else {
                continue;
            };
            let (from, to) = (rule.node(e.from), rule.node(e.to));
            if let (TypeTest::Type(ft), TypeTest::Type(tt)) = (&from.test, &to.test) {
                if self.relation(ft, label, tt).is_none() {
                    v.push(format!(
                        "edge ${} -{label}-> ${} has no declared relation {ft} -{label}-> {tt}",
                        from.var, to.var
                    ));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Object;
    use crate::rule::{CmpOp, RuleBuilder};

    fn city_db() -> Instance {
        let mut db = Instance::new();
        let r = db.add_object(Object::new("restaurant"));
        db.add_attr(r, "category", "italian");
        let m1 = db.add_object(Object::new("menu"));
        let m2 = db.add_object(Object::new("menu"));
        db.add_attr(m1, "price", "20");
        db.add_attr(m2, "price", "30");
        db.add_edge(r, "offers", m1);
        db.add_edge(r, "offers", m2);
        let h = db.add_object(Object::new("hotel"));
        db.add_edge(r, "near", h);
        db
    }

    #[test]
    fn extraction() {
        let s = WgSchema::extract(&city_db());
        assert_eq!(s.type_count(), 3);
        assert!(s
            .type_decl("restaurant")
            .unwrap()
            .attrs
            .contains("category"));
        assert_eq!(
            s.relation("restaurant", "offers", "menu"),
            Some(RelMult::Many)
        );
        assert_eq!(
            s.relation("restaurant", "near", "hotel"),
            Some(RelMult::One)
        );
        assert_eq!(s.relation("menu", "offers", "restaurant"), None);
        assert_eq!(s.relation_count(), 2);
    }

    #[test]
    fn validation_accepts_own_instance() {
        let db = city_db();
        let s = WgSchema::extract(&db);
        assert!(s.validate(&db).is_empty());
    }

    #[test]
    fn validation_rejects_undeclared() {
        let db = city_db();
        let s = WgSchema::extract(&db);
        let mut other = db.clone();
        let x = other.add_object(Object::new("spaceship"));
        other.add_attr(x, "warp", "9");
        let v = s.validate(&other);
        assert!(v.iter().any(|m| m.contains("spaceship")));
        let mut third = db.clone();
        let r = third.objects_of_type("restaurant").next().unwrap();
        third.add_attr(r, "zzz", "1");
        assert!(s.validate(&third).iter().any(|m| m.contains("'zzz'")));
    }

    #[test]
    fn multiplicity_violation() {
        let mut s = WgSchema::new();
        s.declare_type("restaurant", &["category"]);
        s.declare_type("menu", &["price"]);
        s.declare_type("hotel", &[]);
        s.declare_relation("restaurant", "offers", "menu", RelMult::One);
        s.declare_relation("restaurant", "near", "hotel", RelMult::One);
        let v = s.validate(&city_db());
        assert!(v.iter().any(|m| m.contains("single-valued")), "{v:?}");
    }

    #[test]
    fn rule_checking() {
        let s = WgSchema::extract(&city_db());
        let good = RuleBuilder::new()
            .query_node("r", "restaurant")
            .constraint("category", CmpOp::Eq, "italian")
            .query_node("m", "menu")
            .query_edge("r", "offers", "m")
            .unwrap()
            .construct_node("l", "rest-list")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        assert!(s.check_rule(&good).is_empty());

        let bad_type = RuleBuilder::new()
            .query_node("x", "pizzeria")
            .build()
            .unwrap();
        assert!(s.check_rule(&bad_type)[0].contains("pizzeria"));

        let bad_attr = RuleBuilder::new()
            .query_node("r", "restaurant")
            .constraint("rating", CmpOp::Ge, "4")
            .build()
            .unwrap();
        assert!(s.check_rule(&bad_attr)[0].contains("rating"));

        let bad_rel = RuleBuilder::new()
            .query_node("m", "menu")
            .query_node("h", "hotel")
            .query_edge("m", "offers", "h")
            .unwrap()
            .build()
            .unwrap();
        assert!(s.check_rule(&bad_rel)[0].contains("no declared relation"));
    }

    #[test]
    fn editor_affordances() {
        let s = WgSchema::extract(&city_db());
        let from_restaurant: Vec<_> = s.relations_from("restaurant").collect();
        assert_eq!(from_restaurant.len(), 2);
        assert!(from_restaurant
            .iter()
            .any(|(l, t, _)| *l == "offers" && *t == "menu"));
    }
}
