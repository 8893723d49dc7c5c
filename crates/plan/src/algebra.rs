//! The unified logical algebra.
//!
//! Every query surface lowers to the same seven operators:
//!
//! ```text
//! plan     ::= scan | lookup | filter | join | fixpoint | construct | step
//! scan     ::= Scan(test)                      -- full arena walk
//! lookup   ::= IndexLookup(test)               -- posting-list probe
//! filter   ::= Filter(pred, plan)              -- predicate on string value
//! join     ::= HashJoin(plan, plan, on)        -- value equi-join
//! fixpoint ::= Fixpoint(plan…)                 -- semi-naive rule iteration
//! construct::= Construct(shape, plan…)         -- result materialisation
//! step     ::= PathStep(axis, test, plan?)     -- navigation step
//! ```
//!
//! The algebra is *descriptive at the leaves and prescriptive at the
//! joins*: execution stays with the specialised interpreters, but the
//! XML-GL root-join order recorded in a [`HashJoin`](LogicalPlan::HashJoin)
//! spine is the order the matcher actually runs (see `gql_core::Engine`), a
//! WG-Log rule's spine is the binding order of its embedding search, and
//! the whole tree is what EXPLAIN surfaces print. Source spans ride along on every operator
//! so diagnostics and trace provenance can point back into query text.

use std::fmt;

use gql_ssdm::Span;

/// A node of the logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Full document/instance scan filtered by a name or type test.
    Scan { test: String, est: u64, span: Span },
    /// Posting-list probe of `DocIndex` (tag, attribute or text postings).
    IndexLookup { test: String, est: u64, span: Span },
    /// Predicate applied to the input's string values.
    Filter {
        pred: String,
        input: Box<LogicalPlan>,
        span: Span,
    },
    /// Value equi-join between two sub-plans (the matcher's hashed
    /// provenance-tuple combine).
    HashJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: String,
        est: u64,
        span: Span,
    },
    /// Semi-naive iteration of a rule body to a fixed point (WG-Log).
    Fixpoint { body: Vec<LogicalPlan>, span: Span },
    /// Result materialisation: the construct side of a rule, or the
    /// node-set serialisation of an XPath answer.
    Construct {
        shape: String,
        inputs: Vec<LogicalPlan>,
        span: Span,
    },
    /// One navigation step (`child::x`, `descendant::*`, attribute or text
    /// access). `input` is `None` for the context-establishing first step.
    PathStep {
        axis: String,
        test: String,
        input: Option<Box<LogicalPlan>>,
        est: u64,
        span: Span,
    },
}

impl LogicalPlan {
    /// The operator name alone.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::IndexLookup { .. } => "IndexLookup",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::HashJoin { .. } => "HashJoin",
            LogicalPlan::Fixpoint { .. } => "Fixpoint",
            LogicalPlan::Construct { .. } => "Construct",
            LogicalPlan::PathStep { .. } => "PathStep",
        }
    }

    /// Source span of this operator.
    pub fn span(&self) -> Span {
        match self {
            LogicalPlan::Scan { span, .. }
            | LogicalPlan::IndexLookup { span, .. }
            | LogicalPlan::Filter { span, .. }
            | LogicalPlan::HashJoin { span, .. }
            | LogicalPlan::Fixpoint { span, .. }
            | LogicalPlan::Construct { span, .. }
            | LogicalPlan::PathStep { span, .. } => *span,
        }
    }

    /// Estimated output cardinality, when the operator carries one.
    pub fn est(&self) -> Option<u64> {
        match self {
            LogicalPlan::Scan { est, .. }
            | LogicalPlan::IndexLookup { est, .. }
            | LogicalPlan::HashJoin { est, .. }
            | LogicalPlan::PathStep { est, .. } => Some(*est),
            _ => None,
        }
    }

    /// Number of operators in the tree (self included).
    pub fn size(&self) -> usize {
        1 + match self {
            LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } => 0,
            LogicalPlan::Filter { input, .. } => input.size(),
            LogicalPlan::HashJoin { left, right, .. } => left.size() + right.size(),
            LogicalPlan::Fixpoint { body, .. } => body.iter().map(LogicalPlan::size).sum(),
            LogicalPlan::Construct { inputs, .. } => inputs.iter().map(LogicalPlan::size).sum(),
            LogicalPlan::PathStep { input, .. } => input.as_ref().map_or(0, |p| p.size()),
        }
    }

    /// Multi-line indented rendering — the EXPLAIN printout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan { test, est, .. } => {
                out.push_str(&format!("Scan {test} (est {est})\n"));
            }
            LogicalPlan::IndexLookup { test, est, .. } => {
                out.push_str(&format!("IndexLookup {test} (est {est})\n"));
            }
            LogicalPlan::Filter { pred, input, .. } => {
                out.push_str(&format!("Filter {pred}\n"));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::HashJoin {
                left,
                right,
                on,
                est,
                ..
            } => {
                out.push_str(&format!("HashJoin on {on} (est {est})\n"));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
            LogicalPlan::Fixpoint { body, .. } => {
                out.push_str("Fixpoint\n");
                for b in body {
                    b.render_into(out, depth + 1);
                }
            }
            LogicalPlan::Construct { shape, inputs, .. } => {
                out.push_str(&format!("Construct {shape}\n"));
                for i in inputs {
                    i.render_into(out, depth + 1);
                }
            }
            LogicalPlan::PathStep {
                axis,
                test,
                input,
                est,
                ..
            } => {
                out.push_str(&format!("PathStep {axis}::{test} (est {est})\n"));
                if let Some(i) = input {
                    i.render_into(out, depth + 1);
                }
            }
        }
    }

    /// Single-line rendering for trace notes: operators in prefix order
    /// with parenthesised children.
    pub fn render_compact(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalPlan::Scan { test, .. } => write!(f, "Scan({test})"),
            LogicalPlan::IndexLookup { test, .. } => write!(f, "IndexLookup({test})"),
            LogicalPlan::Filter { pred, input, .. } => write!(f, "Filter({pred}, {input})"),
            LogicalPlan::HashJoin {
                left, right, on, ..
            } => write!(f, "HashJoin({on}, {left}, {right})"),
            LogicalPlan::Fixpoint { body, .. } => {
                write!(f, "Fixpoint(")?;
                for (i, b) in body.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            LogicalPlan::Construct { shape, inputs, .. } => {
                write!(f, "Construct({shape}")?;
                for i in inputs {
                    write!(f, ", {i}")?;
                }
                write!(f, ")")
            }
            LogicalPlan::PathStep {
                axis, test, input, ..
            } => match input {
                Some(i) => write!(f, "PathStep({axis}::{test}, {i})"),
                None => write!(f, "PathStep({axis}::{test})"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(test: &str, est: u64) -> LogicalPlan {
        LogicalPlan::IndexLookup {
            test: test.into(),
            est,
            span: Span::none(),
        }
    }

    #[test]
    fn render_tree_and_compact() {
        let plan = LogicalPlan::Construct {
            shape: "out".into(),
            inputs: vec![LogicalPlan::HashJoin {
                left: Box::new(leaf("book", 10)),
                right: Box::new(LogicalPlan::Filter {
                    pred: "text = \"x\"".into(),
                    input: Box::new(leaf("article", 3)),
                    span: Span::none(),
                }),
                on: "$a == $b".into(),
                est: 10,
                span: Span::none(),
            }],
            span: Span::none(),
        };
        let text = plan.render();
        assert!(text.contains("Construct out"));
        assert!(text.contains("  HashJoin on $a == $b (est 10)"));
        assert!(text.contains("    IndexLookup book (est 10)"));
        assert!(text.contains("      IndexLookup article (est 3)"));
        assert_eq!(
            plan.render_compact(),
            "Construct(out, HashJoin($a == $b, IndexLookup(book), \
             Filter(text = \"x\", IndexLookup(article))))"
        );
        assert_eq!(plan.size(), 5);
        assert_eq!(plan.op_name(), "Construct");
        assert_eq!(plan.est(), None);
        assert_eq!(leaf("book", 7).est(), Some(7));
    }
}
