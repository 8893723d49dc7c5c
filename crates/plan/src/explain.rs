//! The printed plan: one operator tree for every EXPLAIN surface.
//!
//! Execution plans stay with their engines — XML-GL's per-rule
//! [`JoinPlan`](gql_xmlgl::eval::JoinPlan), WG-Log's
//! [`ProgramPlan`](gql_wglog::eval::ProgramPlan), XPath's parsed
//! expression — and [`lower`](crate::lower) prints each of them as a tree
//! of [`PlanNode`]s. The operator names are `Scan`, `IndexLookup`,
//! `Filter`, `HashJoin`, `Fixpoint`, `Construct` and `PathStep`; a node
//! holds its operator's argument as display text, so rendering needs no
//! per-operator case beyond `HashJoin`'s `on`.

/// One printed operator: its name, its argument, its estimated output
/// cardinality when it has one, and its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: &'static str,
    pub arg: String,
    pub est: Option<u64>,
    pub inputs: Vec<PlanNode>,
}

impl PlanNode {
    pub fn new(
        op: &'static str,
        arg: impl Into<String>,
        est: Option<u64>,
        inputs: Vec<PlanNode>,
    ) -> Self {
        PlanNode {
            op,
            arg: arg.into(),
            est,
            inputs,
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
        out.push_str(self.op);
        if !self.arg.is_empty() {
            out.push_str(match self.op {
                "HashJoin" => " on ",
                _ => " ",
            });
            out.push_str(&self.arg);
        }
        match self.est {
            None => {}
            // Unbounded, printed as `CardinalityMap::render` prints it.
            Some(u64::MAX) => out.push_str(" (est ∞)"),
            Some(est) => out.push_str(&format!(" (est {est})")),
        }
        out.push('\n');
        for input in &self.inputs {
            input.render_into(out, depth + 1);
        }
    }

    /// Single-line rendering for trace notes: operators in prefix order,
    /// each with its argument and inputs in parentheses.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.compact_into(&mut out);
        out
    }

    fn compact_into(&self, out: &mut String) {
        out.push_str(self.op);
        out.push('(');
        out.push_str(&self.arg);
        for (i, input) in self.inputs.iter().enumerate() {
            if i > 0 || !self.arg.is_empty() {
                out.push_str(", ");
            }
            input.compact_into(out);
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(test: &str, est: u64) -> PlanNode {
        PlanNode::new("IndexLookup", test, Some(est), Vec::new())
    }

    #[test]
    fn render_tree_and_compact() {
        let filter = PlanNode::new("Filter", "text = \"x\"", None, vec![leaf("article", 3)]);
        let join = PlanNode::new(
            "HashJoin",
            "$a == $b",
            Some(10),
            vec![leaf("book", 10), filter],
        );
        let step = PlanNode::new("PathStep", "child::x", Some(u64::MAX), vec![join]);
        let fixpoint = PlanNode::new("Fixpoint", "", None, vec![step]);
        let plan = PlanNode::new("Construct", "out", None, vec![fixpoint]);
        assert_eq!(
            plan.render(),
            "Construct out\n\
             \x20 Fixpoint\n\
             \x20   PathStep child::x (est ∞)\n\
             \x20     HashJoin on $a == $b (est 10)\n\
             \x20       IndexLookup book (est 10)\n\
             \x20       Filter text = \"x\"\n\
             \x20         IndexLookup article (est 3)\n"
        );
        assert_eq!(
            plan.render_compact(),
            "Construct(out, Fixpoint(PathStep(child::x, HashJoin($a == $b, IndexLookup(book), \
             Filter(text = \"x\", IndexLookup(article))))))"
        );
    }
}
