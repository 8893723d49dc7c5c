//! Evaluation of XML-GL programs.
//!
//! Split into the two halves of a rule: [`matcher`] enumerates *bindings*
//! (embeddings of the extract graph into the data, one row of the
//! [`bindings`] table each), combining the extract roots along the rule's
//! [`join_plan`], and [`construct`] materialises the result document from
//! those bindings.
//!
//! The semantics implemented here, stated once:
//!
//! * an extract root matches any element occurrence in the document;
//! * containment edges match children (or any descendant for asterisk
//!   edges), unordered by default, order-respecting when the parent box
//!   carries the order stroke;
//! * a crossed-out edge succeeds iff no match for its subtree exists;
//! * join edges require deep-equal bound content: equal text for circles,
//!   for boxes `gql_ssdm::index::subtree_eq` (tags, attribute sets, children
//!   in order with each text node whole, comments and PIs skipped); `group
//!   by` partitions by the same equality;
//! * each construct root is instantiated once per distinct tuple of the
//!   bindings it copies (its *scope*); triangles, list icons and aggregate
//!   nodes collect over all bindings compatible with the instantiation.

pub mod bindings;
pub mod construct;
pub mod join_plan;
pub mod matcher;

use gql_ssdm::sink::{DocSink, Sink};
use gql_ssdm::{DocIndex, Document};

use crate::ast::{Program, Rule};
use crate::Result;

use gql_guard::RunCtx;

pub use bindings::{cell_text, distinct_cells, Bindings, Row};
pub use construct::{construct_rule, construct_rule_into, construct_rule_with};
pub use join_plan::JoinPlan;
pub use matcher::{match_rule, match_rule_in, match_rule_with, MatchMode};

/// Evaluate a whole program: the outputs of all rules, in rule order, become
/// the children of the result document's root. Checks the program first
/// ([`check_program`](crate::check::check_program)) and builds one
/// [`DocIndex`] for the document; callers holding a prebuilt index and a
/// program that passed the check (e.g. `gql-core`'s `Engine`, whose gate
/// decides once per query text) use [`run_in`].
pub fn run(program: &Program, doc: &Document) -> Result<Document> {
    crate::check::check_program(program)?;
    let idx = DocIndex::build(doc);
    let plans: Vec<JoinPlan> = (program.rules.iter())
        .map(|rule| JoinPlan::new(rule, None))
        .collect();
    let mut out = Document::new();
    run_in(
        program,
        doc,
        &idx,
        &plans,
        RunCtx::none(),
        &mut DocSink::new(&mut out),
    )?;
    Ok(out)
}

/// The full form of [`run`]: the outputs of all rules go to `sink` as
/// top-level elements, and their number is returned. `program` has passed
/// [`check_program`](crate::check::check_program) (or the engine's gate,
/// which refuses every Error-level diagnostic): it is not checked again.
///
/// * `idx`: the document's index, shared by every rule.
/// * `plans`: one [`JoinPlan`] per rule, in rule order — declaration order,
///   or the order a planner chose (identical results, smaller
///   intermediates — see [`match_rule_in`]).
/// * `ctx.trace` receives one `rule[i]` span per rule with `match`
///   (candidate sets, join statistics) and `construct` (nodes materialised)
///   children.
/// * `ctx.guard`: the matcher's budget probes truncate its binding set when
///   a limit trips; the `checkpoint()` after each rule's match converts the
///   trip into an [`XmlGlError::Budget`](crate::XmlGlError) and discards the
///   truncated bindings, so partial results are never constructed into an
///   answer. The nodes each rule emits are charged against the node cap
///   after the fact: on any `Err` the sink holds part of an answer, which
///   the caller drops.
pub fn run_in(
    program: &Program,
    doc: &Document,
    idx: &DocIndex,
    plans: &[JoinPlan],
    ctx: RunCtx<'_>,
    sink: &mut impl Sink,
) -> Result<usize> {
    let RunCtx { trace, guard } = ctx;
    let mut instances = 0;
    assert_eq!(plans.len(), program.rules.len(), "one join plan per rule");
    for (i, (rule, plan)) in program.rules.iter().zip(plans).enumerate() {
        let _rule_span = trace.span(format_args!("rule[{i}]"));
        let bindings = {
            let _s = trace.span("match");
            match_rule_in(rule, doc, idx, plan, ctx)
        };
        guard.checkpoint().map_err(crate::XmlGlError::Budget)?;
        {
            let _s = trace.span("construct");
            let before = sink.nodes();
            instances += construct_rule_into(rule, doc, &bindings, sink)?;
            let built = sink.nodes() - before;
            if trace.is_enabled() {
                trace.count("bindings_in", bindings.len() as u64);
                trace.count("nodes_built", built);
            }
            // Charge the constructed nodes against the node cap.
            guard.try_nodes(built).map_err(crate::XmlGlError::Budget)?;
        }
    }
    Ok(instances)
}

/// Evaluate one rule into an existing output document.
pub fn run_rule_into(rule: &Rule, doc: &Document, out: &mut Document) -> Result<()> {
    let bindings = match_rule(rule, doc);
    construct_rule(rule, doc, &bindings, out)
}

/// Evaluate one rule into a fresh document.
pub fn run_rule(rule: &Rule, doc: &Document) -> Result<Document> {
    let mut out = Document::new();
    run_rule_into(rule, doc, &mut out)?;
    Ok(out)
}

/// Evaluate a pipeline of programs: each stage queries the previous stage's
/// output (the first queries `doc`). This is view composition — the
/// XML-GL analogue of Xcerpt's rule chaining, restricted to an explicit
/// stage order (XML-GL has no fixpoint, so composition must be acyclic by
/// construction).
pub fn run_pipeline(stages: &[Program], doc: &Document) -> Result<Document> {
    if stages.is_empty() {
        return Err(crate::XmlGlError::Eval {
            msg: "empty pipeline".into(),
        });
    }
    let mut current = run(&stages[0], doc)?;
    for stage in &stages[1..] {
        current = run(stage, &current)?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_composes_views() {
        let doc = Document::parse_str(
            "<bib><book year='1999'><title>Old</title><price>60</price></book>\
             <book year='2003'><title>A</title><price>50</price></book>\
             <book year='2005'><title>B</title><price>10</price></book></bib>",
        )
        .unwrap();
        // Stage 1: a view of recent books. Stage 2: the cheap ones of those.
        let recent = crate::dsl::parse(
            r#"rule { extract { book as $b { @year as $y >= "2000" } }
                      construct { recent { all $b } } }"#,
        )
        .unwrap();
        let cheap = crate::dsl::parse(
            r#"rule { extract { book as $b { price { text < "20" } } }
                      construct { cheap-recent { all $b } } }"#,
        )
        .unwrap();
        let out = run_pipeline(&[recent, cheap], &doc).unwrap();
        assert_eq!(
            out.to_xml_string(),
            "<cheap-recent><book year=\"2005\"><title>B</title><price>10</price></book></cheap-recent>"
        );
        assert!(run_pipeline(&[], &doc).is_err());
    }

    /// A program's answer through `run`.
    fn answer(program: &str, doc: &Document) -> String {
        let program = crate::dsl::parse(program).unwrap();
        run(&program, doc).unwrap().to_xml_string()
    }

    #[test]
    fn box_content_is_compared_by_structure() {
        let join = "rule { extract { p { x as $a }  q { x as $b }  join $a == $b } \
                    construct { hit { copy $a } } }";
        let group = "rule { extract { x as $a } construct { out { all $a group by $a as g } } }";
        let groups = |out: &String| out.matches("<g ").count();
        // Pairs the parent commit's canonical strings equated.
        for (p, q) in [
            ("<x a='1,b=2'/>", "<x a='1' b='2'/>"),
            ("<x>S,e:y[]()</x>", "<x>S<y/></x>"),
            ("<x>a,t:b</x>", "<x>a<!--c-->b</x>"),
        ] {
            let doc = Document::parse_str(&format!("<r><p>{p}</p><q>{q}</q></r>")).unwrap();
            assert_eq!(answer(join, &doc), "", "{p} {q}");
            let out = answer(group, &doc);
            assert_eq!(groups(&out), 2, "{out}");
        }
        // What deep equality ignores: attribute order, comments and PIs.
        let doc = Document::parse_str(
            "<r><p><x b='2' a='1'>t<y/></x></p>\
             <q><x a='1' b='2'>t<!--c--><?pi d?><y/></x></q></r>",
        )
        .unwrap();
        let out = answer(join, &doc);
        assert_eq!(out.matches("<hit>").count(), 1, "{out}");
        let out = answer(group, &doc);
        assert_eq!(groups(&out), 1, "{out}");
    }

    #[test]
    fn identity_vs_content_keys() {
        let d = Document::parse_str("<r><a>t</a><a>t</a></r>").unwrap();
        let p = crate::dsl::parse("rule { extract { a as $a { text as $t } } construct { out } }")
            .unwrap();
        let g = &p.rules[0].extract;
        let (a, t) = (g.by_var("a").unwrap(), g.by_var("t").unwrap());
        let ms = match_rule(&p.rules[0], &d);
        let cell = |row, q| (q, ms.row(row).get(q));
        // Two occurrences of one content: equal by content, box and circle
        // alike, distinct by identity; and a value never equals a subtree.
        let mut keys = bindings::Keys::new(&d, g);
        for q in [a, t] {
            assert!(keys.eq(cell(0, q), cell(1, q)));
            assert_eq!(
                keys.hash(q, cell(0, q).1.unwrap()),
                keys.hash(q, cell(1, q).1.unwrap())
            );
            assert_eq!(distinct_cells(&ms, q).len(), 2);
        }
        assert!(!keys.eq(cell(0, a), cell(0, t)));
    }
}
