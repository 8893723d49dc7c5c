//! WG-Log evaluation: plans, embedding search, stratification, fixpoint.

pub mod embed;
pub mod fixpoint;
pub mod plan;
pub mod stratify;

use gql_guard::RunCtx;
use gql_ssdm::Document;

use crate::instance::Instance;
use crate::rule::{Program, Rule};
use crate::Result;

pub use embed::{embeddings, path_exists, path_targets, EmbeddingTable};
pub use fixpoint::{fixpoint, fixpoint_in, FixpointMode, FixpointStats};
pub use plan::{ProgramPlan, SearchPlan};
pub use stratify::stratify;

/// Evaluate a program over a database: stratified fixpoint with the default
/// (semi-naive) mode. Returns the *extended* instance, which contains the
/// original objects plus everything the rules derived.
pub fn run(program: &Program, db: &Instance) -> Result<Instance> {
    run_with(program, db, FixpointMode::SemiNaive).map(|(db, _)| db)
}

/// Evaluate with an explicit fixpoint mode; also returns statistics (used by
/// the fixpoint ablation bench).
pub fn run_with(
    program: &Program,
    db: &Instance,
    mode: FixpointMode,
) -> Result<(Instance, FixpointStats)> {
    run_in(
        program,
        db,
        &ProgramPlan::new(program)?,
        mode,
        RunCtx::none(),
    )
}

/// The full form of [`run_with`], running `plan`, built for `program`.
/// `ctx.trace` receives a `stratify` span counting
/// the plan's strata, then one `stratum[i]` span per stratum whose children
/// are the fixpoint rounds (see [`fixpoint_in`]), each carrying rule counts
/// and the derived instance growth. Each stratum's fixpoint runs under
/// `ctx.guard`'s round/match/node caps and trips cleanly with a
/// partial-progress report.
pub fn run_in(
    program: &Program,
    db: &Instance,
    plan: &ProgramPlan,
    mode: FixpointMode,
    ctx: RunCtx<'_>,
) -> Result<(Instance, FixpointStats)> {
    let trace = ctx.trace;
    debug_assert!(
        plan.fits(program),
        "a plan runs the program it was built for"
    );
    if trace.is_enabled() {
        let _s = trace.span("stratify");
        trace.count("strata", plan.strata().len() as u64);
        trace.count("rules", program.rules.len() as u64);
    }
    let mut work = db.clone();
    let mut stats = FixpointStats::default();
    if trace.is_enabled() {
        trace.note(
            "mode",
            match mode {
                FixpointMode::Naive => "naive",
                FixpointMode::SemiNaive => "semi_naive",
            },
        );
    }
    for (si, stratum) in plan.strata().iter().enumerate() {
        let span = trace.span(format_args!("stratum[{si}]"));
        let rules: Vec<(&Rule, &SearchPlan)> = (stratum.iter())
            .map(|&i| (&program.rules[i], plan.search(i)))
            .collect();
        let (objs_before, edges_before) = (work.object_count(), work.edge_count());
        let s = fixpoint_in(&rules, &mut work, mode, ctx)?;
        if trace.is_enabled() {
            trace.count("stratum_rules", rules.len() as u64);
            trace.count(
                "instance_objects_grown",
                (work.object_count() - objs_before) as u64,
            );
            trace.count(
                "instance_edges_grown",
                (work.edge_count() - edges_before) as u64,
            );
        }
        drop(span);
        stats.iterations += s.iterations;
        stats.objects_created += s.objects_created;
        stats.edges_created += s.edges_created;
        stats.embeddings_found += s.embeddings_found;
    }
    if trace.is_enabled() {
        trace.count("instance_objects", work.object_count() as u64);
        trace.count("instance_edges", work.edge_count() as u64);
    }
    Ok((work, stats))
}

/// Evaluate and extract the goal objects as a document (`<answer>` root,
/// following edges two levels deep).
pub fn answer(program: &Program, db: &Instance) -> Result<Document> {
    let result = run(program, db)?;
    let goal = program
        .goal
        .clone()
        .ok_or_else(|| crate::WgLogError::Eval {
            msg: "program has no goal type".into(),
        })?;
    Ok(result.to_document("answer", &goal, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;

    #[test]
    fn doctest_scenario_runs() {
        let doc = gql_ssdm::Document::parse_str(
            "<guide><restaurant id='r1'><name>Roma</name><menu><price>20</price></menu></restaurant>\
             <restaurant id='r2'><name>Milano</name></restaurant></guide>",
        )
        .unwrap();
        let db = Instance::from_document(&doc);
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .construct_node("l", "rest-list")
            .query_edge("r", "menu", "m")
            .unwrap()
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let program = Program {
            rules: vec![rule],
            goal: Some("rest-list".into()),
        };
        let result = run(&program, &db).unwrap();
        assert_eq!(result.objects_of_type("rest-list").count(), 1);
        let doc = answer(&program, &db).unwrap();
        let xml = doc.to_xml_string();
        assert!(xml.contains("<name>Roma</name>"), "{xml}");
        assert!(!xml.contains("Milano"), "{xml}");
    }

    /// A run's cost must not grow with the resident instance: the result
    /// shares the frozen base and owns only what the rules derived.
    #[test]
    fn run_over_a_large_frozen_instance_copies_nothing() {
        let mut doc = gql_ssdm::Document::new();
        let hub = doc.add_element(doc.root(), "hub");
        for i in 0..10_000 {
            let n = doc.add_element(hub, "n");
            doc.set_attr(n, "k", &i.to_string()).unwrap();
        }
        let db = Instance::from_document(&doc);
        assert_eq!(db.object_count(), 10_001);
        assert_eq!(db.delta_counts(), (0, 0));
        let program = crate::dsl::parse(
            "rule { query { $h: hub  $n: n where k = \"7\"  $h -n-> $n } \
                    construct { $h -pick-> $n } }",
        )
        .unwrap();
        for mode in [FixpointMode::Naive, FixpointMode::SemiNaive] {
            let (result, stats) = run_with(&program, &db, mode).unwrap();
            assert_eq!(stats.edges_created, 1);
            assert_eq!(result.delta_counts(), (0, 1));
            assert_eq!(result.object_count(), 10_001);
            assert_eq!(result.edge_count(), db.edge_count() + 1);
            // Still the same base, never un-shared during the run.
            assert_eq!(db.base_holders(), 2);
            drop(result);
            assert_eq!(db.base_holders(), 1);
        }
        assert_eq!(db.delta_counts(), (0, 0));
    }
}
