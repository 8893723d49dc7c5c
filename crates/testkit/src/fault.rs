//! Fault-injection differential oracles: the degradation ladder under test.
//!
//! Every [`FaultPlan`] variant is driven against every case generator and
//! checked against one invariant — an injected fault may **never** produce a
//! wrong answer, a hang, or a process abort. The acceptable outcomes are:
//!
//! 1. *graceful degradation*: the faulted bounded run returns exactly the
//!    bytes of the unfaulted baseline (a corrupt cached plan is replanned,
//!    WG-Log reads no index);
//! 2. *clean refusal*: the faulted run surfaces a structured
//!    [`CoreError::Budget`] whose partial-progress report names the phase
//!    reached (a stalled fixpoint tripping its deadline, a cancelled run);
//! 3. *refusal by name*: a run of either index surface (XML-GL or XPath)
//!    returns [`CoreError::IndexUnavailable`] under `fail_index_build` or
//!    `corrupt_postings` wherever its baseline answered or failed in
//!    evaluation, and must: an answer there means a path that does without
//!    the index survived. Anywhere else that error is a failure.
//!
//! Baseline errors (analyzer-rejected programs, syntax errors) must stay
//! errors under fault — a fault may not *un*-reject a program, and a
//! rejected program stays rejected: analysis runs before the index phase.

use std::time::Duration;

use gql_core::engine::{Engine, QueryKind};
use gql_core::{Budget, CoreError, Guard, RunCtx};
use gql_guard::fault::{self, FaultPlan};

use crate::fuzz::{case_inputs, Generator};
use crate::generators::Intent;
use crate::oracle;

/// Every fault variant the sweep drives, with the round chosen to hit a real
/// seam on small generated cases.
pub fn all_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::fail_index_build(),
        FaultPlan::corrupt_postings(),
        FaultPlan::corrupt_plan_cache(),
        FaultPlan::stall_round(1),
    ]
}

/// The engine-runnable queries a generator's source text denotes; empty for
/// unparseable inputs (vacuous, mirroring [`crate::fuzz::check_case`]).
/// Intents contribute both their XML-GL and XPath renderings, so one intent
/// case exercises two engines under the same fault.
pub fn query_kinds(generator: Generator, query: &str) -> Vec<QueryKind> {
    match generator {
        Generator::XmlGl => gql_xmlgl::dsl::parse_unchecked(query)
            .ok()
            .map(QueryKind::XmlGl)
            .into_iter()
            .collect(),
        Generator::WgLog => gql_wglog::dsl::parse_unchecked(query)
            .ok()
            .map(QueryKind::WgLog)
            .into_iter()
            .collect(),
        Generator::XPath => vec![QueryKind::XPath(query.to_string())],
        Generator::Intent => match Intent::parse(query) {
            Some(i) => {
                let mut v = vec![QueryKind::XPath(i.xpath())];
                if let Ok(p) = gql_xmlgl::dsl::parse_unchecked(&i.xmlgl()) {
                    v.push(QueryKind::XmlGl(p));
                }
                v
            }
            None => Vec::new(),
        },
        Generator::Loader => Vec::new(),
    }
}

/// What a fault sweep saw: the `(seed, generator, plan)` cells it ran, the
/// faulted runs that answered with their baseline's exact bytes, and the
/// XML-GL and XPath runs refused by name for want of an index.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultTally {
    pub cells: u64,
    pub degraded: u64,
    pub refused: u64,
}

/// Check one `(document, query, fault, budget)` case: run the unfaulted,
/// unlimited baseline, then the same query bounded by `budget` with `plan`
/// installed, and demand degradation-to-correct, a clean budget error, or a
/// refusal by name where one is due. Answers and refusals are counted into
/// `tally`.
pub fn check_fault_case(
    generator: Generator,
    doc_xml: &str,
    query: &str,
    plan: &FaultPlan,
    budget: &Budget,
    tally: &mut FaultTally,
) -> Result<(), String> {
    let Some(doc) = oracle::normalize(doc_xml) else {
        return Ok(());
    };
    for kind in query_kinds(generator, query) {
        let baseline = Engine::new().run(&kind, &doc);
        let faulted = fault::with_plan(plan.clone(), || {
            let guard = Guard::new(budget.clone());
            Engine::new().execute(&kind, &doc, RunCtx::guarded(&guard))
        });
        let refusable = (plan.fail_index_build || plan.corrupt_postings)
            && matches!(kind, QueryKind::XmlGl(_) | QueryKind::XPath(_));
        match (baseline, faulted) {
            (Ok(_) | Err(CoreError::Engine { .. }), Err(CoreError::IndexUnavailable { .. }))
                if refusable =>
            {
                tally.refused += 1;
            }
            (Ok(_), f) if refusable => {
                return Err(format!(
                    "fault-refusal: {plan:?} left a run of an index surface unrefused \
                     (faulted: {})",
                    f.map_or_else(|e| e.to_string(), |_| "answered".to_string())
                ));
            }
            (Ok(b), Ok(f)) => {
                let (b, f) = (b.output.to_xml_string(), f.output.to_xml_string());
                if b != f {
                    return Err(format!(
                        "fault-degradation: {plan:?} changed the answer\nbaseline: {b}\nfaulted:  {f}"
                    ));
                }
                tally.degraded += 1;
            }
            (_, Err(CoreError::Budget(g))) => {
                // A clean structured refusal: the report must be
                // non-degenerate (it names the phase reached).
                if g.report.phase.is_empty() {
                    return Err(format!(
                        "fault-refusal: {plan:?} produced a degenerate budget report: {g}"
                    ));
                }
            }
            (be, Err(fe @ CoreError::IndexUnavailable { .. })) => {
                return Err(format!(
                    "fault-refusal: {plan:?} refused a run it may not refuse: {fe} \
                     (baseline ok: {})",
                    be.is_ok()
                ));
            }
            (Err(be), Err(fe)) => {
                if format!("{be}") != format!("{fe}") {
                    return Err(format!(
                        "fault-error-stability: {plan:?} changed the error\nbaseline: {be}\nfaulted:  {fe}"
                    ));
                }
            }
            (Ok(_), Err(fe)) => {
                return Err(format!(
                    "fault-refusal: {plan:?} turned a clean run into a non-budget error: {fe}"
                ));
            }
            (Err(be), Ok(_)) => {
                return Err(format!(
                    "fault-error-stability: {plan:?} made a rejected query succeed \
                     (baseline error: {be})"
                ));
            }
        }
    }
    Ok(())
}

/// Seeded sweep: `seeds` consecutive seeds × every generator × every
/// [`all_plans`] variant, each under `budget`. Returns what the sweep saw,
/// or the first violation with enough context to replay it.
pub fn run_fault_matrix(
    start_seed: u64,
    seeds: u64,
    budget: &Budget,
) -> Result<FaultTally, String> {
    let mut tally = FaultTally::default();
    for seed in start_seed..start_seed.saturating_add(seeds) {
        for g in Generator::ALL {
            let (doc, query) = case_inputs(g, seed);
            for plan in all_plans() {
                check_fault_case(g, &doc, &query, &plan, budget, &mut tally).map_err(|msg| {
                    format!("generator {} seed {seed} plan {plan:?}: {msg}", g.name())
                })?;
                tally.cells += 1;
            }
        }
    }
    Ok(tally)
}

/// The budget the CI fault-injection smoke step uses: generous enough that
/// only genuinely stalled runs trip it, small enough to bound the sweep's
/// wall clock even against injected stalls.
pub fn smoke_budget() -> Budget {
    Budget::unlimited().with_timeout(Duration::from_millis(2000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_ssdm::Document;

    #[test]
    fn fault_matrix_small_sweep_is_clean() {
        let tally = run_fault_matrix(0, 4, &smoke_budget()).unwrap();
        assert_eq!(
            tally.cells,
            4 * Generator::ALL.len() as u64 * all_plans().len() as u64
        );
        // Neither outcome is vacuous: some runs answer under a fault, and
        // some runs of the index surfaces are refused for want of an index.
        assert!(tally.degraded > 0, "{tally:?}");
        assert!(tally.refused > 0, "{tally:?}");
    }

    #[test]
    fn stalled_fixpoint_trips_a_deadline_budget() {
        let doc =
            Document::parse_str("<guide><restaurant><menu/></restaurant><restaurant/></guide>")
                .unwrap();
        let program = gql_wglog::dsl::parse(
            "rule { query { $r: restaurant  $m: menu  $r -menu-> $m } \
                    construct { $l: rest-list  $l -member-> $r } } goal rest-list",
        )
        .unwrap();
        let kind = QueryKind::WgLog(program);
        let budget = Budget::unlimited().with_timeout_ms(1);
        let err = fault::with_plan(FaultPlan::stall_round(1), || {
            let guard = Guard::new(budget.clone());
            Engine::new()
                .execute(&kind, &doc, RunCtx::guarded(&guard))
                .unwrap_err()
        });
        let CoreError::Budget(g) = err else {
            panic!("expected a budget error, got {err:?}");
        };
        assert_eq!(g.kind.name(), "timeout");
        assert!(!g.report.phase.is_empty());
    }
}
