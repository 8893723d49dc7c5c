//! Tier-1 acceptance for the telemetry plane: a budget-tripping WG-Log
//! invention query against a service whose slow-query threshold is zero
//! must land in the slow log with the run's trace tree (its plan and its
//! phases) and its trip report — the capture an operator needs to see
//! *why* a query was slow, taken at the moment it happened, without
//! re-running anything.

use gql_guard::Budget;
use gql_serve::json::Value;
use gql_serve::{
    Catalog, Envelope, ErrorCode, Request, Response, Service, SlowEntry, TelemetryConfig,
    TenantRegistry,
};

/// The pinned pathological case: node invention doubles the frontier
/// every round, so the fixpoint explodes until the round cap trips.
const INVENTION: &str = "rule { query { $x: n } construct { \
     $y: n per $x  $z: n per $x  $x -l-> $y  $x -r-> $z } } goal n";

fn slow_service() -> Service {
    let mut catalog = Catalog::new();
    catalog
        .register_xml("db", "<db><n><m/></n></db>")
        .expect("dataset parses");
    let mut tenants = TenantRegistry::new();
    tenants.register(
        "t",
        Envelope::slots(8).with_per_query(
            Budget::unlimited()
                .with_max_rounds(12)
                .with_max_nodes(20_000),
        ),
    );
    Service::builder()
        .workers(2)
        .catalog(catalog)
        .tenants(tenants)
        // Threshold zero: every reply qualifies, so the capture below is
        // deterministic rather than timing-dependent.
        .telemetry(TelemetryConfig::default().with_slow_threshold_us(0))
        .build()
}

#[test]
fn budget_tripped_query_is_captured_in_the_slow_log() {
    let service = slow_service();
    let handle = service.handle();
    let resp = handle.submit(&Request::new("t", "db", "wglog", INVENTION));
    let err = match &resp {
        Response::Err(e) => e,
        other => panic!("invention query must trip its budget, got {other:?}"),
    };
    assert_eq!(err.code, ErrorCode::Budget);
    assert!(
        err.report
            .as_deref()
            .is_some_and(|r| r.starts_with("phase=")),
        "budget reply lost its trip report: {:?}",
        err.report
    );

    let entries = handle.telemetry().slow_entries_for("db");
    assert_eq!(entries.len(), 1, "exactly one capture for one query");
    let entry = &entries[0];
    assert_eq!(entry.tenant, "t");
    assert_eq!(entry.outcome, "budget");
    assert_eq!(entry.query, INVENTION);
    // The capture carries the trip report and the run's tree, its plan
    // included, even though the run died mid-flight — the plan is noted
    // before evaluation starts.
    assert!(
        entry
            .trip
            .as_deref()
            .is_some_and(|t| t.starts_with("phase=")),
        "slow entry lost the trip report: {:?}",
        entry.trip
    );
    assert_runs_tree(entry, &["analyze", "plan", "load", "eval"]);

    // The capture surfaces through the wire-facing report too.
    let report = handle.metrics_report().to_value().render();
    assert!(
        report.contains("\"captured\":1"),
        "report JSON lost the capture: {report}"
    );
    service.shutdown();
}

/// The entry's tree is the run's: a `run` root whose `plan` phase notes
/// the plan, `phases` its children in order; the gate wait and the run fit
/// inside the service time.
fn assert_runs_tree(entry: &SlowEntry, phases: &[&str]) {
    let [run] = &entry.profile.roots[..] else {
        panic!("one root: {:?}", entry.profile);
    };
    assert_eq!(run.name, "run");
    let names: Vec<&str> = run.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, phases);
    let plan = run.find("plan").expect("a plan phase");
    assert!(plan.note("plan").is_some_and(|p| !p.is_empty()), "{plan:?}");
    let run_us = (run.nanos / 1_000) as u64;
    assert!(
        entry.gate_wait_us + run_us <= entry.service_us,
        "gate wait {}us + run {run_us}us > service {}us",
        entry.gate_wait_us,
        entry.service_us
    );
}

/// At threshold zero a completed XML-GL run and a budget-tripped WG-Log
/// run are both captured with their trees; the report JSON carries the
/// profile a `profile: true` reply carries, and `stat` prints the tree
/// under its entry.
#[test]
fn a_slow_entry_holds_the_runs_tree_between_admit_and_reply() {
    let mut catalog = Catalog::new();
    catalog
        .register_xml("db", "<db><n><m/></n></db>")
        .expect("dataset parses");
    let mut tenants = TenantRegistry::new();
    tenants.register(
        "t",
        Envelope::slots(8).with_per_query(Budget::unlimited().with_max_rounds(12)),
    );
    let service = Service::builder()
        .workers(2)
        .catalog(catalog)
        .tenants(tenants)
        .telemetry(TelemetryConfig::default().with_slow_threshold_us(0))
        .build();
    let handle = service.handle();
    let xmlgl = "rule { extract { n as $n { m } } construct { answer { all $n } } }";
    let reply = handle.submit(&Request::new("t", "db", "xmlgl", xmlgl).with_profile());
    let Response::Ok(ok) = reply else {
        panic!("{reply:?}");
    };
    let tripped = handle.submit(&Request::new("t", "db", "wglog", INVENTION));
    assert_eq!(tripped.error_code(), Some(ErrorCode::Budget), "{tripped:?}");

    let entries = handle.telemetry().slow_entries_for("db");
    let [completed, budget] = &entries[..] else {
        panic!("two captures: {entries:?}");
    };
    assert_eq!(
        (completed.outcome.as_str(), completed.query.as_str()),
        ("ok", xmlgl)
    );
    assert_runs_tree(completed, &["analyze", "plan", "index", "eval"]);
    assert_eq!(budget.outcome, "budget");
    assert_runs_tree(budget, &["analyze", "plan", "load", "eval"]);
    // The reply's profile is the entry's, in the report JSON as on the
    // wire.
    let replied = ok.profile.as_deref().expect("a profile was asked for");
    assert_eq!(completed.profile.to_json(), replied);
    let report = handle.metrics_report();
    let json = report.to_value();
    let captured = (json.get("slow"))
        .and_then(|s| s.get("datasets"))
        .and_then(Value::as_arr)
        .and_then(|d| d[0].get("entries"))
        .and_then(Value::as_arr)
        .expect("the report lists the captures");
    let profile = captured[0].get("profile").expect("the entry's profile");
    assert_eq!(
        profile.render(),
        Value::parse(replied).expect("profile JSON").render()
    );
    // `stat`: admit, the gate wait, the run's tree, the reply.
    let text = report.to_text();
    let tree = completed.profile.to_text();
    let at = text.find(&format!("#{} db ok ", completed.request_id));
    let at = at.unwrap_or_else(|| panic!("{text}"));
    let story = &text[at..];
    let indented: String = tree.lines().map(|l| format!("      {l}\n")).collect();
    let expected = format!(
        "      admit\n      gate wait {}us\n{indented}      reply at {}us\n",
        completed.gate_wait_us, completed.service_us
    );
    assert!(story.contains(&expected), "{story}");
    service.shutdown();
}

#[test]
fn completed_queries_respect_the_slow_threshold() {
    // A sibling service whose threshold is effectively infinite: the same
    // traffic must capture nothing — the slow log is a filter, not a log
    // of everything.
    let mut catalog = Catalog::new();
    catalog
        .register_xml("db", "<db><n><m/></n></db>")
        .expect("dataset parses");
    let mut tenants = TenantRegistry::new();
    tenants.register("t", Envelope::slots(8));
    let service = Service::builder()
        .workers(2)
        .catalog(catalog)
        .tenants(tenants)
        .telemetry(TelemetryConfig::default().with_slow_threshold_us(u64::MAX))
        .build();
    let handle = service.handle();
    let resp = handle.submit(&Request::new("t", "db", "xpath", "//n"));
    assert!(matches!(resp, Response::Ok(_)), "got {resp:?}");
    assert!(handle.telemetry().slow_entries_for("db").is_empty());
    // But the rest of the plane still saw the request.
    assert_eq!(handle.telemetry().latency_all().count, 1);
    service.shutdown();
}
