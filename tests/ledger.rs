//! The bench ledger is well formed: `$GQL_BENCH_RESULTS` when set (CI points
//! it at a fresh one-sample run of every bench), else the committed
//! `BENCH_results.json`.
//!
//! Every row has the shape `gql_bench::microbench` writes, names are unique,
//! and the rows the experiments' tables and ratios are built from are
//! present. No rate is judged here: the committed file is the record of one
//! run on one machine, and a one-sample wall-clock ratio on a shared runner
//! says little (EXPERIMENTS.md T3h, T3i); what each ratio guarded is held
//! by a deterministic test named in T3i.

use std::collections::BTreeSet;
use std::path::PathBuf;

use gql_serve::json::Value;

/// Row-name prefixes some row must carry: a renamed or dropped bench arm
/// fails here, not silently in a table.
const REQUIRED: [&str; 13] = [
    "indexed_fastpath/index_build",
    "materialise/drop_vs_build",
    "materialise/emit_",
    "overhead/profiling_point_ratio",
    "q2_three_engines/wglog_vs_xmlgl",
    "q2_three_engines/xpath_vs_xmlgl",
    "q6_value_join/xmlgl_resident",
    "t5_q6_join_plans/cost-planned",
    "t5_q6_join_plans/cost_planned_vs_best",
    "t5_q6_join_plans/enumerated-",
    "t5_q6_join_plans/plan_phase_cold_ns",
    "t5_q6_join_plans/plan_phase_warm_ns",
    "t5_q6_join_plans/plan_warm_speedup",
];

#[test]
fn ledger_rows_are_well_formed_uniquely_named_and_complete() {
    let path = std::env::var_os("GQL_BENCH_RESULTS").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_results.json")),
        PathBuf::from,
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let ledger = Value::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let rows = ledger.as_arr().expect("the ledger is one array");
    assert!(!rows.is_empty(), "{path:?} holds no rows");

    let mut names = BTreeSet::new();
    for row in rows {
        let Value::Obj(members) = row else {
            panic!("a row is an object: {}", row.render());
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        // A timed row, or a row carrying a derived figure and its unit.
        assert!(
            keys == ["name", "mean_ns", "samples", "commit", "nproc"]
                || keys
                    == [
                        "name",
                        "mean_ns",
                        "samples",
                        "rate",
                        "rate_unit",
                        "commit",
                        "nproc"
                    ],
            "{}",
            row.render()
        );
        let text = |key| {
            row.get(key)
                .and_then(Value::as_str)
                .filter(|s| !s.is_empty())
        };
        let count = |key| row.get(key).and_then(Value::as_u64);
        let name = text("name").unwrap_or_else(|| panic!("name: {}", row.render()));
        assert!(names.insert(name), "duplicate row {name}");
        assert!(
            count("mean_ns").is_some() && count("samples").is_some(),
            "{name}"
        );
        assert!(text("commit").is_some(), "{name}: commit");
        assert!(count("nproc").is_some_and(|n| n >= 1), "{name}: nproc");
        if let Some(rate) = row.get("rate") {
            assert!(rate.as_f64().is_some_and(|r| r >= 0.0), "{name}: rate");
            assert!(text("rate_unit").is_some(), "{name}: rate_unit");
        }
    }
    for prefix in REQUIRED {
        assert!(
            names.iter().any(|name| name.starts_with(prefix)),
            "{path:?}: no row named {prefix}…"
        );
    }
}
