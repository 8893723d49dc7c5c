//! Golden-file tests: every diagnostic code has a fixture under
//! `tests/fixtures/` whose rendered report is pinned in a `.expected`
//! sidecar, and every paper query under `examples/queries/` gets a clean
//! bill of health.
//!
//! The `--json` report of the binary itself is pinned the same way, over
//! the three summary-inference fixtures, and read back with the service's
//! JSON parser.
//!
//! Regenerate the expectations with `BLESS=1 cargo test -p gql-analyze`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gql_analyze::{Analyzer, Code, Report, Severity};
use gql_serve::json::Value;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/queries")
}

/// Build an analyzer with the fixture's sidecar context: `<stem>.dtd`
/// becomes the XML-GL schema, `<stem>.xml` the WG-Log schema and structural
/// summary.
fn analyzer_for(fixture: &Path) -> Analyzer {
    let mut analyzer = Analyzer::new();
    let dtd_path = fixture.with_extension("dtd");
    if let Ok(text) = std::fs::read_to_string(&dtd_path) {
        let dtd = gql_ssdm::dtd::Dtd::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", dtd_path.display()));
        analyzer = analyzer.with_gl_schema(gql_xmlgl::schema::GlSchema::from_dtd(&dtd));
    }
    let xml_path = fixture.with_extension("xml");
    if let Ok(text) = std::fs::read_to_string(&xml_path) {
        let doc = gql_ssdm::Document::parse_str(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", xml_path.display()));
        let db = gql_wglog::Instance::from_document(&doc);
        analyzer = analyzer
            .with_wg_schema(gql_wglog::schema::WgSchema::extract(&db))
            .with_summary(gql_ssdm::Summary::build(&doc));
    }
    analyzer
}

fn analyze(path: &Path) -> Report {
    let src = std::fs::read_to_string(path).unwrap();
    match path.extension().and_then(|e| e.to_str()) {
        Some("gql") => analyzer_for(path).analyze_xmlgl_src(&src),
        Some("wgl") => analyzer_for(path).analyze_wglog_src(&src),
        Some("xp") => analyzer_for(path).analyze_xpath_src(src.trim()),
        other => panic!("{}: unexpected extension {other:?}", path.display()),
    }
}

fn query_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("gql") | Some("wgl") | Some("xp")
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fixtures_match_their_golden_reports() {
    let bless = std::env::var_os("BLESS").is_some();
    let fixtures = query_files(&fixtures_dir());
    assert!(!fixtures.is_empty(), "no fixtures found");
    let mut failures = Vec::new();
    for fixture in &fixtures {
        let rendered = analyze(fixture).render();
        let expected_path = fixture.with_extension("expected");
        if bless {
            std::fs::write(&expected_path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "{}: missing golden file (run with BLESS=1 to create)",
                expected_path.display()
            )
        });
        if rendered != expected {
            failures.push(format!(
                "{}:\n--- expected ---\n{expected}--- got ---\n{rendered}",
                fixture.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Each `gqlNNN_*` fixture must actually produce its namesake code, with a
/// source span (GQL013 is program-level and GQL016 expression-level — XPath
/// steps carry no source offsets — so both are exempt from the span rule).
#[test]
fn every_code_has_a_fixture_with_a_span() {
    let mut seen: BTreeMap<String, bool> = BTreeMap::new();
    for fixture in query_files(&fixtures_dir()) {
        let stem = fixture.file_stem().unwrap().to_string_lossy().to_string();
        let code_name = stem.split('_').next().unwrap().to_uppercase();
        let report = analyze(&fixture);
        let matching: Vec<_> = report
            .iter()
            .filter(|d| d.code.as_str() == code_name)
            .collect();
        assert!(
            !matching.is_empty(),
            "{stem}: no {code_name} diagnostic produced:\n{}",
            report.render()
        );
        let spanned = matching.iter().any(|d| !d.span.is_none());
        assert!(
            spanned || code_name == "GQL013" || code_name == "GQL016",
            "{stem}: {code_name} diagnostic carries no span"
        );
        seen.insert(code_name, spanned);
    }
    // Every code in the registry is exercised by some fixture…
    for code in Code::all() {
        assert!(
            seen.contains_key(code.as_str()),
            "no fixture exercises {}",
            code.as_str()
        );
    }
    // …and well over the minimum bar of codes are span-tested.
    let with_spans = seen.values().filter(|&&s| s).count();
    assert!(with_spans >= 7, "only {with_spans} codes tested with spans");
}

/// Every paper query shipped under `examples/queries/` analyzes clean:
/// no errors, no warnings (hints are advisory and allowed).
#[test]
fn paper_queries_get_a_clean_bill() {
    let queries = query_files(&examples_dir());
    assert!(
        queries.len() >= 6,
        "expected the paper queries to be present"
    );
    for query in &queries {
        let report = analyze(query);
        assert_eq!(
            report.count(Severity::Error) + report.count(Severity::Warning),
            0,
            "{}:\n{}",
            query.display(),
            report.render()
        );
    }
}

/// `gql-analyze --explain` names what each context-dependent pass needs;
/// the cost pass reads the document summary, as summary inference does.
#[test]
fn explain_lists_the_context_each_pass_needs() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gql-analyze"))
        .arg("--explain")
        .output()
        .expect("spawn gql-analyze");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let needs = |pass: &str| {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(pass))
            .unwrap_or_else(|| panic!("no {pass} line in:\n{text}"));
        line.split_once("(needs ")
            .map(|(_, n)| n.trim_end_matches(')'))
    };
    assert_eq!(needs("cost "), Some("document summary"));
    assert_eq!(needs("summary-inference "), Some("document summary"));
    assert_eq!(needs("schema-conformance "), Some("schema"));
    assert_eq!(needs("connectivity "), None);
}

/// `gql-analyze --json --instance …` over the summary-inference fixtures,
/// run from the workspace root as CI ran it: byte-identical to its golden,
/// and, read as a client reads it, each file's tallies count its
/// diagnostics, GQL014–GQL016 are all reported and a finite bound is.
#[test]
fn json_report_matches_its_golden_and_tallies_its_diagnostics() {
    const FIXTURES: &str = "crates/analyze/tests/fixtures";
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gql-analyze"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(["--json", "--instance"])
        .args(
            [
                "gql015_dead_rule.xml",
                "gql014_empty_under_summary.gql",
                "gql015_dead_rule.wgl",
                "gql016_path_never_matches.xp",
            ]
            .map(|name| format!("{FIXTURES}/{name}")),
        )
        .output()
        .expect("spawn gql-analyze");
    // Warnings only: the exit code is 0 without `--deny-warnings`.
    assert!(out.status.success(), "{out:?}");
    let json = String::from_utf8(out.stdout).expect("utf-8 report");
    let golden = fixtures_dir().join("summary_inference.json.expected");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).unwrap();
    }
    assert_eq!(json, std::fs::read_to_string(&golden).unwrap());

    let report = Value::parse(json.trim_end()).expect("the report is JSON");
    let files = report.get("files").and_then(Value::as_arr).unwrap();
    assert_eq!(files.len(), 3);
    let mut codes = Vec::new();
    let mut bounds = Vec::new();
    for file in files {
        let report = file.get("report").unwrap();
        let diagnostics = report.get("diagnostics").and_then(Value::as_arr).unwrap();
        for (tally, severity) in [
            ("errors", Severity::Error),
            ("warnings", Severity::Warning),
            ("hints", Severity::Hint),
        ] {
            let counted = diagnostics
                .iter()
                .filter(|d| d.get("severity").and_then(Value::as_str) == Some(severity.as_str()))
                .count();
            assert_eq!(
                report.get(tally).and_then(Value::as_u64),
                Some(counted as u64),
                "{tally} of {}",
                file.render()
            );
        }
        codes.extend(diagnostics.iter().filter_map(|d| d.get("code")?.as_str()));
        let file_bounds = file.get("bounds").and_then(Value::as_arr).unwrap();
        bounds.extend(file_bounds.iter().filter_map(|b| b.get("bound")?.as_u64()));
    }
    for code in [
        Code::EmptyUnderSummary,
        Code::DeadRule,
        Code::PathNeverMatches,
    ] {
        assert!(codes.contains(&code.as_str()), "{code:?} not in {codes:?}");
    }
    assert!(!bounds.is_empty(), "no finite cardinality bound reported");
}
