//! The EXPLAIN golden: for every suite query Q1–Q10 on each surface that
//! states it, run once against scale 8 of its dataset, the plan the run
//! reports (`RunOutcome::plan`), the `plan` span's compact note, the join
//! orders the planner chose and the combine order each XML-GL rule ran.
//! A refactor of the planner, the lowering or the matcher must leave the
//! file as it is.
//!
//! One rule beyond the suite joins three roots through two joins, so that a
//! spine with more than one `HashJoin` is pinned too, and a few more reach
//! the lowering branches the suite does not: a two-rule XML-GL program, a
//! wildcard root with `deep` / `not deep` edges, a WG-Log cross product
//! under a negated edge, and XPath unions, filter paths, value expressions
//! and the root path.
//!
//! Regenerate it with `BLESS=1 cargo test --test explain`.

use std::fmt::Write as _;
use std::path::Path;

use gql::core::engine::{Engine, QueryKind};
use gql::ssdm::generator::{cityguide, greengrocer, CityConfig, GrocerConfig};
use gql::trace::ProfileNode;

macro_rules! item {
    ($kind:literal, $file:literal) => {
        (
            $kind,
            $file,
            include_str!(concat!("../gql-benchmark/queries/", $file)),
        )
    };
}

/// Kind, file name and text of each item: Q1–Q10 as `gql-benchmark` sends
/// them, in every surface that states them, then the extra branches.
const ITEMS: [(&str, &str, &str); 30] = [
    item!("xmlgl", "q01.xmlgl"),
    item!("wglog", "q01.wglog"),
    item!("xpath", "q01.xpath"),
    item!("xmlgl", "q02.xmlgl"),
    item!("wglog", "q02.wglog"),
    item!("xpath", "q02.xpath"),
    item!("xmlgl", "q03.xmlgl"),
    item!("wglog", "q03.wglog"),
    item!("xpath", "q03.xpath"),
    item!("xmlgl", "q04.xmlgl"),
    item!("xpath", "q04.xpath"),
    item!("xmlgl", "q05.xmlgl"),
    item!("wglog", "q05.wglog"),
    item!("xpath", "q05.xpath"),
    item!("xmlgl", "q06.xmlgl"),
    item!("xpath", "q06.xpath"),
    item!("xmlgl", "q07.xmlgl"),
    item!("xpath", "q07.xpath"),
    item!("xmlgl", "q08.xmlgl"),
    item!("xpath", "q08.xpath"),
    item!("xmlgl", "q09.xmlgl"),
    item!("wglog", "q10.wglog"),
    ("xmlgl", "grocer-three-roots", THREE_ROOTS),
    ("xmlgl", "city-two-rules", TWO_RULES),
    ("xmlgl", "city-wildcard-deep", WILDCARD_DEEP),
    ("wglog", "city-cross-not", CROSS_NOT),
    ("xpath", "city-union", "//restaurant | //hotel"),
    ("xpath", "city-filter-path", "(//restaurant)/name"),
    ("xpath", "city-value", "1 + 2"),
    ("xpath", "city-root", "/"),
];

/// Two `product` roots joined only through the `vendor` root.
const THREE_ROOTS: &str = r#"rule { extract {
        product as $p { vendor { text as $v1 } }
        product as $q { vendor { text as $v2 } }
        vendor { country { text = "holland" } name { text as $n } }
        join $v1 == $n  join $v2 == $n }
      construct { answer { count($p) } } }"#;

/// Two rules: the program's `Construct result` over one spine per rule.
const TWO_RULES: &str = "rule { extract { restaurant as $r } construct { eat { all $r } } } \
                         rule { extract { hotel as $h } construct { sleep { all $h } } }";

/// A wildcard root (`Scan *`) with a `deep` and a `not deep` edge.
const WILDCARD_DEEP: &str =
    "rule { extract { * as $x { deep name  not deep menu } } construct { out { all $x } } }";

/// An unconnected binding from the type index (`HashJoin on cross`) under
/// a negated edge (`Filter no …`).
const CROSS_NOT: &str = "rule { query { $r: restaurant  $h: hotel  $m: menu  not $r -menu-> $m } \
                         construct { $l: answer  $l -member-> $r } } goal answer";

fn query(kind: &str, text: &str) -> QueryKind {
    match kind {
        "xmlgl" => QueryKind::XmlGl(gql::xmlgl::dsl::parse(text).expect("parses")),
        "wglog" => QueryKind::WgLog(gql::wglog::dsl::parse(text).expect("parses")),
        _ => QueryKind::XPath(text.trim().to_string()),
    }
}

/// Every note named `name` or `name[…]`, depth first, as `name = value`.
fn notes(node: &ProfileNode, name: &str, out: &mut String) {
    for (key, value) in &node.notes {
        if key == name || key.strip_prefix(name).is_some_and(|k| k.starts_with('[')) {
            writeln!(out, "{}: {key} = {value}", node.name).unwrap();
        }
    }
    for child in &node.children {
        notes(child, name, out);
    }
}

fn explained() -> String {
    let city = cityguide(CityConfig {
        restaurants: 8,
        hotels: 2,
        seed: 11,
    });
    let grocer = greengrocer(GrocerConfig {
        products: 8,
        vendors: 1,
        seed: 13,
    });
    let mut out = String::new();
    for (kind, file, text) in ITEMS {
        let doc = if file.starts_with("q06") || file.starts_with("grocer") {
            &grocer
        } else {
            &city
        };
        let outcome = Engine::new()
            .run_profiled(&query(kind, text), doc)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let profile = outcome.profile.expect("a profiled run has a profile");
        let run = profile.find("run").expect("a run span");
        let plan = run.find("plan").expect("a plan span");
        writeln!(out, "== {file}").unwrap();
        out.push_str(&outcome.plan);
        writeln!(
            out,
            "compact: {}",
            plan.note("plan").expect("a compact plan")
        )
        .unwrap();
        notes(plan, "join_order", &mut out);
        notes(run, "combine_plan", &mut out);
        out.push('\n');
    }
    out
}

#[test]
fn explain_output_of_the_suite_matches_its_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/explain.golden");
    let got = explained();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|_| panic!("{}: missing (run with BLESS=1)", golden.display()));
    assert!(
        got == expected,
        "EXPLAIN drifted from {}:\n--- expected ---\n{expected}--- got ---\n{got}",
        golden.display()
    );
}
