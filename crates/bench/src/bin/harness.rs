//! The experiment harness: regenerates every table (T1–T5) and figure
//! (F1–F5) of the reproduction.
//!
//! ```sh
//! cargo run --release -p gql-bench --bin harness -- all
//! cargo run --release -p gql-bench --bin harness -- table t3
//! cargo run --release -p gql-bench --bin harness -- fig f1
//! ```
//!
//! Figures are written as SVG into `./figures/`; tables print to stdout in
//! the layout EXPERIMENTS.md records.

use std::collections::BTreeSet;
use std::time::Duration;

use gql_bench::suite::{self, Dataset};
use gql_bench::tables::{fmt_duration, median_time, TextTable};
use gql_core::{capability, translate, Engine, Feature, LanguageProfile, QueryKind};
use gql_layout::{layout, LayoutOptions, OrderingHeuristic};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec: Vec<&str> = args.iter().map(String::as_str).collect();
    match spec.as_slice() {
        [] | ["all"] => {
            table_t1();
            table_t2();
            table_t3();
            table_t4();
            table_t5();
            table_t6();
            figures();
        }
        ["table", "t1"] | ["t1"] => table_t1(),
        ["table", "t2"] | ["t2"] => table_t2(),
        ["table", "t3"] | ["t3"] => table_t3(),
        ["table", "t4"] | ["t4"] => table_t4(),
        ["table", "t5"] | ["t5"] => table_t5(),
        ["table", "t6"] | ["t6"] => table_t6(),
        ["fig", id] => figure(id),
        ["figs"] | ["figures"] => figures(),
        other => {
            eprintln!(
                "unknown arguments {other:?}\n\
                 usage: harness [all | t1..t6 | table tN | fig fN | figs]"
            );
            std::process::exit(2);
        }
    }
}

/// T1 — the language capability matrix, derived from the profiles that sit
/// next to the implementations.
fn table_t1() {
    println!("\n== T1 — language feature matrix ==================================\n");
    let profiles = LanguageProfile::all();
    let mut header = vec!["feature"];
    for p in &profiles {
        header.push(p.name);
    }
    let mut t = TextTable::new(&header);
    for f in Feature::ALL {
        let mut row = vec![f.name().to_string()];
        for p in &profiles {
            row.push(if p.supports(f) {
                "yes".into()
            } else {
                "—".into()
            });
        }
        t.row(row);
    }
    print!("{}", t.render());
}

/// T2 — expressibility of the canonical suite Q1–Q10 per language, plus the
/// automatic XML-GL → WG-Log translation outcome.
fn table_t2() {
    println!("\n== T2 — canonical suite expressibility ===========================\n");
    let mut t = TextTable::new(&[
        "query",
        "class",
        "XML-GL",
        "WG-Log",
        "XPath",
        "predicted(WG-Log)",
        "auto-translate",
    ]);
    let wglog_profile = LanguageProfile::wglog();
    for q in suite::queries() {
        let has = |b: bool| {
            if b {
                "yes".to_string()
            } else {
                "—".to_string()
            }
        };
        // Prediction: take the feature set of the XML-GL formulation (the
        // most expressive formalism here) and ask the WG-Log profile.
        let predicted = match q.xmlgl_program() {
            Some(p) => {
                let features: BTreeSet<Feature> = capability::features_of_xmlgl(&p.rules[0]);
                has(capability::expressible(&wglog_profile, &features))
            }
            None => "n/a".to_string(),
        };
        let translated = match q.xmlgl_program() {
            Some(p) => match translate::xmlgl_to_wglog(&p.rules[0]) {
                Ok(_) => "ok".to_string(),
                Err(gql_core::CoreError::Untranslatable { feature, .. }) => {
                    format!("✗ {feature}")
                }
                Err(e) => format!("error: {e}"),
            },
            None => "n/a".to_string(),
        };
        t.row(vec![
            q.id.to_string(),
            q.class.to_string(),
            has(q.xmlgl.is_some()),
            has(q.wglog.is_some()),
            has(q.xpath.is_some()),
            predicted,
            translated,
        ]);
    }
    print!("{}", t.render());
}

/// T3 — evaluation performance across document sizes and query classes.
fn table_t3() {
    println!("\n== T3 — engine performance vs document size ======================\n");
    println!("median of 5 runs; WG-Log excludes the instance load (resident DB)\n");
    let sizes = [100usize, 300, 1000, 3000];
    let picks = ["Q1", "Q3", "Q5", "Q6", "Q7"];
    let mut t = TextTable::new(&[
        "query", "class", "records", "nodes", "XML-GL", "WG-Log", "XPath",
    ]);
    for id in picks {
        let q = suite::queries()
            .into_iter()
            .find(|q| q.id == id)
            .expect("suite query");
        for &scale in &sizes {
            let doc = q.dataset.build(scale);
            let mut engine = Engine::new();
            engine.preload(&doc);
            let mut cells = vec![
                q.id.to_string(),
                q.class.to_string(),
                scale.to_string(),
                doc.live_node_count().to_string(),
            ];
            for lang in ["XML-GL", "WG-Log", "XPath"] {
                let entry = q
                    .engine_queries()
                    .into_iter()
                    .find(|(l, _)| *l == lang)
                    .map(|(_, query)| {
                        median_time(5, || {
                            let _ = engine.run(&query, &doc).expect("suite query runs");
                        })
                    });
                cells.push(entry.map_or("n/a".to_string(), fmt_duration));
            }
            t.row(cells);
        }
    }
    print!("{}", t.render());
}

/// T4 — diagram readability metrics, tuned vs naive layouts.
fn table_t4() {
    println!("\n== T4 — diagram readability (layout heuristics) ==================\n");
    let mut t = TextTable::new(&[
        "diagram",
        "nodes",
        "edges",
        "crossings(naive)",
        "crossings(bary)",
        "crossings(median)",
        "edge-len(bary)",
        "area(bary)",
    ]);
    let mut diagrams: Vec<(String, gql_layout::Diagram)> = suite::figures()
        .into_iter()
        .map(|(id, _, d)| (id.to_string(), d))
        .collect();
    // Add the suite diagrams that exist in XML-GL.
    for q in suite::queries() {
        if let Some(p) = q.xmlgl_program() {
            diagrams.push((
                q.id.to_string(),
                gql_xmlgl::diagram::rule_diagram(&p.rules[0]),
            ));
        } else if let Some(p) = q.wglog_program() {
            diagrams.push((
                q.id.to_string(),
                gql_wglog::diagram::rule_diagram(&p.rules[0]),
            ));
        }
    }
    for (id, d) in diagrams {
        let metric = |ordering| {
            let l = layout(
                &d,
                &LayoutOptions {
                    ordering,
                    ..Default::default()
                },
            );
            gql_layout::metrics::readability(&l)
        };
        let naive = metric(OrderingHeuristic::None);
        let bary = metric(OrderingHeuristic::Barycenter);
        let median = metric(OrderingHeuristic::Median);
        t.row(vec![
            id,
            d.node_count().to_string(),
            d.edge_count().to_string(),
            naive.crossings.to_string(),
            bary.crossings.to_string(),
            median.crossings.to_string(),
            format!("{:.0}", bary.total_edge_length),
            format!("{:.0}", bary.area),
        ]);
    }
    print!("{}", t.render());
}

/// T5 — evaluation-strategy ablation: T5b, naive vs semi-naive fixpoint on
/// Q10's closure.
fn table_t5() {
    println!("\n== T5b — WG-Log fixpoint ablation (Q10 closure) ==================\n");
    let mut t = TextTable::new(&[
        "records",
        "naive embeddings",
        "semi-naive embeddings",
        "naive",
        "semi-naive",
    ]);
    let q10 = suite::queries()
        .into_iter()
        .find(|q| q.id == "Q10")
        .expect("Q10");
    let program = q10.wglog_program().expect("Q10 in WG-Log");
    for scale in [50usize, 150, 400] {
        let doc = Dataset::CityGuide.build(scale);
        let db = gql_wglog::instance::Instance::from_document(&doc);
        let run = |mode| {
            let mut out = (Duration::ZERO, 0usize);
            out.0 = median_time(3, || {
                let (_, stats) = gql_wglog::eval::run_with(&program, &db, mode).expect("Q10 runs");
                out.1 = stats.embeddings_found;
            });
            out
        };
        let (naive_t, naive_e) = run(gql_wglog::eval::FixpointMode::Naive);
        let (semi_t, semi_e) = run(gql_wglog::eval::FixpointMode::SemiNaive);
        t.row(vec![
            scale.to_string(),
            naive_e.to_string(),
            semi_e.to_string(),
            fmt_duration(naive_t),
            fmt_duration(semi_t),
        ]);
    }
    print!("{}", t.render());
}

/// T6 — streaming vs DOM evaluation of the navigational core.
fn table_t6() {
    println!("\n== T6 — streaming vs DOM navigation ==============================\n");
    println!("one-shot setting: DOM pays its parse; streaming reads the text once\n");
    let mut t = TextTable::new(&[
        "records",
        "nodes",
        "matches",
        "stream",
        "DOM parse",
        "DOM eval",
        "stream vs total",
    ]);
    let path = "/cityguide/restaurant/menu/price";
    for scale in [300usize, 1000, 3000, 10000] {
        let doc = Dataset::CityGuide.build(scale);
        let xml = doc.to_xml_string();
        let compiled = gql_ssdm::stream::StreamPath::parse(path).expect("path parses");
        let mut matches = 0usize;
        let t_stream = median_time(5, || {
            matches = compiled.run(&xml).expect("stream runs").count;
        });
        let mut parsed = None;
        let t_parse = median_time(5, || {
            parsed = Some(gql_ssdm::Document::parse_str(&xml).expect("parses"));
        });
        let parsed = parsed.expect("parsed");
        let expr = gql_xpath::parse(path).expect("xpath parses");
        let t_eval = median_time(5, || {
            let _ = gql_xpath::evaluate(&parsed, &expr).expect("runs");
        });
        let total = t_parse + t_eval;
        let ratio = total.as_secs_f64() / t_stream.as_secs_f64().max(1e-9);
        t.row(vec![
            scale.to_string(),
            doc.live_node_count().to_string(),
            matches.to_string(),
            fmt_duration(t_stream),
            fmt_duration(t_parse),
            fmt_duration(t_eval),
            format!("{ratio:.1}x"),
        ]);
    }
    print!("{}", t.render());
}

/// All figures: SVG to ./figures, ASCII to stdout, plus the run summary.
fn figures() {
    for (id, _, _) in suite::figures() {
        figure(&id.to_lowercase());
    }
}

fn figure(id: &str) {
    let figs = suite::figures();
    let Some((fid, caption, diagram)) = figs
        .into_iter()
        .find(|(f, _, _)| f.eq_ignore_ascii_case(id))
    else {
        eprintln!("unknown figure '{id}' (have f1..f5)");
        std::process::exit(2);
    };
    println!("\n== {fid} — {caption} ==\n");
    let l = layout(&diagram, &LayoutOptions::default());
    println!("{}", gql_layout::render::to_ascii(&diagram, &l));
    std::fs::create_dir_all("figures").expect("figures dir");
    let path = format!("figures/{}.svg", fid.to_lowercase());
    std::fs::write(&path, gql_layout::render::to_svg(&diagram, &l)).expect("svg written");
    println!("(SVG written to {path})");

    // Run the figure's query where it denotes one, summarising the result.
    match fid {
        "F1" => {
            let doc = Dataset::CityGuide.build(40);
            let program = gql_wglog::dsl::parse(
                "rule { query { $r: restaurant  $m: menu  $r -menu-> $m }
                        construct { $l: rest-list  $l -member-> $r } } goal rest-list",
            )
            .expect("F1 parses");
            let db = gql_wglog::instance::Instance::from_document(&doc);
            let out = gql_wglog::eval::run(&program, &db).expect("F1 runs");
            let l = out.objects_of_type("rest-list").next().unwrap();
            println!(
                "F1 on city-guide(40): one rest-list, {} members",
                out.out_edges(l).count()
            );
        }
        "F2" => {
            let doc = Dataset::Bibliography.build(40);
            let program = gql_xmlgl::dsl::parse(
                r#"rule { extract { book as $b { @year as $y >= "2000" } }
                          construct { result { all $b } } }"#,
            )
            .expect("F2 parses");
            let out = gql_xmlgl::run(&program, &doc).expect("F2 runs");
            let root = out.root_element().expect("result root");
            println!(
                "F2 on bibliography(40): {} books selected",
                out.child_elements(root).count()
            );
        }
        "F4" => {
            let doc = Dataset::Bibliography.build(40);
            let program = gql_xmlgl::dsl::parse(
                r#"rule { extract { person as $p { firstname { text as $f }
                                                   lastname { text as $l } fulladdr } }
                          construct { result { entry { first { copy $f } last { copy $l } } } } }"#,
            )
            .expect("F4 parses");
            let out = gql_xmlgl::run(&program, &doc).expect("F4 runs");
            println!(
                "F4 on bibliography(40): {} persons with a FULLADDR projected",
                out.children(out.root()).len()
            );
        }
        "F5" => {
            let doc = Dataset::Greengrocer.build(60);
            let program = gql_xmlgl::dsl::parse(
                r#"rule { extract {
                            product as $p { vendor { text as $v1 } }
                            vendor as $w { name { text as $v2 } }
                            join $v1 == $v2 }
                          construct { answer { all $p } } }"#,
            )
            .expect("F5 parses");
            let out = gql_xmlgl::run(&program, &doc).expect("F5 runs");
            let root = out.root_element().expect("answer root");
            println!(
                "F5 on greengrocer(60): {} products joined to their vendor records",
                out.child_elements(root).count()
            );
        }
        _ => {}
    }
    println!();
}

// The engine enum is exhaustively matched above; silence the otherwise
// unused-import lint when compiling subsets.
#[allow(dead_code)]
fn _use(_: QueryKind) {}
