//! One query, three formalisms: the comparison at the heart of the paper.
//!
//! Runs "restaurants offering a menu cheaper than 25" as an XML-GL rule, a
//! WG-Log program and an XPath expression through the unified engine, shows
//! that they agree, and reports where each language stops: the translators
//! are then used to port the XML-GL rule automatically, and the capability
//! matrix explains the failures.
//!
//! ```sh
//! cargo run --release --example three_engines
//! ```

use std::time::Duration;

use gql::core::{translate, Engine, Feature, LanguageProfile, QueryKind};
use gql::ssdm::generator::{cityguide, CityConfig};
use gql::wglog::dsl as wdsl;
use gql::xmlgl::dsl as xdsl;

fn main() {
    let doc = cityguide(CityConfig {
        restaurants: 300,
        hotels: 40,
        seed: 3,
    });
    println!("dataset: {} live nodes\n", doc.live_node_count());

    let xmlgl = xdsl::parse(
        r#"
        rule {
          extract {
            restaurant as $r {
              menu as $m { price { text as $p < "25" } }
            }
          }
          construct { answer { all $r } }
        }
        "#,
    )
    .expect("XML-GL query parses");

    let wglog = wdsl::parse(
        r#"
        rule {
          query {
            $r: restaurant
            $m: menu where price < "25"
            $r -menu-> $m
          }
          construct { $l: answer  $l -member-> $r }
        }
        goal answer
        "#,
    )
    .expect("WG-Log query parses");

    let xpath = "//restaurant[menu/price < 25]".to_string();

    let mut engine = Engine::new();
    engine.preload(&doc); // resident-database configuration for WG-Log

    println!(
        "{:<8} {:>10} {:>12} {:>12}",
        "engine", "results", "eval", "load"
    );
    let queries: Vec<(&str, QueryKind)> = vec![
        ("XML-GL", QueryKind::XmlGl(xmlgl.clone())),
        ("WG-Log", QueryKind::WgLog(wglog)),
        ("XPath", QueryKind::XPath(xpath)),
    ];
    let mut selected_counts = Vec::new();
    for (name, q) in &queries {
        let outcome = engine.run_profiled(q, &doc).expect("query runs");
        // Normalise the size metric to "restaurants selected".
        let selected = match q {
            QueryKind::XmlGl(_) | QueryKind::WgLog(_) => {
                let root = outcome.output.root_element().expect("root");
                // For WG-Log the answer wraps the goal objects one level
                // deeper (answer/answer-objects); count leaf members.
                match q {
                    QueryKind::WgLog(_) => {
                        let list = outcome
                            .output
                            .child_elements(root)
                            .next()
                            .expect("goal obj");
                        outcome.output.child_elements(list).count()
                    }
                    _ => {
                        let answer = outcome.output.child_elements(root).count();
                        // XML-GL: answer element wraps the restaurants? No —
                        // root *is* the answer element.
                        let _ = answer;
                        outcome.output.child_elements(root).count()
                    }
                }
            }
            QueryKind::XPath(_) => outcome.result_count,
        };
        selected_counts.push(selected);
        // The engine reads no clock of its own: the timings are the
        // profile's `eval` and `load` (WG-Log) or `index` phases.
        let profile = outcome.profile.as_ref().expect("a profiled run");
        let phase = |names: &[&str]| {
            let run = profile.find("run").expect("a run span");
            let node = run
                .children
                .iter()
                .find(|c| names.contains(&c.name.as_str()));
            format!(
                "{:?}",
                Duration::from_nanos(node.map_or(0, |n| n.nanos as u64))
            )
        };
        println!(
            "{:<8} {:>10} {:>12} {:>12}",
            name,
            selected,
            phase(&["eval"]),
            phase(&["load", "index"]),
        );
    }
    assert!(
        selected_counts.windows(2).all(|w| w[0] == w[1]),
        "engines disagree: {selected_counts:?}"
    );
    println!(
        "\nall three engines select the same {} restaurants ✓\n",
        selected_counts[0]
    );

    // Automatic translation XML-GL → WG-Log of the same rule.
    match translate::xmlgl_to_wglog(&xmlgl.rules[0]) {
        Ok(ported) => {
            println!("XML-GL → WG-Log translation succeeded:");
            print!("{}", wdsl::print(&ported));
        }
        Err(e) => println!("XML-GL → WG-Log translation failed: {e}"),
    }

    // And a query that cannot cross: a value join.
    let join = xdsl::parse(
        r#"
        rule {
          extract {
            restaurant as $a { address { city { text as $c1 } } }
            hotel as $h { address { city { text as $c2 } } }
            join $c1 == $c2
          }
          construct { answer { all $a } }
        }
        "#,
    )
    .expect("join query parses");
    match translate::xmlgl_to_wglog(&join.rules[0]) {
        Ok(_) => println!("\n(unexpected: the value join translated)"),
        Err(e) => {
            println!("\nvalue-join query does not port to WG-Log, as the matrix predicts:\n  {e}")
        }
    }

    // The capability matrix that predicts this.
    println!("\ncapability matrix (T1):\n");
    let profiles = LanguageProfile::all();
    print!("{:<18}", "feature");
    for p in &profiles {
        print!("{:>9}", p.name);
    }
    println!();
    for f in Feature::ALL {
        print!("{:<18}", f.name());
        for p in &profiles {
            print!("{:>9}", if p.supports(f) { "yes" } else { "—" });
        }
        println!();
    }
}
