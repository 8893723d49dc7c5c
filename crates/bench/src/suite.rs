//! The canonical query suite Q1–Q10 and the figure queries F1–F5.
//!
//! Each query is stated in every formalism that can express it; `None`
//! entries are the expressiveness gaps that experiment T2 reports. The
//! queries run against the three synthetic datasets whose shapes mirror the
//! paper's running examples (see `gql_ssdm::generator`).

use gql_core::QueryKind;
use gql_ssdm::generator::{
    bibliography, cityguide, greengrocer, BibConfig, CityConfig, GrocerConfig,
};
use gql_ssdm::Document;

/// Which dataset a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    CityGuide,
    Greengrocer,
    Bibliography,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::CityGuide => "city-guide",
            Dataset::Greengrocer => "greengrocer",
            Dataset::Bibliography => "bibliography",
        }
    }

    /// Build the dataset at a scale factor (≈ number of principal records).
    pub fn build(self, scale: usize) -> Document {
        match self {
            Dataset::CityGuide => cityguide(CityConfig {
                restaurants: scale,
                hotels: (scale / 4).max(1),
                seed: 11,
            }),
            Dataset::Greengrocer => greengrocer(GrocerConfig {
                products: scale,
                vendors: (scale / 10).clamp(1, 10),
                seed: 13,
            }),
            Dataset::Bibliography => bibliography(BibConfig {
                books: scale,
                people: (scale / 2).max(1),
                seed: 7,
            }),
        }
    }
}

/// One canonical query with all its formulations.
pub struct SuiteQuery {
    pub id: &'static str,
    pub class: &'static str,
    pub description: &'static str,
    pub dataset: Dataset,
    pub xmlgl: Option<&'static str>,
    pub wglog: Option<&'static str>,
    pub xpath: Option<&'static str>,
}

impl SuiteQuery {
    /// Parse the XML-GL formulation.
    pub fn xmlgl_program(&self) -> Option<gql_xmlgl::ast::Program> {
        self.xmlgl
            .map(|src| gql_xmlgl::dsl::parse(src).expect("suite query parses"))
    }

    /// Parse the WG-Log formulation.
    pub fn wglog_program(&self) -> Option<gql_wglog::rule::Program> {
        self.wglog
            .map(|src| gql_wglog::dsl::parse(src).expect("suite query parses"))
    }

    /// All runnable engine queries, labelled.
    pub fn engine_queries(&self) -> Vec<(&'static str, QueryKind)> {
        let mut out = Vec::new();
        if let Some(p) = self.xmlgl_program() {
            out.push(("XML-GL", QueryKind::XmlGl(p)));
        }
        if let Some(p) = self.wglog_program() {
            out.push(("WG-Log", QueryKind::WgLog(p)));
        }
        if let Some(x) = self.xpath {
            out.push(("XPath", QueryKind::XPath(x.to_string())));
        }
        out
    }
}

/// The suite. Queries Q1–Q10 cover the feature axes of the comparison
/// matrix; each is drawn from the worked examples of the paper or the
/// canonical follow-ups.
pub fn queries() -> Vec<SuiteQuery> {
    vec![
        SuiteQuery {
            id: "Q1",
            class: "selection",
            description: "all restaurants",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                "rule { extract { restaurant as $r } construct { answer { all $r } } }",
            ),
            wglog: Some(
                "rule { query { $r: restaurant } construct { $l: answer $l -member-> $r } } goal answer",
            ),
            xpath: Some("//restaurant"),
        },
        SuiteQuery {
            id: "Q2",
            class: "value predicate",
            description: "italian restaurants",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                r#"rule { extract { restaurant as $r { @category = "italian" } }
                          construct { answer { all $r } } }"#,
            ),
            wglog: Some(
                r#"rule { query { $r: restaurant where category = "italian" }
                          construct { $l: answer $l -member-> $r } } goal answer"#,
            ),
            xpath: Some("//restaurant[@category='italian']"),
        },
        SuiteQuery {
            id: "Q3",
            class: "conjunction",
            description: "restaurants in Milano offering a menu",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                r#"rule { extract { restaurant as $r {
                            menu as $m
                            address { city { text = "Milano" } } } }
                          construct { answer { all $r } } }"#,
            ),
            wglog: Some(
                r#"rule { query { $r: restaurant  $m: menu  $a: address where city = "Milano"
                                  $r -menu-> $m  $r -address-> $a }
                          construct { $l: answer $l -member-> $r } } goal answer"#,
            ),
            xpath: Some("//restaurant[menu][address/city='Milano']"),
        },
        SuiteQuery {
            id: "Q4",
            class: "disjunction",
            description: "menus cheaper than 15 or dearer than 50",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                r#"rule { extract { menu as $m { price { text < "15" or > "50" } } }
                          construct { answer { all $m } } }"#,
            ),
            wglog: None, // constraints are conjunctive
            xpath: Some("//menu[price < 15 or price > 50]"),
        },
        SuiteQuery {
            id: "Q5",
            class: "negation",
            description: "restaurants offering no menu",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                "rule { extract { restaurant as $r { not menu } } construct { answer { all $r } } }",
            ),
            wglog: Some(
                "rule { query { $r: restaurant  $m: menu  not $r -menu-> $m }
                        construct { $l: answer $l -member-> $r } } goal answer",
            ),
            xpath: Some("//restaurant[not(menu)]"),
        },
        SuiteQuery {
            id: "Q6",
            class: "value join",
            description: "products sold by Dutch vendors",
            dataset: Dataset::Greengrocer,
            xmlgl: Some(
                r#"rule { extract {
                            product as $p { vendor { text as $v1 } }
                            vendor as $w { country { text = "holland" }
                                           name { text as $v2 } }
                            join $v1 == $v2 }
                          construct { answer { all $p } } }"#,
            ),
            wglog: None, // no value joins
            xpath: Some("//product[vendor = //vendors/vendor[country='holland']/name]"),
        },
        SuiteQuery {
            id: "Q7",
            class: "deep matching",
            description: "all name elements at any depth",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                "rule { extract { cityguide { deep name as $n } } construct { answer { all $n } } }",
            ),
            wglog: None, // containment labels vary per step
            xpath: Some("//name"),
        },
        SuiteQuery {
            id: "Q8",
            class: "aggregation",
            description: "count of menus and their price range",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                r#"rule { extract { menu as $m { price { text as $p } } }
                          construct { answer {
                            menus { count($m) } lo { min($p) } hi { max($p) } } } }"#,
            ),
            wglog: None, // no aggregation
            xpath: Some("count(//menu)"), // partial: the count only
        },
        SuiteQuery {
            id: "Q9",
            class: "restructuring",
            description: "restaurant names grouped by category",
            dataset: Dataset::CityGuide,
            xmlgl: Some(
                r#"rule { extract { restaurant { @category as $c name as $n } }
                          construct { answer { all $n group by $c as category } } }"#,
            ),
            wglog: None, // grouping by value is beyond member collection
            xpath: None, // XPath selects, it does not construct
        },
        SuiteQuery {
            id: "Q10",
            class: "recursion",
            description: "transitive closure of menu-sharing (same dish offered)",
            dataset: Dataset::CityGuide,
            xmlgl: None, // no fixpoint
            wglog: Some(
                r#"
                rule {
                  query { $r: restaurant  $m: menu  $r -menu-> $m }
                  construct { $r -linked-> $m }
                }
                rule {
                  query { $a: restaurant  $m: menu  $b: restaurant
                          $a -linked-> $m  $b -menu-> $m }
                  construct { $a -peer-> $b }
                }
                rule {
                  query { $a: restaurant  $b: restaurant  $c: restaurant
                          $a -peer-> $b  $b -peer-> $c }
                  construct { $a -peer-> $c }
                }
                goal restaurant
                "#,
            ),
            xpath: None,
        },
    ]
}

/// Figure queries F1–F5 (see DESIGN.md). Returned as (id, caption, diagram).
pub fn figures() -> Vec<(&'static str, &'static str, gql_layout::Diagram)> {
    let f1 = gql_wglog::dsl::parse(
        "rule { query { $r: restaurant  $m: menu  $r -menu-> $m }
                construct { $l: rest-list  $l -member-> $r } } goal rest-list",
    )
    .expect("F1 parses");
    let f2 = gql_xmlgl::dsl::parse(
        r#"rule { extract { book as $b { @year as $y >= "2000" } }
                  construct { result { all $b } } }"#,
    )
    .expect("F2 parses");
    let f4 = gql_xmlgl::dsl::parse(
        r#"rule { extract { person as $p { firstname { text as $f }
                                           lastname { text as $l } fulladdr } }
                  construct { result { entry { first { copy $f } last { copy $l } } } } }"#,
    )
    .expect("F4 parses");
    let f5 = gql_xmlgl::dsl::parse(
        r#"rule { extract {
                    product as $p { vendor { text as $v1 } }
                    vendor as $w { name { text as $v2 } }
                    join $v1 == $v2 }
                  construct { answer { all $p } } }"#,
    )
    .expect("F5 parses");
    vec![
        (
            "F1",
            "WG-Log: restaurants offering menus, collected into one rest-list",
            gql_wglog::diagram::rule_diagram(&f1.rules[0]),
        ),
        (
            "F2",
            "XML-GL: all BOOK elements since 2000 (deep construct)",
            gql_xmlgl::diagram::rule_diagram(&f2.rules[0]),
        ),
        (
            "F3",
            "XML-GL schema of the BOOK DTD (multiplicity edges)",
            schema_figure(),
        ),
        (
            "F4",
            "XML-GL: PERSONs with FULLADDR, name parts projected",
            gql_xmlgl::diagram::rule_diagram(&f4.rules[0]),
        ),
        (
            "F5",
            "XML-GL: equi-join via a shared node",
            gql_xmlgl::diagram::rule_diagram(&f5.rules[0]),
        ),
    ]
}

/// The F3 schema figure: the BOOK DTD as a diagram of boxes and
/// multiplicity-labelled edges.
fn schema_figure() -> gql_layout::Diagram {
    use gql_layout::{Diagram, EdgeSpec, EdgeStyle, NodeSpec, Shape};
    let dtd = gql_ssdm::dtd::Dtd::parse(
        "<!ELEMENT BOOK (title?,price,AUTHOR*)>\
         <!ATTLIST BOOK isbn CDATA #REQUIRED>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ELEMENT AUTHOR (first-name,last-name)>\
         <!ELEMENT first-name (#PCDATA)>\
         <!ELEMENT last-name (#PCDATA)>",
    )
    .expect("BOOK DTD parses");
    let schema = gql_xmlgl::schema::GlSchema::from_dtd(&dtd);
    let mut d = Diagram::new();
    let mut nodes = std::collections::HashMap::new();
    for name in schema.element_names() {
        let decl = schema.element(name).expect("declared");
        let mut spec = NodeSpec::new(name, Shape::Box);
        let attrs: Vec<String> = decl
            .attrs
            .iter()
            .map(|(a, req)| format!("●{a}{}", if *req { "!" } else { "" }))
            .collect();
        if !attrs.is_empty() {
            spec = spec.with_sublabel(attrs.join(" "));
        } else if decl.text {
            spec = spec.with_sublabel("(text)");
        }
        nodes.insert(name.to_string(), d.add_node(spec));
    }
    for name in schema.element_names() {
        let decl = schema.element(name).expect("declared");
        for c in &decl.children {
            if let (Some(&from), Some(&to)) = (nodes.get(name), nodes.get(&c.child)) {
                d.add_edge(
                    from,
                    to,
                    EdgeSpec::labelled(c.mult.symbol(), EdgeStyle::Solid),
                );
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::Engine;

    #[test]
    fn every_formulation_parses() {
        for q in queries() {
            let _ = q.xmlgl_program();
            let _ = q.wglog_program();
            if let Some(x) = q.xpath {
                gql_xpath::parse(x).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            }
        }
    }

    #[test]
    fn suite_covers_every_language_at_least_six_times() {
        let qs = queries();
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().filter(|q| q.xmlgl.is_some()).count() >= 8);
        assert!(qs.iter().filter(|q| q.wglog.is_some()).count() >= 5);
        assert!(qs.iter().filter(|q| q.xpath.is_some()).count() >= 7);
    }

    #[test]
    fn engines_agree_where_comparable() {
        // For the pure selection queries, every formulation must select the
        // same number of principal records.
        let engine = Engine::new();
        for q in queries() {
            if !matches!(q.id, "Q1" | "Q2" | "Q3" | "Q5") {
                continue;
            }
            let doc = q.dataset.build(30);
            let mut counts = Vec::new();
            for (label, query) in q.engine_queries() {
                let outcome = engine.run(&query, &doc).expect("suite query runs");
                let n = match &query {
                    gql_core::QueryKind::XPath(_) => outcome.result_count,
                    gql_core::QueryKind::XmlGl(_) => {
                        let root = outcome.output.root_element().expect("root");
                        outcome.output.child_elements(root).count()
                    }
                    gql_core::QueryKind::WgLog(_) => {
                        let root = outcome.output.root_element().expect("root");
                        let list = outcome.output.child_elements(root).next();
                        list.map(|l| outcome.output.child_elements(l).count())
                            .unwrap_or(0)
                    }
                };
                counts.push((label, n));
            }
            assert!(
                counts.windows(2).all(|w| w[0].1 == w[1].1),
                "{} disagreement: {counts:?}",
                q.id
            );
        }
    }

    #[test]
    fn q10_recursion_runs() {
        let q = queries()
            .into_iter()
            .find(|q| q.id == "Q10")
            .expect("Q10 exists");
        let doc = q.dataset.build(20);
        let program = q.wglog_program().expect("Q10 has a WG-Log formulation");
        let db = gql_wglog::instance::Instance::from_document(&doc);
        let out = gql_wglog::eval::run(&program, &db).expect("Q10 runs");
        let peers = out.edges().filter(|e| e.label == "peer").count();
        assert!(peers > 0, "closure derived nothing");
    }

    #[test]
    fn figures_render() {
        for (id, _, diagram) in figures() {
            let layout = gql_layout::layout(&diagram, &gql_layout::LayoutOptions::default());
            let svg = gql_layout::render::to_svg(&diagram, &layout);
            assert!(svg.starts_with("<svg"), "{id}");
            assert!(diagram.node_count() > 0, "{id}");
        }
    }

    #[test]
    fn datasets_scale() {
        for ds in [
            Dataset::CityGuide,
            Dataset::Greengrocer,
            Dataset::Bibliography,
        ] {
            let small = ds.build(10).live_node_count();
            let large = ds.build(100).live_node_count();
            assert!(large > small * 5, "{}: {small} → {large}", ds.name());
        }
    }
}
