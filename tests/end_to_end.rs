//! Cross-crate integration tests: the full pipeline from XML text through
//! each query language to serialized results, plus cross-engine agreement
//! and translator coherence on the canonical suite.

use gql::core::{translate, Engine, QueryKind};
use gql::ssdm::Document;
use gql::wglog::instance::Instance;

const CITY: &str = "\
<guide>\
  <restaurant id='r1' category='italian'>\
    <name>Roma</name>\
    <address><city>Milano</city></address>\
    <menu><name>lunch</name><price>18</price><dish>risotto</dish></menu>\
    <menu><name>dinner</name><price>42</price><dish>osso buco</dish></menu>\
  </restaurant>\
  <restaurant id='r2' category='french'>\
    <name>Paris</name>\
    <address><city>Milano</city></address>\
  </restaurant>\
  <restaurant id='r3' category='italian'>\
    <name>Napoli</name>\
    <address><city>Roma</city></address>\
    <menu><name>pizza</name><price>12</price><dish>margherita</dish></menu>\
  </restaurant>\
</guide>";

#[test]
fn xmlgl_full_pipeline() {
    let doc = Document::parse_str(CITY).unwrap();
    let program = gql::xmlgl::dsl::parse(
        r#"rule {
             extract {
               restaurant as $r {
                 @category as $c = "italian"
                 menu as $m { price { text as $p < "20" } }
                 name { text as $n }
               }
             }
             construct {
               cheap-italian {
                 hit { @name = $n copy $m }
               }
             }
           }"#,
    )
    .unwrap();
    let out = gql::xmlgl::run(&program, &doc).unwrap();
    let xml = out.to_xml_string();
    // Roma's lunch menu (18) and Napoli's pizza menu (12) qualify.
    assert!(xml.contains("<hit name=\"Roma\">"), "{xml}");
    assert!(xml.contains("<hit name=\"Napoli\">"), "{xml}");
    assert!(!xml.contains("Paris"), "{xml}");
    assert!(xml.contains("<dish>margherita</dish>"), "{xml}");
    // The output re-parses.
    Document::parse_str(&format!("<w>{xml}</w>")).unwrap();
}

#[test]
fn wglog_full_pipeline() {
    let doc = Document::parse_str(CITY).unwrap();
    let db = Instance::from_document(&doc);
    let program = gql::wglog::dsl::parse(
        r#"rule {
             query {
               $r: restaurant where category = "italian"
               $m: menu where price < "20"
               $r -menu-> $m
             }
             construct {
               $s: finding per $r set name = $r.name
               $s -evidence-> $m
             }
           }
           goal finding"#,
    )
    .unwrap();
    let out = gql::wglog::eval::run(&program, &db).unwrap();
    let findings: Vec<_> = out.objects_of_type("finding").collect();
    assert_eq!(findings.len(), 2);
    let names: std::collections::HashSet<&str> = findings
        .iter()
        .filter_map(|&f| out.object(f).attr("name"))
        .collect();
    assert_eq!(names, ["Roma", "Napoli"].into_iter().collect());
    // Serialization path.
    let answer = out.to_document("answer", "finding", 2);
    assert!(answer.to_xml_string().contains("<name>Roma</name>"));
}

#[test]
fn xpath_full_pipeline() {
    let doc = Document::parse_str(CITY).unwrap();
    let hits = gql::xpath::select(
        &doc,
        "//restaurant[@category='italian'][menu/price < 20]/name",
    )
    .unwrap();
    let names: Vec<String> = hits.iter().map(|&n| doc.text_content(n)).collect();
    assert_eq!(names, vec!["Roma", "Napoli"]);
}

#[test]
fn three_engines_agree_on_the_shared_fragment() {
    let doc = Document::parse_str(CITY).unwrap();
    let engine = Engine::new();
    let xmlgl = gql::xmlgl::dsl::parse(
        r#"rule { extract { restaurant as $r { menu as $m } }
                  construct { answer { all $r } } }"#,
    )
    .unwrap();
    let wglog = gql::wglog::dsl::parse(
        "rule { query { $r: restaurant $m: menu $r -menu-> $m }
                construct { $l: answer $l -member-> $r } } goal answer",
    )
    .unwrap();
    let counts: Vec<usize> = [
        QueryKind::XmlGl(xmlgl),
        QueryKind::WgLog(wglog),
        QueryKind::XPath("//restaurant[menu]".into()),
    ]
    .iter()
    .map(|q| {
        let outcome = engine.run(q, &doc).unwrap();
        match q {
            QueryKind::XPath(_) => outcome.result_count,
            QueryKind::XmlGl(_) => {
                let root = outcome.output.root_element().unwrap();
                outcome.output.child_elements(root).count()
            }
            QueryKind::WgLog(_) => {
                let root = outcome.output.root_element().unwrap();
                let list = outcome.output.child_elements(root).next().unwrap();
                outcome.output.child_elements(list).count()
            }
        }
    })
    .collect();
    assert_eq!(counts, vec![2, 2, 2]);
}

#[test]
fn translation_preserves_selection_semantics() {
    let doc = Document::parse_str(CITY).unwrap();
    // XML-GL → WG-Log on the shared fragment.
    let xmlgl = gql::xmlgl::dsl::parse(
        r#"rule { extract { restaurant as $r {
                    @category = "italian"
                    menu as $m { price { text < "20" } } } }
                  construct { answer { all $r } } }"#,
    )
    .unwrap();
    let direct = gql::xmlgl::run(&xmlgl, &doc).unwrap();
    let direct_count = direct
        .child_elements(direct.root_element().unwrap())
        .count();

    let ported = translate::xmlgl_to_wglog(&xmlgl.rules[0]).unwrap();
    let db = Instance::from_document(&doc);
    let out = gql::wglog::eval::run(&ported, &db).unwrap();
    let goal = ported.goal.as_deref().unwrap();
    let list = out.objects_of_type(goal).next().unwrap();
    assert_eq!(out.out_edges(list).count(), direct_count);
    assert_eq!(direct_count, 2);

    // WG-Log → XML-GL the other way. (The translator renders attribute
    // constraints as atomic-child patterns — the loader's dominant fold —
    // so the constrained attribute must be element-backed in the document.)
    let wglog = gql::wglog::dsl::parse(
        r#"rule { query { $r: restaurant where name = "Paris" }
                  construct { $l: answer $l -member-> $r } } goal answer"#,
    )
    .unwrap();
    let back = translate::wglog_to_xmlgl(&wglog).unwrap();
    let out = gql::xmlgl::run(&back, &doc).unwrap();
    let root = out.root_element().unwrap();
    assert_eq!(out.child_elements(root).count(), 1); // Paris
}

/// A rule body wider than a machine word of placed-root bits — outside
/// input, one frame — plans, explains and runs: 40 unjoined roots with one
/// candidate each bind once, and every step of the spine is estimated.
#[test]
fn a_forty_root_rule_plans_and_runs_through_the_engine() {
    let doc = Document::parse_str("<r><a>only</a></r>").unwrap();
    let roots: String = (0..40).map(|i| format!("a as $x{i} ")).collect();
    let program = gql::xmlgl::dsl::parse(&format!(
        "rule {{ extract {{ {roots} }} construct {{ answer {{ all $x39 }} }} }}"
    ))
    .unwrap();
    let out = Engine::new().run(&QueryKind::XmlGl(program), &doc).unwrap();
    assert_eq!(
        out.output.to_xml_string(),
        "<answer><a>only</a></answer>",
        "{}",
        out.plan
    );
    assert_eq!(out.plan.matches("HashJoin on cross (est 1)").count(), 39);
}

#[test]
fn dsl_printers_roundtrip_the_suite() {
    // Every canonical suite formulation survives print → parse.
    for q in gql_bench_suite_queries() {
        if let Some(src) = q.0 {
            let p1 = gql::xmlgl::dsl::parse(src).unwrap();
            let p2 = gql::xmlgl::dsl::parse(&gql::xmlgl::dsl::print(&p1)).unwrap();
            assert_eq!(p1, p2);
        }
        if let Some(src) = q.1 {
            let p1 = gql::wglog::dsl::parse(src).unwrap();
            let p2 = gql::wglog::dsl::parse(&gql::wglog::dsl::print(&p1)).unwrap();
            assert_eq!(p1, p2);
        }
    }
}

/// The suite sources, duplicated minimally here (the bench crate is not a
/// dependency of the facade); selection + join + recursion cover the DSL
/// surface.
fn gql_bench_suite_queries() -> Vec<(Option<&'static str>, Option<&'static str>)> {
    vec![
        (
            Some("rule { extract { restaurant as $r } construct { answer { all $r } } }"),
            Some("rule { query { $r: restaurant } construct { $l: answer $l -member-> $r } } goal answer"),
        ),
        (
            Some(
                r#"rule { extract { menu as $m { price { text < "15" or > "50" } } }
                          construct { answer { all $m } } }"#,
            ),
            None,
        ),
        (
            Some(
                r#"rule { extract {
                        product as $p { vendor { text as $v1 } }
                        vendor as $w { name { text as $v2 } }
                        join $v1 == $v2 }
                      construct { answer { all $p group by $v1 as seller } } }"#,
            ),
            Some(
                r#"rule { query { $a: doc  $b: doc  $a -(link|index)+-> $b  not $a -cites-> $b }
                          construct { $r: related per $a set src = $a.id  $r -to-> $b } } goal related"#,
            ),
        ),
    ]
}

#[test]
fn diagrams_render_for_both_languages() {
    let xmlgl = gql::xmlgl::dsl::parse(
        r#"rule { extract { a as $a { @k as $v > "1" not b deep c as $c } }
                  construct { out { all $c count($a) } } }"#,
    )
    .unwrap();
    let svg = gql::xmlgl::diagram::rule_to_svg(&xmlgl.rules[0]);
    assert!(svg.starts_with("<svg") && svg.contains("count"));

    let wglog = gql::wglog::dsl::parse(
        r#"rule { query { $a: doc  $b: doc  $a -(link)+-> $b }
                  construct { $r: reachable  $r -member-> $b } } goal reachable"#,
    )
    .unwrap();
    let svg = gql::wglog::diagram::rule_to_svg(&wglog.rules[0]);
    assert!(svg.starts_with("<svg") && svg.contains("(link)+"));
}

#[test]
fn schema_checks_span_both_formalisms() {
    let doc = Document::parse_str(CITY).unwrap();
    // WG-Log: extracted schema validates the instance and its own queries.
    let db = Instance::from_document(&doc);
    let schema = gql::wglog::schema::WgSchema::extract(&db);
    assert!(schema.validate(&db).is_empty());
    // XML-GL: a DTD for the guide, converted to a graphical schema, accepts
    // the document with shuffled content.
    let dtd = gql::ssdm::dtd::Dtd::parse(
        "<!ELEMENT guide (restaurant*)>\
         <!ELEMENT restaurant (name,address,menu*)>\
         <!ATTLIST restaurant id CDATA #REQUIRED category CDATA #IMPLIED>\
         <!ELEMENT name (#PCDATA)>\
         <!ELEMENT address (city)>\
         <!ELEMENT city (#PCDATA)>\
         <!ELEMENT menu (name,price,dish*)>\
         <!ELEMENT price (#PCDATA)>\
         <!ELEMENT dish (#PCDATA)>",
    )
    .unwrap();
    assert!(dtd.validate(&doc).is_empty());
    let gl = gql::xmlgl::schema::GlSchema::from_dtd(&dtd);
    assert!(gl.validate(&doc).is_empty());
}

/// What `xml::MAX_DEPTH` was chosen by: a document nested exactly that deep
/// goes through every layer that recurses once per level — index, summary,
/// WG-Log load — and through the three engines copying the whole chain into
/// their answers, on a thread with the 2 MiB stack that `gql-serve`'s
/// connection and worker threads get.
///
/// The bound guards parsed input only; a document built through the API can
/// nest as deep as memory lets it. Nothing on the way from such a document
/// to an answer's bytes recurses, so one forty times past the bound goes
/// through both serialisers, `text_content`, `import_subtree`, both sinks'
/// `subtree`, the WG-Log instance load and its own drop on the same stack —
/// and two of them side by side through a box join and a box `group by`,
/// whose deep equality is a loop too.
#[test]
fn a_document_at_the_nesting_bound_fits_a_2_mib_stack_in_every_layer() {
    use gql::ssdm::sink::{DocSink, Sink, XmlSink};

    let through_every_layer = || {
        let depth = gql::ssdm::xml::MAX_DEPTH;
        let xml = format!(
            "{}<leaf id=\"x\">deep</leaf>{}",
            "<n>".repeat(depth - 1),
            "</n>".repeat(depth - 1)
        );
        let doc = Document::parse_str(&xml).expect("a document at the bound parses");
        let mut engine = Engine::new();
        // Index, summary and WG-Log instance, as a catalog reload builds them.
        engine.preload(&doc);
        let xmlgl = gql::xmlgl::dsl::parse(
            "rule { extract { n as $n { deep leaf as $l } } construct { answer { all $n } } }",
        )
        .unwrap();
        let wglog = gql::wglog::dsl::parse(
            "rule { query { $n: n } construct { $l: answer $l -member-> $n } } goal answer",
        )
        .unwrap();
        for query in [
            QueryKind::XmlGl(xmlgl),
            QueryKind::WgLog(wglog),
            QueryKind::XPath("//n[.//leaf = 'deep']".into()),
        ] {
            let outcome = engine.run(&query, &doc).expect("runs");
            assert!(outcome.result_count >= 1, "{query:?}");
            assert!(outcome.output.to_xml_string().contains("deep"), "{query:?}");
        }
        assert_eq!(doc.to_xml_string(), xml);
        let pretty = doc.to_xml_pretty();
        assert_eq!(Document::parse_str(&pretty).unwrap().to_xml_string(), xml);
        assert_eq!(doc.text_content(doc.root()), "deep");

        // Built, not parsed: `<n><n>…<n>deep</n>.</n>.</n>`. The text beside
        // each nested element keeps the pretty form from indenting (forty
        // thousand levels of it would be gigabytes) and gives `text_content`
        // a sibling to come back to at every level.
        let depth = 40 * depth;
        let mut built = Document::new();
        let mut at = built.root();
        for _ in 0..depth {
            let inner = built.add_element(at, "n");
            if at != built.root() {
                built.add_text(at, ".");
            }
            at = inner;
        }
        built.add_text(at, "deep");
        let top = built.root_element().unwrap();
        let xml = built.to_xml_string();
        assert_eq!(xml.len(), depth * "<n></n>.".len() + "deep".len() - 1);
        assert_eq!(built.to_xml_pretty(), format!("{xml}\n"));
        assert_eq!(built.text_content(top).len(), depth + 3);
        let mut copy = Document::new();
        let root = copy.import_subtree(&built, top);
        copy.append_child(copy.root(), root).unwrap();
        assert_eq!(copy.node_count(), built.node_count());
        let mut answer = Document::new();
        let mut builder = DocSink::new(&mut answer);
        builder.subtree(&built, top);
        assert_eq!(builder.nodes(), 2 * depth as u64);
        let mut written = String::new();
        let mut writer = XmlSink::new(&mut written);
        writer.subtree(&built, top);
        assert_eq!(writer.nodes(), 2 * depth as u64);
        assert!(written == xml && copy.to_xml_string() == xml && answer.to_xml_string() == xml);
        // The serialized image is written by the same walk, and a copy
        // through it, of the whole chain or of its lower half, is the
        // walked copy.
        let walked = built.clone();
        built.build_image();
        let mut mid = top;
        for _ in 0..depth / 2 {
            mid = built.children(mid)[0];
        }
        for node in [top, mid] {
            let mut imaged = String::new();
            let mut writer = XmlSink::new(&mut imaged);
            writer.subtree(&built, node);
            let nodes = writer.nodes();
            let mut written = String::new();
            let mut writer = XmlSink::new(&mut written);
            writer.subtree(&walked, node);
            assert_eq!(nodes, writer.nodes());
            assert!(imaged == written);
        }
        // Every `n` but the innermost, whose text makes it an attribute of
        // its parent, is an object; every one but the outermost an edge's
        // target.
        let db = Instance::from_document(&built);
        assert_eq!((db.object_count(), db.edge_count()), (depth - 1, depth - 2));
        drop((built, walked, copy, answer, db));

        // `<r><p>chain</p><q>chain</q></r>`, the same chain twice.
        let mut twins = Document::new();
        let r = twins.add_element(twins.root(), "r");
        for side in ["p", "q"] {
            let mut at = twins.add_element(r, side);
            for _ in 0..depth {
                let inner = twins.add_element(at, "n");
                twins.add_text(at, ".");
                at = inner;
            }
            twins.add_text(at, "deep");
        }
        let join = gql::xmlgl::dsl::parse(
            "rule { extract { p { n as $a }  q { n as $b }  join $a == $b } \
                    construct { out { count($b) } } }",
        )
        .unwrap();
        let group = gql::xmlgl::dsl::parse(
            "rule { extract { r { * { n as $a } } } \
                    construct { out { all $a group by $a as g } } }",
        )
        .unwrap();
        for (program, expect, groups) in [(&join, "<out>1</out>", 0), (&group, "<out><g key=", 1)] {
            let indexed = gql::xmlgl::run(program, &twins).expect("runs indexed");
            let answer = indexed.to_xml_string();
            assert!(
                answer.starts_with(expect),
                "{}",
                &answer[..answer.len().min(80)]
            );
            assert_eq!(answer.matches("<g ").count(), groups);
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(through_every_layer)
        .expect("spawns")
        .join()
        .expect("no layer overflows the stack at the bound");
}

/// What `xml::MAX_QUERY_DEPTH` was chosen by: each nesting surface's
/// deepest accepted query, in every shape its parser counts, goes through
/// the analyzer (with a summary, so inference runs), the planner, EXPLAIN in
/// both renderings, an engine run, the DSL printer, the translator and
/// `Drop`, on a thread with the 2 MiB stack that `gql-serve`'s connection
/// threads get. WG-Log's grammar does not nest, so it has no bound to test.
#[test]
fn a_query_at_the_nesting_bound_fits_a_2_mib_stack_in_every_stage() {
    let through_every_stage = || {
        let m = gql::ssdm::xml::MAX_QUERY_DEPTH;
        // A chain of `a`s as deep as the bound, so that every level matches.
        let doc = Document::parse_str(&format!("<r>{}x{}</r>", "<a>".repeat(m), "</a>".repeat(m)))
            .unwrap();
        let analyzer = gql::analyze::Analyzer::new().with_summary(gql::ssdm::Summary::build(&doc));
        let engine = Engine::new();
        let run = |query: QueryKind| {
            let outcome = engine.run_profiled(&query, &doc).expect("runs");
            assert!(!outcome.plan.is_empty());
            assert!(outcome.profile.is_some());
            outcome.output.to_xml_string()
        };
        let chain = |n: usize, item: &str, sep: &str| vec![item; n].join(sep);
        let xpaths = [
            format!("{}//a{}", "(".repeat(m), ")".repeat(m)),
            format!("//{}a{}", "a[".repeat(m - 2), "]".repeat(m - 2)),
            format!("{}1", "-".repeat(m - 1)),
            chain(m, "1", " + "),
            chain(m / 2, "//a", " | "),
            format!("/r/{}", chain(m - 1, "a", "/")),
            format!("{}1{}", "boolean(".repeat(m - 1), ")".repeat(m - 1)),
        ];
        for text in xpaths {
            gql::xpath::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            let report = analyzer.analyze_xpath_src(&text);
            assert!(!report.has_errors(), "{text}: {report:?}");
            let answer = run(QueryKind::XPath(text.clone()));
            assert!(!answer.is_empty(), "{text}");
        }
        let rules = [
            format!(
                "rule {{ extract {{ r {{ {} a as $a {} }} }} construct {{ out {{ all $a }} }} }}",
                "a { ".repeat(m - 2),
                "} ".repeat(m - 2)
            ),
            format!(
                "rule {{ extract {{ a as $a }} construct {{ {} all $a {} }} }}",
                "o { ".repeat(m - 1),
                "} ".repeat(m - 1)
            ),
        ];
        for text in rules {
            let report = analyzer.analyze_xmlgl_src(&text);
            assert!(!report.has_errors(), "{report:?}");
            let program = gql::xmlgl::dsl::parse(&text).expect("accepted");
            assert_eq!(
                gql::xmlgl::dsl::print(&program).matches('{').count(),
                text.matches('{').count()
            );
            let _ = translate::xmlgl_to_wglog(&program.rules[0]);
            let answer = run(QueryKind::XmlGl(program));
            assert!(
                answer.contains("<a>"),
                "{}",
                &answer[..answer.len().min(80)]
            );
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(through_every_stage)
        .expect("spawns")
        .join()
        .expect("no stage overflows the stack at the bound");
}

/// What `xml::MAX_QUERY_WIDTH` was chosen by: a root box with as many
/// child boxes as the bound, and an extract part with as many roots, go
/// through the analyzer, the planner, EXPLAIN in both renderings, an engine
/// run, the DSL printer, the translator and `Drop` on the 2 MiB stack that
/// `gql-serve`'s connection threads get. A root box a frame wide (50,000
/// children, 100 KB of text, which overflowed that stack) and a thousand
/// child boxes over two candidates each (which overflowed a row count) are
/// refused by name; at the bound, a child box per bit of a row count
/// trips a budget of matches.
#[test]
fn a_query_at_the_width_bound_fits_a_2_mib_stack_and_a_wider_one_is_refused() {
    use gql::core::CoreError;
    use gql::guard::{Budget, Guard, LimitKind, RunCtx};
    let through_every_stage = || {
        let w = gql::ssdm::xml::MAX_QUERY_WIDTH;
        let children = |n: usize| {
            format!(
                "rule {{ extract {{ r {{ {}a as $a }} }} construct {{ out {{ all $a }} }} }}",
                "a ".repeat(n - 1)
            )
        };
        let roots = |n: usize| {
            format!(
                "rule {{ extract {{ {}a as $a }} construct {{ out {{ all $a }} }} }}",
                "a ".repeat(n - 1)
            )
        };
        let refusal = format!("more than {w} ");
        for text in [children(50_000), children(1_000), roots(50_000)] {
            let err = gql::xmlgl::dsl::parse(&text).unwrap_err().to_string();
            assert!(
                err.contains(&refusal) && err.contains("(xml::MAX_QUERY_WIDTH)"),
                "{err}"
            );
        }
        // One `a`, so that every row of either rule at the bound is one row.
        let one = Document::parse_str("<r><a/></r>").unwrap();
        let analyzer = gql::analyze::Analyzer::new().with_summary(gql::ssdm::Summary::build(&one));
        let engine = Engine::new();
        for text in [children(w), roots(w)] {
            let report = analyzer.analyze_xmlgl_src(&text);
            assert!(!report.has_errors(), "{report:?}");
            let program = gql::xmlgl::dsl::parse(&text).expect("accepted");
            let printed = gql::xmlgl::dsl::print(&program);
            let reparsed = gql::xmlgl::dsl::parse(&printed).expect("the printed rule parses");
            let boxes = |p: &gql::xmlgl::ast::Program| p.rules[0].extract.nodes.len();
            assert_eq!(boxes(&reparsed), boxes(&program));
            let _ = translate::xmlgl_to_wglog(&program.rules[0]);
            let outcome = engine
                .run_profiled(&QueryKind::XmlGl(program), &one)
                .expect("runs");
            let links = ["PathStep", "HashJoin"].map(|op| outcome.plan.matches(op).count());
            assert!(links[0] + links[1] >= w - 1, "{}", outcome.plan);
            assert_eq!(outcome.output.to_xml_string(), "<out><a/></out>");
        }
        // Two `a`s: the rule at the bound asks for 2^64 rows.
        let two = Document::parse_str("<r><a/><a/></r>").unwrap();
        let wide = QueryKind::XmlGl(gql::xmlgl::dsl::parse(&children(w)).unwrap());
        let guard = Guard::new(Budget::unlimited().with_max_matches(1_000_000));
        match engine.execute(&wide, &two, RunCtx::guarded(&guard)) {
            Err(CoreError::Budget(e)) => assert_eq!(e.kind, LimitKind::Matches),
            other => panic!(
                "2^64 rows under a budget: {:?}",
                other.map(|o| o.result_count)
            ),
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(through_every_stage)
        .expect("spawns")
        .join()
        .expect("no stage overflows the stack at the width bound");
}

/// A preloaded engine never answers from structures built for an earlier
/// state of the document: a `set_attr` in place on the last restaurant of a
/// 200-restaurant guide leaves the node count and the root level as they
/// were, and the warm WG-Log run must still find the changed object, as a
/// cold engine does.
#[test]
fn a_preloaded_engine_answers_from_a_document_changed_in_place() {
    use gql::ssdm::generator::{cityguide, CityConfig};
    let mut city = cityguide(CityConfig {
        restaurants: 200,
        hotels: 50,
        seed: 11,
    });
    let mut warm = Engine::new();
    warm.preload(&city);
    let query = QueryKind::WgLog(
        gql::wglog::dsl::parse(
            r#"rule { query { $r: restaurant where name = "ZZZ" }
                      construct { $l: answer $l -member-> $r } } goal answer"#,
        )
        .unwrap(),
    );
    assert_eq!(
        warm.run(&query, &city).unwrap().output.to_xml_string(),
        "<answer/>"
    );
    let guide = city.root_element().unwrap();
    let last = city
        .child_elements(guide)
        .filter(|&n| city.name(n) == Some("restaurant"))
        .last();
    city.set_attr(last.unwrap(), "name", "ZZZ").unwrap();
    let cold = Engine::new()
        .run(&query, &city)
        .unwrap()
        .output
        .to_xml_string();
    assert!(cold.contains("<name>ZZZ</name>"), "{cold}");
    assert_eq!(
        warm.run(&query, &city).unwrap().output.to_xml_string(),
        cold
    );
}

/// ID/IDREF values are split and trimmed on XML's four whitespace
/// characters alone: a no-break space is part of a token. Over one document
/// whose `refs` holds two ids joined by U+00A0 and whose `ref` starts with
/// one, every reader of the references finds none — the WG-Log loader and
/// its reference, the summary, and `id()` in the evaluator and in the
/// textbook reference.
#[test]
fn reference_values_split_on_xml_whitespace_alone() {
    let doc = Document::parse_str(
        "<db><p id='p1'/><p id='p2'/><v refs='p1&#160;p2'/><w ref='&#160;p1'/></db>",
    )
    .unwrap();
    let references = ["ref", "refs", "idref", "idrefs"];
    let loaded = Instance::from_document(&doc);
    let edges = loaded.edges().filter(|e| references.contains(&e.label));
    let reference = gql_testkit::reference::loader::load(&doc);
    let reference_edges = (reference.edges.iter()).filter(|e| references.contains(&e.1.as_str()));
    let summary = gql::ssdm::Summary::build(&doc).stats();
    let ids = |xpath: &str| {
        let expr = gql::xpath::parse(xpath).unwrap();
        let count = |v: gql::xpath::XValue| v.into_nodes().unwrap().len();
        let evaluated = count(gql::xpath::evaluate(&doc, &expr).unwrap());
        let textbook = count(gql_testkit::reference::xpath::evaluate(&doc, &expr).unwrap());
        assert_eq!(evaluated, textbook, "{xpath}");
        evaluated
    };
    let counts = [
        edges.count(),
        reference_edges.count(),
        summary.ref_edges,
        ids("id(//v/@refs)"),
        ids("id(//w/@ref)"),
    ];
    assert_eq!(
        counts, [0; 5],
        "loader, reference loader, summary, id() twice"
    );
    assert_eq!(summary.dangling_refs, 2);
}

/// A predicate is asked only at the nodes its path reaches, as the textbook
/// evaluator asks it: one that fails with a type error (`count('x')`)
/// answers the empty set where no node reaches it — along the chain, below
/// an edge, or behind a false `and` — and the error where one does.
#[test]
fn a_failing_predicate_fails_only_where_the_path_reaches_it() {
    for (xml, xpath, fails) in [
        ("<x><r/><a/></x>", "/x/r/a[count('x') > 0]", false),
        ("<x><r/><a/></x>", "//r/a[count('x') > 0]", false),
        ("<x><r/><a/></x>", "/x/r[a[count('x') > 0]]", false),
        ("<x><r/><a/></x>", "/x/r[.//a[count('x') > 0]]", false),
        (
            "<x><a><b/></a></x>",
            "//a[false() and b[count('x') > 0]]",
            false,
        ),
        (
            "<x><a><b/></a></x>",
            "//a[false() and .//b[count('x') > 0]]",
            false,
        ),
        ("<x><r><a/></r></x>", "/x/r/a[count('x') > 0]", true),
        ("<x><r><a/></r></x>", "/x/r[.//a[count('x') > 0]]", true),
    ] {
        let doc = Document::parse_str(xml).unwrap();
        let expr = gql::xpath::parse(xpath).unwrap();
        let evaluated = gql::xpath::evaluate(&doc, &expr);
        let textbook = gql_testkit::reference::xpath::evaluate(&doc, &expr);
        assert_eq!(
            evaluated.is_err(),
            fails,
            "{xpath} over {xml}: {evaluated:?}"
        );
        assert_eq!(textbook.is_err(), fails, "{xpath} over {xml}: {textbook:?}");
        if let (Ok(evaluated), Ok(textbook)) = (evaluated, textbook) {
            assert_eq!(evaluated, textbook, "{xpath} over {xml}");
        }
    }
}
