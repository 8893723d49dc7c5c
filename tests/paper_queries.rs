//! The paper's worked examples, pinned to exact outputs on hand-written
//! documents — the executable versions of figures F1–F5.

use gql::ssdm::Document;
use gql::wglog::instance::Instance;

/// F1 — WG-Log: restaurants offering menus, collected into a rest-list.
#[test]
fn f1_rest_list() {
    let doc = Document::parse_str(
        "<guide>\
           <restaurant id='r1'><name>Roma</name><menu><price>20</price></menu></restaurant>\
           <restaurant id='r2'><name>NoFood</name></restaurant>\
           <restaurant id='r3'><name>Napoli</name><menu><price>12</price></menu>\
             <menu><price>30</price></menu></restaurant>\
         </guide>",
    )
    .unwrap();
    let db = Instance::from_document(&doc);
    let program = gql::wglog::dsl::parse(
        "rule { query { $r: restaurant  $m: menu  $r -menu-> $m }
                construct { $l: rest-list  $l -member-> $r } } goal rest-list",
    )
    .unwrap();
    let out = gql::wglog::eval::run(&program, &db).unwrap();
    // Exactly one collection object.
    let lists: Vec<_> = out.objects_of_type("rest-list").collect();
    assert_eq!(lists.len(), 1);
    // Members: r1 and r3 exactly once each, despite r3's two menus.
    let members: Vec<_> = out.out_edges(lists[0]).collect();
    assert_eq!(members.len(), 2);
    let names: std::collections::HashSet<&str> = members
        .iter()
        .filter_map(|e| out.object(e.to).attr("name"))
        .collect();
    assert_eq!(names, ["Roma", "Napoli"].into_iter().collect());
}

/// F2 — XML-GL: all BOOK elements from the source; with the asterisk the
/// whole subtree is carried, without it only the element shell.
#[test]
fn f2_book_selection_deep_vs_shallow() {
    let doc = Document::parse_str(
        "<bib>\
           <BOOK isbn='1'><title>A</title><price>10</price></BOOK>\
           <BOOK isbn='2'><title>B</title><price>20</price></BOOK>\
         </bib>",
    )
    .unwrap();
    // Deep (the figure's `*`): subelements at all depths.
    let deep =
        gql::xmlgl::dsl::parse("rule { extract { BOOK as $b } construct { result { all $b } } }")
            .unwrap();
    let out = gql::xmlgl::run(&deep, &doc).unwrap();
    assert_eq!(
        out.to_xml_string(),
        "<result>\
           <BOOK isbn=\"1\"><title>A</title><price>10</price></BOOK>\
           <BOOK isbn=\"2\"><title>B</title><price>20</price></BOOK>\
         </result>"
    );
    // Shallow: only the BOOK shells with their attributes.
    let shallow = gql::xmlgl::dsl::parse(
        "rule { extract { BOOK as $b } construct { result { shallow-copy $b } } }",
    )
    .unwrap();
    let out = gql::xmlgl::run(&shallow, &doc).unwrap();
    assert_eq!(
        out.to_xml_string(),
        "<result><BOOK isbn=\"1\"/></result><result><BOOK isbn=\"2\"/></result>"
    );
}

/// F3 — the BOOK DTD and the XML-GL schema disagree exactly on order.
#[test]
fn f3_schema_order_asymmetry() {
    let dtd = gql::ssdm::dtd::Dtd::parse(
        "<!ELEMENT BOOK (title?,price,AUTHOR*)>\
         <!ATTLIST BOOK isbn CDATA #REQUIRED>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ELEMENT AUTHOR (first-name,last-name)>\
         <!ELEMENT first-name (#PCDATA)>\
         <!ELEMENT last-name (#PCDATA)>",
    )
    .unwrap();
    let schema = gql::xmlgl::schema::GlSchema::from_dtd(&dtd);
    let in_order =
        Document::parse_str("<BOOK isbn='1'><title>T</title><price>9</price></BOOK>").unwrap();
    let swapped =
        Document::parse_str("<BOOK isbn='1'><price>9</price><title>T</title></BOOK>").unwrap();
    // Both accept the canonical order.
    assert!(dtd.validate(&in_order).is_empty());
    assert!(schema.validate(&in_order).is_empty());
    // Only the graphical schema accepts the swap.
    assert!(!dtd.validate(&swapped).is_empty());
    assert!(schema.validate(&swapped).is_empty());
    // Both reject a missing price.
    let missing = Document::parse_str("<BOOK isbn='1'><title>T</title></BOOK>").unwrap();
    assert!(!dtd.validate(&missing).is_empty());
    assert!(!schema.validate(&missing).is_empty());
}

/// F4 — XML-GL: aggregate PERSONs with a FULLADDR under a constructed
/// RESULT, projecting only the name parts.
#[test]
fn f4_person_projection() {
    let doc = Document::parse_str(
        "<people>\
           <person id='p1'><firstname>Ada</firstname><lastname>Lovelace</lastname>\
             <fulladdr><street>X</street><city>London</city></fulladdr></person>\
           <person id='p2'><firstname>Alan</firstname><lastname>Turing</lastname></person>\
           <person id='p3'><firstname>Grace</firstname><lastname>Hopper</lastname>\
             <fulladdr><street>Y</street><city>NYC</city></fulladdr></person>\
         </people>",
    )
    .unwrap();
    let program = gql::xmlgl::dsl::parse(
        r#"rule {
             extract {
               person { firstname { text as $f } lastname { text as $l } fulladdr }
             }
             construct {
               RESULT { entry { first { copy $f } last { copy $l } } }
             }
           }"#,
    )
    .unwrap();
    let out = gql::xmlgl::run(&program, &doc).unwrap();
    // One RESULT instance per qualifying person (p1 and p3), Turing
    // excluded — exactly the figure's semantics.
    assert_eq!(
        out.to_xml_string(),
        "<RESULT><entry><first>Ada</first><last>Lovelace</last></entry></RESULT>\
         <RESULT><entry><first>Grace</first><last>Hopper</last></entry></RESULT>"
    );
}

/// F5 — XML-GL: the equi-join drawn as a shared node.
#[test]
fn f5_shared_node_join() {
    let doc = Document::parse_str(
        "<greengrocer>\
           <products>\
             <product><name>cabbage</name><vendor>DeRuiter</vendor></product>\
             <product><name>cherry</name><vendor>Lafayette</vendor></product>\
             <product><name>ghostfruit</name><vendor>Nobody</vendor></product>\
           </products>\
           <vendors>\
             <vendor><country>holland</country><name>DeRuiter</name></vendor>\
             <vendor><country>france</country><name>Lafayette</name></vendor>\
           </vendors>\
         </greengrocer>",
    )
    .unwrap();
    let program = gql::xmlgl::dsl::parse(
        r#"rule {
             extract {
               product as $p { name { text as $n } vendor { text as $v1 } }
               vendors { vendor as $w { country { text = "holland" }
                                        name { text as $v2 } } }
               join $v1 == $v2
             }
             construct { dutch-products { all $p } }
           }"#,
    )
    .unwrap();
    let out = gql::xmlgl::run(&program, &doc).unwrap();
    let root = out.root_element().unwrap();
    let products: Vec<String> = out
        .child_elements(root)
        .map(|p| gql::ssdm::path::select_text(&out, p, "name").unwrap())
        .collect();
    assert_eq!(products, vec!["cabbage"]);
}

/// Q10 — the expressiveness gap: transitive closure in WG-Log, rejected by
/// the XML-GL translator.
#[test]
fn q10_recursion_gap() {
    let doc = Document::parse_str(
        "<web>\
           <doc id='a'><link ref='b'/></doc>\
           <doc id='b'><link ref='c'/></doc>\
           <doc id='c'/>\
           <doc id='z'/>\
         </web>",
    )
    .unwrap();
    let db = Instance::from_document(&doc);
    let program = gql::wglog::dsl::parse(
        r#"
        rule {
          query { $a: doc  $l: link  $b: doc
                  $a -link-> $l  $l -ref-> $b }
          construct { $a -reaches-> $b }
        }
        rule {
          query { $a: doc  $b: doc  $c: doc
                  $a -reaches-> $b  $b -reaches-> $c }
          construct { $a -reaches-> $c }
        }
        goal doc
        "#,
    )
    .unwrap();
    let out = gql::wglog::eval::run(&program, &db).unwrap();
    let reaches: Vec<(String, String)> = out
        .edges()
        .filter(|e| e.label == "reaches")
        .map(|e| {
            (
                out.object(e.from).attr("id").unwrap_or("?").to_string(),
                out.object(e.to).attr("id").unwrap_or("?").to_string(),
            )
        })
        .collect();
    let set: std::collections::HashSet<(String, String)> = reaches.into_iter().collect();
    let expect: std::collections::HashSet<(String, String)> = [("a", "b"), ("b", "c"), ("a", "c")]
        .into_iter()
        .map(|(x, y)| (x.to_string(), y.to_string()))
        .collect();
    assert_eq!(set, expect);

    // And the gap itself: the program does not port to XML-GL.
    let err = gql::core::translate::wglog_to_xmlgl(&program).unwrap_err();
    assert!(matches!(err, gql::core::CoreError::Untranslatable { .. }));
}

/// The survey chapter's Xcerpt-complex query (Dutch vendors OR names
/// starting with "Van"): XML-GL expresses the cross-structure disjunction
/// as a *union of rules* — one rule per disjunct, outputs concatenated.
#[test]
fn xcerpt_complex_as_rule_union() {
    let doc = Document::parse_str(
        "<greengrocer>\
           <products>\
             <product><name>cabbage</name><vendor>DeRuiter</vendor></product>\
             <product><name>leek</name><vendor>VanDam</vendor></product>\
             <product><name>cherry</name><vendor>Lafayette</vendor></product>\
           </products>\
           <vendors>\
             <vendor><country>holland</country><name>DeRuiter</name></vendor>\
             <vendor><country>belgium</country><name>VanDam</name></vendor>\
             <vendor><country>france</country><name>Lafayette</name></vendor>\
           </vendors>\
         </greengrocer>",
    )
    .unwrap();
    let program = gql::xmlgl::dsl::parse(
        r#"
        # disjunct 1: products of vendors from holland (value join)
        rule {
          extract {
            product as $p1 { vendor { text as $v1 } }
            vendors { vendor { country { text = "holland" } name { text as $n1 } } }
            join $v1 == $n1
          }
          construct { hits { all $p1 } }
        }
        # disjunct 2: products whose vendor name starts with Van
        rule {
          extract {
            product as $p2 { vendor { text starts-with "Van" } }
          }
          construct { hits { all $p2 } }
        }
        "#,
    )
    .unwrap();
    let out = gql::xmlgl::run(&program, &doc).unwrap();
    // Two <hits> sections (one per rule) whose union covers cabbage + leek.
    let names: Vec<String> = out
        .children(out.root())
        .iter()
        .flat_map(|&hits| out.child_elements(hits).collect::<Vec<_>>())
        .map(|p| gql::ssdm::path::select_text(&out, p, "name").unwrap())
        .collect();
    assert_eq!(names, vec!["cabbage", "leek"]);
}

/// The GraphLog root-link figure: a document gets a `root` link if it has
/// no index link — negation with an existential target.
#[test]
fn graphlog_root_link_figure() {
    let doc = Document::parse_str(
        "<web>\
           <doc id='indexed'><index ref='hub'/></doc>\
           <doc id='orphan'/>\
           <doc id='hub'/>\
         </web>",
    )
    .unwrap();
    let db = Instance::from_document(&doc);
    let program = gql::wglog::dsl::parse(
        r#"rule {
             query { $d: doc  $i: index  not $d -index-> $i }
             construct { $roots: root-list  $roots -root-> $d }
           }
           goal root-list"#,
    )
    .unwrap();
    let out = gql::wglog::eval::run(&program, &db).unwrap();
    let list = out.objects_of_type("root-list").next().unwrap();
    let rooted: std::collections::HashSet<&str> = out
        .out_edges(list)
        .filter_map(|e| out.object(e.to).attr("id"))
        .collect();
    // 'indexed' has an index link; orphan and hub do not.
    assert_eq!(rooted, ["orphan", "hub"].into_iter().collect());
}
