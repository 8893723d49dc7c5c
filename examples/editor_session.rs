//! Simulating the interactive editors: building queries gesture by gesture,
//! with schema-derived suggestions, refused gestures and undo — the
//! substitution this reproduction makes for the paper's GUI (see DESIGN.md).
//!
//! ```sh
//! cargo run --example editor_session
//! ```

use gql::ssdm::dtd::Dtd;
use gql::wglog::editor as wged;
use gql::wglog::instance::Instance;
use gql::wglog::schema::WgSchema;
use gql::xmlgl::editor as xged;
use gql::xmlgl::schema::GlSchema;

fn main() {
    xmlgl_session();
    println!();
    wglog_session();
}

fn xmlgl_session() {
    println!("── XML-GL editing session (schema-guided) ──\n");
    let dtd = Dtd::parse(
        "<!ELEMENT BOOK (title?,price,AUTHOR*)>\
         <!ATTLIST BOOK isbn CDATA #REQUIRED>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ELEMENT AUTHOR (first-name,last-name)>\
         <!ELEMENT first-name (#PCDATA)>\
         <!ELEMENT last-name (#PCDATA)>",
    )
    .expect("BOOK DTD parses");
    let mut ed = xged::Editor::new().with_schema(GlSchema::from_dtd(&dtd));

    // Drop the BOOK box.
    let book = ed
        .apply(xged::EditOp::AddElement {
            parent: None,
            name: "BOOK".into(),
            deep: false,
            negated: false,
        })
        .expect("BOOK is declared")
        .query();
    println!("dropped [BOOK]; the palette offers:");
    for (name, kind) in ed.suggest_children(book) {
        println!("   · {name:<12} {kind}");
    }

    // An illegal gesture is refused, canvas untouched.
    let refused = ed.apply(xged::EditOp::AddElement {
        parent: Some(book),
        name: "chapter".into(),
        deep: false,
        negated: false,
    });
    println!("\ndropping <chapter> into BOOK → {}", refused.unwrap_err());

    // Legal gestures.
    ed.apply(xged::EditOp::BindVar {
        node: book,
        var: "b".into(),
    })
    .expect("bind");
    let price = ed
        .apply(xged::EditOp::AddElement {
            parent: Some(book),
            name: "price".into(),
            deep: false,
            negated: false,
        })
        .expect("price allowed")
        .query();
    let ptext = ed
        .apply(xged::EditOp::AddText { parent: price })
        .expect("text circle")
        .query();
    ed.apply(xged::EditOp::AddPredicate {
        node: ptext,
        op: gql::xmlgl::ast::CmpOp::Lt,
        value: "30".into(),
    })
    .expect("predicate");
    let out = ed
        .apply(xged::EditOp::AddConstructElement {
            parent: None,
            name: "cheap".into(),
        })
        .expect("construct root")
        .construct();
    ed.apply(xged::EditOp::AddAll {
        parent: out,
        source: book,
    })
    .expect("triangle");

    let rule = ed.finish().expect("diagram is well-formed");
    println!(
        "\nfinished diagram:\n{}",
        gql::xmlgl::diagram::rule_to_ascii(&rule)
    );
    println!(
        "as DSL:\n{}",
        gql::xmlgl::dsl::print(&gql::xmlgl::ast::Program::single(rule))
    );
}

fn wglog_session() {
    println!("── WG-Log editing session (schema extracted from data) ──\n");
    let doc = gql::ssdm::generator::cityguide(gql::ssdm::generator::CityConfig {
        restaurants: 10,
        hotels: 3,
        seed: 4,
    });
    let db = Instance::from_document(&doc);
    let schema = WgSchema::extract(&db);
    let mut ed = wged::Editor::new().with_schema(schema);

    ed.apply(wged::EditOp::AddQueryNode {
        var: "r".into(),
        ty: "restaurant".into(),
    })
    .expect("declared type");
    println!("dropped $r: restaurant; declared relations:");
    for (label, to) in ed.suggest_relations("r") {
        println!("   · -{label}-> {to}");
    }

    let refused = ed.apply(wged::EditOp::AddQueryNode {
        var: "x".into(),
        ty: "spaceship".into(),
    });
    println!("\ndropping $x: spaceship → {}", refused.unwrap_err());

    ed.apply(wged::EditOp::AddQueryNode {
        var: "m".into(),
        ty: "menu".into(),
    })
    .expect("menu");
    ed.apply(wged::EditOp::AddQueryEdge {
        from: "r".into(),
        label: "menu".into(),
        to: "m".into(),
    })
    .expect("declared relation");
    ed.apply(wged::EditOp::AddConstructNode {
        var: "l".into(),
        ty: "rest-list".into(),
    })
    .expect("construct node");
    ed.apply(wged::EditOp::AddConstructEdge {
        from: "l".into(),
        label: "member".into(),
        to: "r".into(),
    })
    .expect("thick edge");

    let rule = ed.finish().expect("rule is well-formed");
    println!(
        "\nfinished rule graph:\n{}",
        gql::wglog::diagram::rule_to_ascii(&rule)
    );
    let program = gql::wglog::rule::Program {
        rules: vec![rule],
        goal: Some("rest-list".into()),
    };
    let result = gql::wglog::eval::run(&program, &db).expect("rule runs");
    let lists: Vec<_> = result.objects_of_type("rest-list").collect();
    println!(
        "run on city-guide(10): one rest-list with {} members",
        result.out_edges(lists[0]).count()
    );
}
