//! Quickstart: parse a document, write a graphical query in the GQL DSL,
//! run it, and look at the diagram the DSL denotes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gql::ssdm::Document;
use gql::xmlgl::{diagram, dsl, eval};

fn main() {
    // A small semi-structured document.
    let doc = Document::parse_str(
        "<bib>\
           <book year='1994' isbn='0-201-63346-9'>\
             <title>TCP/IP Illustrated</title><price>65.95</price>\
             <author><last>Stevens</last></author>\
           </book>\
           <book year='2000' isbn='1-55860-622-X'>\
             <title>Data on the Web</title><price>39.95</price>\
             <author><last>Abiteboul</last></author>\
             <author><last>Buneman</last></author>\
             <author><last>Suciu</last></author>\
           </book>\
         </bib>",
    )
    .expect("well-formed document");

    // An XML-GL rule: the extract graph selects recent books and binds
    // their titles; the construct graph collects them and counts them.
    let program = dsl::parse(
        r#"
        rule {
          extract {
            book as $b {
              @year as $y >= "1999"
              title { text as $t }
            }
          }
          construct {
            result {
              @after = "1999"
              all $b
              book-count { count($b) }
            }
          }
        }
        "#,
    )
    .expect("well-formed query");

    println!("== the rule as a diagram ==\n");
    println!("{}", diagram::rule_to_ascii(&program.rules[0]));

    let result = eval::run(&program, &doc).expect("query runs");
    println!("== result ==\n\n{}", result.to_xml_pretty());

    // The same thing, seen as bindings.
    let bindings = eval::match_rule(&program.rules[0], &doc);
    println!("== bindings: {} embedding(s) ==", bindings.len());
    let g = &program.rules[0].extract;
    for (i, b) in bindings.iter().enumerate() {
        let t = g.by_var("t").expect("bound variable");
        if let Some(cell) = b.get(t) {
            println!("  #{i}: $t = {:?}", eval::cell_text(&doc, g, t, cell));
        }
    }
}
