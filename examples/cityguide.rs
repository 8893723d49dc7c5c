//! The WG-Log worked examples of the paper over the city-guide dataset:
//! figure F1 ("restaurants offering menus, collected into a rest-list"),
//! schema extraction and static rule checking, recursion (reachability
//! through near-references — the query XML-GL cannot express), and a
//! GraphLog-style regular path.
//!
//! ```sh
//! cargo run --example cityguide
//! ```

use gql::ssdm::generator::{cityguide, CityConfig};
use gql::wglog::eval::{self, FixpointMode};
use gql::wglog::instance::Instance;
use gql::wglog::schema::WgSchema;
use gql::wglog::{diagram, dsl};

fn main() {
    let doc = cityguide(CityConfig {
        restaurants: 25,
        hotels: 8,
        seed: 11,
    });
    let db = Instance::from_document(&doc);
    println!(
        "city-guide instance: {} objects, {} edges, types: {:?}\n",
        db.object_count(),
        db.edge_count(),
        db.type_names()
    );

    // The schema WG-Log assumes is extracted from the data here (the paper
    // assumes it given).
    let schema = WgSchema::extract(&db);
    println!(
        "extracted schema: {} types, {} relations",
        schema.type_count(),
        schema.relation_count()
    );
    for (label, to, mult) in schema.relations_from("restaurant") {
        println!("  restaurant -{label}-> {to} ({mult:?})");
    }
    println!();

    // F1 — restaurants offering menus → one rest-list.
    let f1 = dsl::parse(
        r#"
        rule {
          query {
            $r: restaurant
            $m: menu
            $r -menu-> $m
          }
          construct {
            $l: rest-list
            $l -member-> $r
          }
        }
        goal rest-list
        "#,
    )
    .expect("F1 parses");
    println!("── F1: the rule graph ──\n");
    println!("{}", diagram::rule_to_ascii(&f1.rules[0]));

    // Static check against the schema (the editor affordance the paper
    // emphasises for WG-Log).
    let complaints = schema.check_rule(&f1.rules[0]);
    println!(
        "schema check: {} complaint(s) {complaints:?}",
        complaints.len()
    );

    let answer = eval::answer(&f1, &db).expect("F1 runs");
    let root = answer.root_element().expect("answer root");
    let list = answer.child_elements(root).next().expect("one rest-list");
    println!(
        "F1 answer: one rest-list with {} member restaurants\n",
        answer.child_elements(list).count()
    );

    // Recursion — reachability over `near` references between restaurants
    // and hotels: which restaurants can reach which others through shared
    // hotels? (near edges point restaurant→near→ref→hotel.)
    let reach = dsl::parse(
        r#"
        # hotels shared by two restaurants induce a 'colocated' edge;
        # colocated closure = same neighbourhood.
        rule {
          query {
            $a: restaurant  $b: restaurant  $h: hotel
            $na: near  $nb: near
            $a -near-> $na   $na -ref-> $h
            $b -near-> $nb   $nb -ref-> $h
          }
          construct { $a -colocated-> $b }
        }
        rule {
          query { $a: restaurant  $b: restaurant  $c: restaurant
                  $a -colocated-> $b  $b -colocated-> $c }
          construct { $a -colocated-> $c }
        }
        goal restaurant
        "#,
    )
    .expect("closure program parses");
    let (extended, stats) =
        eval::run_with(&reach, &db, FixpointMode::SemiNaive).expect("closure runs");
    let colocated = extended.edges().filter(|e| e.label == "colocated").count();
    println!(
        "recursion: {} colocated edges derived in {} fixpoint iteration(s) \
         ({} embeddings examined)",
        colocated, stats.iterations, stats.embeddings_found
    );

    // The same program in naive mode, for the ablation flavour.
    let (_, naive) = eval::run_with(&reach, &db, FixpointMode::Naive).expect("closure runs");
    println!(
        "  naive mode: {} embeddings examined ({}x the semi-naive work)\n",
        naive.embeddings_found,
        if stats.embeddings_found > 0 {
            naive.embeddings_found / stats.embeddings_found.max(1)
        } else {
            0
        }
    );

    // A GraphLog-style regular path: restaurants within `colocated+` of the
    // first restaurant.
    let path = dsl::parse(
        r#"
        rule {
          query { $a: restaurant
                  $b: restaurant
                  $a -(colocated)+-> $b }
          construct { $n: neighbourhood  $n -member-> $b }
        }
        goal neighbourhood
        "#,
    )
    .expect("path program parses");
    let result = eval::run(&path, &extended).expect("path runs");
    let hoods: Vec<_> = result.objects_of_type("neighbourhood").collect();
    let members = hoods
        .first()
        .map(|&h| result.out_edges(h).count())
        .unwrap_or(0);
    println!("regular path: {members} restaurant(s) are in somebody's (colocated)+ closure");
}
