//! `gql-prof --json` end to end, on the two example queries CI used to pipe
//! through a schema checker: the binary loads the query file, generates the
//! dataset, runs it profiled and prints one JSON profile rooted at `run`.
//! The profile's schema and the spans each engine must report are walked in
//! the root package's `tests/profile.rs`, which has a JSON parser to hand.

use std::path::Path;
use std::process::Command;

#[test]
fn json_profile_of_the_example_queries_exits_zero_and_opens_with_the_run_span() {
    for (query, dataset) in [
        ("examples/queries/f1_rest_list.wgl", "cityguide"),
        ("examples/queries/f2_book_selection.gql", "bibliography"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gql-prof"))
            .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
            .args(["--query", query, "--dataset", dataset, "--json"])
            .output()
            .expect("spawn gql-prof");
        assert!(out.status.success(), "{query}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 profile");
        assert!(
            stdout.starts_with("{\"spans\":[{\"name\":\"run\""),
            "{query}: {stdout}"
        );
        assert!(stdout.ends_with("]}\n"), "{query}: {stdout}");
    }
}
