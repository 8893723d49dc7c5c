//! CLI failure-mode contract: `gql-serve stat` against an unreachable
//! server must fail *fast* with a clear diagnostic and a nonzero exit —
//! never hang, never exit 0 with garbage.

#![cfg(not(miri))]

use std::process::Command;
use std::time::{Duration, Instant};

/// Port 1 is reserved (tcpmux) and nothing in CI listens on it: connects
/// are refused immediately, which is exactly the failure mode under test.
const DEAD_ADDR: &str = "127.0.0.1:1";

#[test]
fn stat_against_unreachable_server_fails_fast_with_a_clear_message() {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_gql-serve"))
        .args(["stat", "--addr", DEAD_ADDR])
        .output()
        .expect("spawn gql-serve");
    let elapsed = start.elapsed();
    assert!(
        !out.status.success(),
        "stat exited 0 against a dead address"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot connect") && stderr.contains(DEAD_ADDR),
        "diagnostic should name the failure and the address, got: {stderr}"
    );
    // "Fast" means no retry loop and no default socket timeout: a refused
    // connect resolves in milliseconds; allow generous CI slack.
    assert!(
        elapsed < Duration::from_secs(10),
        "stat took {elapsed:?} to report a refused connect"
    );
}

/// `serve` and `stat` are the whole command line: anything else — the two
/// self-test subcommands the binary used to carry included — gets the usage
/// text and exit code 2.
#[test]
fn unknown_subcommand_prints_usage_and_exits_nonzero() {
    for arg in ["no-such-command", "smoke", "smoke-metrics"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gql-serve"))
            .arg(arg)
            .output()
            .expect("spawn gql-serve");
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("Usage:"), "{arg}: {stderr}");
        let subcommands: Vec<&str> = stderr
            .lines()
            .filter_map(|l| l.split("gql-serve ").nth(1)?.split(' ').next())
            .collect();
        assert_eq!(subcommands, ["serve", "stat"], "{arg}: {stderr}");
    }
}
