//! `gql-fuzz` — budgeted differential fuzzing across all three engines.
//!
//! ```text
//! gql-fuzz run [--cases N] [--start-seed S] [--generators xmlgl,wglog,xpath,intent,loader]
//!              [--budget-secs T] [--corpus DIR]
//! gql-fuzz replay --generator G --seed S [--profile]
//!                 [--timeout-ms N] [--max-rounds N] [--max-matches N]
//! gql-fuzz corpus [DIR]
//! gql-fuzz faults [--seeds N] [--start-seed S] [--timeout-ms T]
//! gql-fuzz chaos [--corpus DIR] [--seed S] [--budget-secs T]
//! ```
//!
//! `run` executes N seeds through every selected generator's oracle
//! battery (by default the four query generators; `loader` checks the
//! WG-Log loader against its textbook reference on reference-graph
//! documents); each disagreement is minimized (document *and* query) and
//! printed with an exact replay command, and — when `--corpus` is given —
//! appended as a `.case` file so it becomes a permanent regression test.
//! `replay` re-runs a single `(generator, seed)` case; with `--profile` it
//! also prints the engine's execution profile for the case, so a slow or
//! disagreeing case can be inspected span by span; with budget flags it
//! instead runs each engine-runnable query of the case bounded and prints
//! whether it completed or tripped cleanly. `corpus` replays a corpus
//! directory (default `tests/corpus`). `faults` drives the seeded
//! fault-injection sweep (every `FaultPlan` × generator × seed) under a
//! wall-clock smoke budget — the CI degradation check. `chaos` storms the
//! corpus through a live TCP server and the retrying client under the
//! service-layer fault matrix (torn/dropped replies, worker panics,
//! slow-loris reaping, hot reload mid-storm, rate-limit retry) — the CI
//! resilience check. Exit status is non-zero whenever any disagreement or
//! degradation violation is found.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gql_core::engine::Engine;
use gql_core::{Budget, CoreError, Guard, RunCtx};
use gql_testkit::corpus::{self, CorpusCase};
use gql_testkit::fault::{query_kinds, run_fault_matrix, smoke_budget};
use gql_testkit::fuzz::{case_inputs, fuzz_one, profile_case, run_fuzz, Failure, Generator};

fn usage() -> ! {
    eprintln!(
        "usage:\n  gql-fuzz run [--cases N] [--start-seed S] [--generators a,b] \
         [--budget-secs T] [--corpus DIR]\n  gql-fuzz replay --generator G --seed S [--profile] \
         [--timeout-ms N] [--max-rounds N] [--max-matches N]\n  \
         gql-fuzz corpus [DIR]\n  gql-fuzz faults [--seeds N] [--start-seed S] [--timeout-ms T]\n  \
         gql-fuzz chaos [--corpus DIR] [--seed S] [--budget-secs T]"
    );
    std::process::exit(2);
}

/// Parse a flag's value as an unsigned integer; `min` rejects nonsensical
/// magnitudes (`--cases 0` would silently test nothing, a zero budget can
/// never admit a run). Prints the reason and exits 2 — never panics.
fn parse_u64_at_least(args: &mut std::slice::Iter<String>, flag: &str, min: u64) -> u64 {
    let Some(v) = args.next() else {
        eprintln!("{flag} needs an unsigned integer argument");
        usage();
    };
    match v.parse::<u64>() {
        Ok(n) if n >= min => n,
        Ok(n) => {
            eprintln!("{flag} must be at least {min}, got {n}");
            usage();
        }
        Err(_) => {
            eprintln!("{flag} needs an unsigned integer, got '{v}'");
            usage();
        }
    }
}

fn parse_u64(args: &mut std::slice::Iter<String>, flag: &str) -> u64 {
    parse_u64_at_least(args, flag, 0)
}

fn print_failure(f: &Failure) {
    println!("FAIL {} seed {}: {}", f.generator, f.seed, f.message);
    println!("  minimized doc:   {}", f.doc);
    println!("  minimized query: {}", f.query);
    println!("  replay: {}", f.replay_command());
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut cases = 1000u64;
    let mut start_seed = 0u64;
    let mut generators: Vec<Generator> = Generator::ALL.to_vec();
    let mut budget: Option<Duration> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => cases = parse_u64_at_least(&mut it, "--cases", 1),
            "--start-seed" => start_seed = parse_u64(&mut it, "--start-seed"),
            "--budget-secs" => {
                budget = Some(Duration::from_secs(parse_u64_at_least(
                    &mut it,
                    "--budget-secs",
                    1,
                )))
            }
            "--generators" => {
                let Some(list) = it.next() else {
                    eprintln!("--generators needs a comma-separated list");
                    usage();
                };
                generators = list
                    .split(',')
                    .map(|s| {
                        Generator::from_name(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown generator: {s}");
                            usage();
                        })
                    })
                    .collect();
                if generators.is_empty() {
                    eprintln!("--generators selected no generators");
                    usage();
                }
            }
            "--corpus" => {
                let Some(dir) = it.next() else {
                    eprintln!("--corpus needs a directory argument");
                    usage();
                };
                corpus_dir = Some(PathBuf::from(dir));
            }
            other => {
                eprintln!("unknown option for `run`: {other}");
                usage();
            }
        }
    }
    let names: Vec<&str> = generators.iter().map(|g| g.name()).collect();
    println!(
        "fuzzing {} seeds from {start_seed} over [{}]{}",
        cases,
        names.join(", "),
        budget.map_or(String::new(), |b| format!(", budget {}s", b.as_secs()))
    );
    let mut done = 0u64;
    let report = run_fuzz(&generators, start_seed, cases, budget, |_, _| {
        done += 1;
        if done.is_multiple_of(4000) {
            println!("  … {done} cases");
        }
    });
    for f in &report.failures {
        print_failure(f);
        if let Some(dir) = &corpus_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create corpus dir: {e}");
            } else {
                let path = dir.join(format!("{}-seed{}.case", f.generator, f.seed));
                let entry = CorpusCase::from(f).render();
                match std::fs::write(&path, entry) {
                    Ok(()) => println!("  appended to corpus: {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
    }
    println!(
        "embed-vs-reference: {} rule(s) compared, {} skipped at the cap of {} assignments",
        report.reference_compared,
        report.reference_skipped,
        gql_testkit::reference::WGLOG_ASSIGNMENT_CAP
    );
    println!(
        "{} cases executed, {} disagreement(s)",
        report.executed,
        report.failures.len()
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut generator = None;
    let mut seed = None;
    let mut profile = false;
    let mut budget = Budget::unlimited();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--generator" => {
                let Some(name) = it.next() else {
                    eprintln!("--generator needs a name argument");
                    usage();
                };
                generator = Some(Generator::from_name(name).unwrap_or_else(|| {
                    eprintln!("unknown generator: {name}");
                    usage();
                }));
            }
            "--seed" => seed = Some(parse_u64(&mut it, "--seed")),
            "--profile" => profile = true,
            "--timeout-ms" => {
                budget = budget.with_timeout_ms(parse_u64_at_least(&mut it, "--timeout-ms", 1))
            }
            "--max-rounds" => {
                budget = budget.with_max_rounds(parse_u64_at_least(&mut it, "--max-rounds", 1))
            }
            "--max-matches" => {
                budget = budget.with_max_matches(parse_u64_at_least(&mut it, "--max-matches", 1))
            }
            other => {
                eprintln!("unknown option for `replay`: {other}");
                usage();
            }
        }
    }
    let (Some(g), Some(s)) = (generator, seed) else {
        eprintln!("replay needs both --generator and --seed");
        usage()
    };
    if !budget.is_unlimited() {
        return replay_bounded(g, s, &budget);
    }
    let status = match fuzz_one(g, s) {
        Ok(()) => {
            println!("OK {} seed {s}: all oracles agree", g.name());
            ExitCode::SUCCESS
        }
        Err(f) => {
            print_failure(&f);
            ExitCode::FAILURE
        }
    };
    if profile {
        let (doc, query) = case_inputs(g, s);
        match profile_case(g, &doc, &query) {
            Some(text) => {
                println!("profile ({} seed {s}):", g.name());
                print!("{text}");
            }
            None => println!("profile: case inputs do not form a runnable query"),
        }
    }
    status
}

/// Bounded replay: run every engine-runnable query the case denotes under
/// `budget`. Completing and tripping cleanly are both acceptable; what the
/// budget must never cause is a non-budget failure.
fn replay_bounded(g: Generator, seed: u64, budget: &Budget) -> ExitCode {
    let (doc_xml, query) = case_inputs(g, seed);
    let Some(doc) = gql_testkit::oracle::normalize(&doc_xml) else {
        println!(
            "OK {} seed {seed}: generated document does not parse (vacuous)",
            g.name()
        );
        return ExitCode::SUCCESS;
    };
    let kinds = query_kinds(g, &query);
    if kinds.is_empty() {
        println!(
            "OK {} seed {seed}: generated query does not parse (vacuous)",
            g.name()
        );
        return ExitCode::SUCCESS;
    }
    let mut status = ExitCode::SUCCESS;
    for kind in kinds {
        let label = match &kind {
            gql_core::engine::QueryKind::XmlGl(_) => "xmlgl",
            gql_core::engine::QueryKind::WgLog(_) => "wglog",
            gql_core::engine::QueryKind::XPath(_) => "xpath",
        };
        let guard = Guard::new(budget.clone());
        match Engine::new().execute(&kind, &doc, RunCtx::guarded(&guard)) {
            Ok(o) => println!(
                "OK {} seed {seed} [{label}]: completed under budget, {} result(s)",
                g.name(),
                o.result_count
            ),
            Err(CoreError::Budget(e)) => println!(
                "TRIPPED {} seed {seed} [{label}]: {} — {}",
                g.name(),
                e.kind.name(),
                e.report.to_text()
            ),
            Err(e) => {
                println!("FAIL {} seed {seed} [{label}]: {e}", g.name());
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

/// The seeded fault-injection sweep: every `FaultPlan` variant against
/// every generator for `--seeds` consecutive seeds, each run bounded by
/// the smoke budget (override the wall clock with `--timeout-ms`). This is
/// the CI degradation check: any wrong answer, hang or abort under an
/// injected fault fails the command.
fn cmd_faults(args: &[String]) -> ExitCode {
    let mut seeds = 8u64;
    let mut start_seed = 0u64;
    let mut budget = smoke_budget();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => seeds = parse_u64_at_least(&mut it, "--seeds", 1),
            "--start-seed" => start_seed = parse_u64(&mut it, "--start-seed"),
            "--timeout-ms" => {
                budget = Budget::unlimited().with_timeout_ms(parse_u64_at_least(
                    &mut it,
                    "--timeout-ms",
                    1,
                ))
            }
            other => {
                eprintln!("unknown option for `faults`: {other}");
                usage();
            }
        }
    }
    println!("fault sweep: {seeds} seed(s) from {start_seed}, every plan × generator");
    match run_fault_matrix(start_seed, seeds, &budget) {
        Ok(tally) => {
            println!(
                "{} (seed, generator, plan) cells executed: {} faulted run(s) answered \
                 with the baseline's bytes, {} XML-GL or XPath run(s) refused for want of an index",
                tally.cells, tally.degraded, tally.refused
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("FAIL {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What every panic the chaos seams inject (`panic_jobs`) says first. Each
/// is caught where it is raised and answered as a supervised failure, so
/// the default hook's message and backtrace for it would only make a
/// passing battery read like a failing one.
const INJECTED_PANIC: &str = "injected fault:";

/// Install a panic hook that drops the injected panics' messages, counting
/// them, and hands every other panic to the hook that was installed before.
fn quiet_injected_panics() -> Arc<AtomicU64> {
    let dropped = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&dropped);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if text.is_some_and(|t| t.starts_with(INJECTED_PANIC)) {
            counter.fetch_add(1, Ordering::Relaxed);
        } else {
            previous(info);
        }
    }));
    dropped
}

/// The service-layer chaos matrix over a corpus directory: a live TCP
/// server with fault seams armed, stormed through the resilient client.
/// Bounded in wall-clock — a hang is a failure, not a timeout.
fn cmd_chaos(args: &[String]) -> ExitCode {
    let mut dir = PathBuf::from("tests/corpus");
    let mut seed = 0u64;
    let mut budget = Duration::from_secs(120);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => {
                let Some(d) = it.next() else {
                    eprintln!("--corpus needs a directory argument");
                    usage();
                };
                dir = PathBuf::from(d);
            }
            "--seed" => seed = parse_u64(&mut it, "--seed"),
            "--budget-secs" => {
                budget = Duration::from_secs(parse_u64_at_least(&mut it, "--budget-secs", 1))
            }
            other => {
                eprintln!("unknown option for `chaos`: {other}");
                usage();
            }
        }
    }
    println!(
        "chaos matrix: corpus {} seed {seed}, wall budget {}s",
        dir.display(),
        budget.as_secs()
    );
    let injected = quiet_injected_panics();
    match gql_testkit::chaos_oracle::check_corpus_dir(&dir, seed, budget) {
        Ok(report) => {
            println!(
                "{} case(s) × {} scenario(s): {} request(s), {} retry(ies), \
                 {} injected panic(s) caught quietly, all answers held",
                report.cases,
                report.scenarios,
                report.requests,
                report.retries,
                injected.load(Ordering::Relaxed)
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("FAIL {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_corpus(args: &[String]) -> ExitCode {
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("tests/corpus"));
    let cases = match corpus::load_dir(&dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0usize;
    for (path, case) in &cases {
        match case.replay() {
            Ok(()) => println!("OK   {}", path.display()),
            Err(e) => {
                failed += 1;
                println!("FAIL {}: {e}", path.display());
            }
        }
    }
    println!("{} corpus case(s), {failed} failing", cases.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => usage(),
    }
}
