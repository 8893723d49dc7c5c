//! `gql-prof` — profile a query's execution and print the span tree.
//!
//! ```text
//! Usage: gql-prof [options] (--query FILE | --xpath EXPR)
//!
//!   --query FILE     query program: .gql (XML-GL) or .wgl (WG-Log)
//!   --xpath EXPR     XPath expression (alternative to --query)
//!   --doc FILE       XML document to query
//!   --dataset NAME   synthetic dataset instead of --doc: bibliography,
//!                    cityguide, greengrocer, webgraph
//!   --warm           preload the document (resident instance + index)
//!                    before the profiled run, so the profile shows the
//!                    warm-cache phases
//!   --json           emit the profile as JSON instead of the text tree
//!   --timeout-ms N   abort the run after N milliseconds of wall clock
//!   --max-rounds N   abort after N fixpoint rounds / XPath steps
//!   --max-matches N  abort after N pattern matches / candidate items
//! ```
//!
//! The text tree shows one line per span with its duration (dot-aligned),
//! counters and notes; the JSON form mirrors it structurally and is stable
//! for machine consumption (`tests/prof_cli.rs` runs it on the two example
//! queries; the root package's `tests/profile.rs` reads the JSON back into
//! the tree). The budget flags run the query through the governed entry
//! point; a tripped budget prints the partial-progress report and exits 3.
//! Exit code 2 on usage errors, 1 on engine errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use gql_core::engine::{Engine, QueryKind};
use gql_core::{Budget, CoreError, Guard, RunCtx};
use gql_ssdm::{generator, Document};
use gql_trace::{ProfileNode, Trace};

struct Options {
    query: Option<PathBuf>,
    xpath: Option<String>,
    doc: Option<PathBuf>,
    dataset: Option<String>,
    warm: bool,
    json: bool,
    timeout_ms: Option<u64>,
    max_rounds: Option<u64>,
    max_matches: Option<u64>,
}

fn usage() -> &'static str {
    "Usage: gql-prof [--doc FILE | --dataset NAME] [--warm] [--json] \
     [--timeout-ms N] [--max-rounds N] [--max-matches N] \
     (--query FILE | --xpath EXPR)"
}

/// Parse a budget flag's value: a *positive* integer. Zero is rejected —
/// a zero-round or zero-millisecond "budget" can never admit any run and
/// is always a typo, not an intent.
fn parse_limit(value: Option<&String>, flag: &str) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a positive integer argument"))?;
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least 1, got 0")),
        Err(_) => Err(format!("{flag} needs a positive integer, got '{v}'")),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        query: None,
        xpath: None,
        doc: None,
        dataset: None,
        warm: false,
        json: false,
        timeout_ms: None,
        max_rounds: None,
        max_matches: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--query" => {
                let v = it.next().ok_or("--query needs a file argument")?;
                opts.query = Some(PathBuf::from(v));
            }
            "--xpath" => {
                let v = it.next().ok_or("--xpath needs an expression argument")?;
                opts.xpath = Some(v.clone());
            }
            "--doc" => {
                let v = it.next().ok_or("--doc needs a file argument")?;
                opts.doc = Some(PathBuf::from(v));
            }
            "--dataset" => {
                let v = it.next().ok_or("--dataset needs a name argument")?;
                opts.dataset = Some(v.clone());
            }
            "--warm" => opts.warm = true,
            "--json" => opts.json = true,
            "--timeout-ms" => opts.timeout_ms = Some(parse_limit(it.next(), "--timeout-ms")?),
            "--max-rounds" => opts.max_rounds = Some(parse_limit(it.next(), "--max-rounds")?),
            "--max-matches" => opts.max_matches = Some(parse_limit(it.next(), "--max-matches")?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if opts.query.is_some() == opts.xpath.is_some() {
        return Err("exactly one of --query and --xpath is required".to_string());
    }
    if opts.doc.is_some() && opts.dataset.is_some() {
        return Err("--doc and --dataset are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn load_document(opts: &Options) -> Result<Document, String> {
    if let Some(path) = &opts.doc {
        let xml = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        return Document::parse_str(&xml).map_err(|e| format!("{}: {e}", path.display()));
    }
    match opts.dataset.as_deref().unwrap_or("bibliography") {
        "bibliography" => Ok(generator::bibliography(Default::default())),
        "cityguide" => Ok(generator::cityguide(Default::default())),
        "greengrocer" => Ok(generator::greengrocer(Default::default())),
        "webgraph" => Ok(generator::webgraph(Default::default())),
        other => Err(format!(
            "unknown dataset '{other}' \
             (expected bibliography, cityguide, greengrocer or webgraph)"
        )),
    }
}

fn load_query(opts: &Options) -> Result<QueryKind, String> {
    if let Some(expr) = &opts.xpath {
        return Ok(QueryKind::XPath(expr.clone()));
    }
    let path = opts.query.as_ref().expect("validated by parse_args");
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("gql") => gql_xmlgl::dsl::parse_unchecked(&src)
            .map(QueryKind::XmlGl)
            .map_err(|e| format!("{}: {e}", path.display())),
        Some("wgl") => gql_wglog::dsl::parse_unchecked(&src)
            .map(QueryKind::WgLog)
            .map_err(|e| format!("{}: {e}", path.display())),
        _ => Err(format!(
            "{}: unrecognised query extension (expected .gql or .wgl)",
            path.display()
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gql-prof: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (doc, query) = match (load_document(&opts), load_query(&opts)) {
        (Ok(d), Ok(q)) => (d, q),
        (d, q) => {
            for e in [d.err(), q.err()].into_iter().flatten() {
                eprintln!("gql-prof: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let mut engine = Engine::new();
    if opts.warm {
        engine.preload(&doc);
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = opts.timeout_ms {
        budget = budget.with_timeout_ms(ms);
    }
    if let Some(n) = opts.max_rounds {
        budget = budget.with_max_rounds(n);
    }
    if let Some(n) = opts.max_matches {
        budget = budget.with_max_matches(n);
    }
    let outcome = if budget.is_unlimited() {
        engine.run_profiled(&query, &doc)
    } else {
        // Profile *and* govern: the guard probes sit at the same sites the
        // trace instruments, so a tripped run still yields a partial tree.
        let trace = Trace::profiling();
        let guard = Guard::new(budget);
        engine
            .execute(&query, &doc, RunCtx::new(&trace, &guard))
            .map(|mut o| {
                o.profile = trace.finish();
                o
            })
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(CoreError::Budget(g)) => {
            eprintln!(
                "gql-prof: budget exceeded ({}): {}",
                g.kind.name(),
                g.report.to_text()
            );
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("gql-prof: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(profile) = outcome.profile else {
        eprintln!("gql-prof: engine attached no profile");
        return ExitCode::FAILURE;
    };
    if opts.json {
        println!("{}", profile.to_json());
    } else {
        print!("{}", profile.to_text());
        // Static inference over the document summary: warnings first, then
        // the per-node cardinality upper bounds the planner saw.
        for d in outcome.inference.report.iter() {
            println!("infer: {d}");
        }
        for e in outcome.inference.cards.iter() {
            let bound = if e.bound == u64::MAX {
                String::from("unbounded")
            } else {
                format!("<= {}", e.bound)
            };
            println!("bound: rule {} {}: {bound}", e.rule + 1, e.target);
        }
        // The logical plan the run executed, with the cost-chosen join
        // orders and the plan-cache behaviour of this engine.
        for line in outcome.plan.lines() {
            println!("plan: {line}");
        }
        if let Some(plan_span) = profile.find("plan") {
            for (name, value) in &plan_span.notes {
                if name.starts_with("join_order") {
                    println!("plan: {name} = [{value}]");
                }
            }
        }
        // Estimated vs actual result cardinality (the planner's bound
        // against what the run produced).
        if let Some(est) = outcome.inference.cards.result_bound(0) {
            println!(
                "cards: result estimated <= {est}, actual {}",
                outcome.result_count
            );
        }
        let stats = engine.plan_cache_stats();
        println!(
            "plan_cache: {{hit: {}, miss: {}, evict: {}, replan: {}}}",
            stats.hits, stats.misses, stats.evictions, stats.replans
        );
        // The timings are the profile's own: the `eval` phase, and the
        // `load` (WG-Log) or `index` phase before it with its cache note.
        let phase = |name: &str| {
            let run = profile.find("run")?;
            run.children.iter().find(|c| c.name == name)
        };
        let took = |node: Option<&ProfileNode>| {
            Duration::from_nanos(node.map_or(0, |n| n.nanos).try_into().unwrap_or(u64::MAX))
        };
        let load = phase("load").or_else(|| phase("index"));
        println!(
            "{} result(s) in {:?} ({} {:?}, cache={})",
            outcome.result_count,
            took(phase("eval")),
            load.map_or("load", |n| n.name.as_str()),
            took(load),
            load.and_then(|n| n.note("cache")).unwrap_or("none")
        );
    }
    ExitCode::SUCCESS
}
