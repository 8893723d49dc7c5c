//! `gql-analyze` — lint XML-GL (`.gql`), WG-Log (`.wgl`) and XPath (`.xp`)
//! query programs.
//!
//! ```text
//! Usage: gql-analyze [options] <file-or-dir>...
//!
//!   --json             machine-readable report (one JSON object per file)
//!   --deny-warnings    exit non-zero on warnings, not just errors
//!   --dtd FILE         XML DTD for the schema-conformance pass (GQL006)
//!   --instance FILE    XML document: extracts a WG-Log schema (GQL012/13)
//!                      and infers the structural summary for the cost
//!                      pass (GQL009) and the summary-inference pass
//!                      (GQL014–GQL016) with cardinality bounds
//!   --explain          print the pass/diagnostic-code table and exit
//! ```
//!
//! Directories are searched recursively for `.gql`/`.wgl`/`.xp` files. Exit
//! code
//! is 1 when any file has an Error-level diagnostic (with `--deny-warnings`,
//! also on Warning-level), 2 on usage/IO problems.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gql_analyze::{Analyzer, Code, Report, Severity};
use gql_ssdm::json::Writer;

struct Options {
    json: bool,
    deny_warnings: bool,
    dtd: Option<PathBuf>,
    instance: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "Usage: gql-analyze [--json] [--deny-warnings] [--dtd FILE] [--instance FILE] [--explain] <file-or-dir>..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        dtd: None,
        instance: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--dtd" => {
                let v = it.next().ok_or("--dtd needs a file argument")?;
                opts.dtd = Some(PathBuf::from(v));
            }
            "--instance" => {
                let v = it.next().ok_or("--instance needs a file argument")?;
                opts.instance = Some(PathBuf::from(v));
            }
            "--explain" => {
                explain();
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(opts)
}

fn explain() {
    println!("passes and diagnostic codes:");
    for pass in gql_analyze::PASSES {
        let codes: Vec<&str> = pass.codes.iter().map(|c| c.as_str()).collect();
        let needs = pass
            .needs
            .map_or(String::new(), |n| format!(" (needs {n})"));
        println!("  {:<20} {}{}", pass.name, codes.join(", "), needs);
    }
    println!("codes:");
    for code in Code::all() {
        println!(
            "  {} {:?} ({:?} by default)",
            code.as_str(),
            code,
            code.default_severity()
        );
    }
}

/// Collect `.gql`/`.wgl`/`.xp` files under a path (recursing into
/// directories), in sorted order for stable output.
fn collect(path: &Path, into: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            collect(&entry, into)?;
        }
        return Ok(());
    }
    match path.extension().and_then(|e| e.to_str()) {
        Some("gql") | Some("wgl") | Some("xp") => into.push(path.to_path_buf()),
        // Explicitly-named files of other types are an error; files found
        // during directory walks are just skipped.
        _ => {}
    }
    Ok(())
}

fn build_analyzer(opts: &Options) -> Result<Analyzer, String> {
    let mut analyzer = Analyzer::new();
    if let Some(dtd_path) = &opts.dtd {
        let text = std::fs::read_to_string(dtd_path)
            .map_err(|e| format!("{}: {e}", dtd_path.display()))?;
        let dtd =
            gql_ssdm::dtd::Dtd::parse(&text).map_err(|e| format!("{}: {e}", dtd_path.display()))?;
        analyzer = analyzer.with_gl_schema(gql_xmlgl::schema::GlSchema::from_dtd(&dtd));
    }
    if let Some(instance_path) = &opts.instance {
        let text = std::fs::read_to_string(instance_path)
            .map_err(|e| format!("{}: {e}", instance_path.display()))?;
        let doc = gql_ssdm::Document::parse_str(&text)
            .map_err(|e| format!("{}: {e}", instance_path.display()))?;
        let db = gql_wglog::Instance::from_document(&doc);
        analyzer = analyzer
            .with_wg_schema(gql_wglog::schema::WgSchema::extract(&db))
            .with_summary(gql_ssdm::Summary::build(&doc));
    }
    Ok(analyzer)
}

/// Analyze one file: its report, plus the summary inference (cardinality
/// bounds) when an `--instance` summary is in context and the file parses.
fn analyze_file(
    analyzer: &Analyzer,
    path: &Path,
) -> Result<(Report, Option<gql_analyze::Inference>), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    Ok(match ext {
        "gql" => match gql_xmlgl::dsl::parse_unchecked(&src) {
            Ok(p) => {
                let inf = analyzer.infer_xmlgl(&p);
                (analyzer.analyze_xmlgl(&p), inf)
            }
            Err(_) => (analyzer.analyze_xmlgl_src(&src), None),
        },
        "wgl" => match gql_wglog::dsl::parse_unchecked(&src) {
            Ok(p) => {
                let inf = analyzer.infer_wglog(&p);
                (analyzer.analyze_wglog(&p), inf)
            }
            Err(_) => (analyzer.analyze_wglog_src(&src), None),
        },
        "xp" => {
            let expr = src.trim();
            match gql_xpath::parse(expr) {
                Ok(p) => {
                    let inf = analyzer.infer_xpath(&p);
                    (analyzer.analyze_xpath_src(expr), inf)
                }
                Err(_) => (analyzer.analyze_xpath_src(expr), None),
            }
        }
        _ => return Err(format!("{}: unknown extension '{ext}'", path.display())),
    })
}

/// JSON array of cardinality facts (empty when nothing was inferred):
/// `u64::MAX` (unbounded) becomes `null`.
fn write_bounds(cards: Option<&gql_analyze::CardinalityMap>, w: &mut Writer) {
    w.begin_array();
    for e in cards.into_iter().flat_map(|c| c.iter()) {
        w.begin_object().key("rule").number(e.rule + 1);
        w.key("target").string(&e.target).key("bound");
        if e.bound == u64::MAX {
            w.null();
        } else {
            w.number(e.bound);
        }
        w.end_object();
    }
    w.end_array();
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gql-analyze: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let analyzer = match build_analyzer(&opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gql-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let mut files = Vec::new();
    for path in &opts.paths {
        if !path.exists() {
            eprintln!("gql-analyze: {}: no such file or directory", path.display());
            return ExitCode::from(2);
        }
        if let Err(e) = collect(path, &mut files) {
            eprintln!("gql-analyze: {e}");
            return ExitCode::from(2);
        }
    }
    let mut failed = false;
    // `--json` only: one `{"files":[…]}` text, an entry appended per file.
    let mut json = String::new();
    let mut w = Writer::new(&mut json);
    w.begin_object().key("files").begin_array();
    let (mut errors, mut warnings, mut hints) = (0usize, 0usize, 0usize);
    for file in &files {
        let (report, inference) = match analyze_file(&analyzer, file) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gql-analyze: {e}");
                return ExitCode::from(2);
            }
        };
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        hints += report.count(Severity::Hint);
        if report.has_errors() || (opts.deny_warnings && report.count(Severity::Warning) > 0) {
            failed = true;
        }
        if opts.json {
            w.begin_object()
                .key("path")
                .string(&file.display().to_string());
            report.write_json(w.key("report"));
            write_bounds(inference.as_ref().map(|inf| &inf.cards), w.key("bounds"));
            w.end_object();
        } else {
            for d in report.iter() {
                println!("{}: {d}", file.display());
            }
            if let Some(inf) = &inference {
                for e in inf.cards.iter() {
                    let bound = if e.bound == u64::MAX {
                        String::from("unbounded")
                    } else {
                        format!("<= {}", e.bound)
                    };
                    println!(
                        "{}: rule {} {}: {bound}",
                        file.display(),
                        e.rule + 1,
                        e.target
                    );
                }
            }
        }
    }
    if opts.json {
        w.end_array().end_object();
        println!("{json}");
    } else {
        println!(
            "{} file{} checked: {errors} error{}, {warnings} warning{}, {hints} hint{}",
            files.len(),
            if files.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if hints == 1 { "" } else { "s" },
        );
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
