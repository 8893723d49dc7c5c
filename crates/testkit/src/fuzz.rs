//! The budgeted differential fuzz runner behind the `gql-fuzz` binary.
//!
//! A case is a `(generator, seed)` pair: the seed drives [`case_rng`],
//! which produces a document and a query, which the generator's oracle
//! battery checks. On disagreement the case is shrunk and reported as a
//! replayable [`Failure`] ready to append to `tests/corpus/`.

use std::time::{Duration, Instant};

use crate::generators::{self, Intent};
use crate::harness::case_rng;
use crate::oracle;
use crate::shrink;

/// One of the case generators: the four query generators of [`ALL`], and
/// the document-only [`Loader`] arm.
///
/// [`ALL`]: Generator::ALL
/// [`Loader`]: Generator::Loader
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// Random XML-GL programs → matcher/construct/engine path oracles.
    XmlGl,
    /// Random WG-Log programs → fixpoint-mode and loader oracles.
    WgLog,
    /// Random XPath expressions → lazy/indexed-vs-reference oracles.
    XPath,
    /// Cross-engine intents → XML-GL vs XPath count agreement.
    Intent,
    /// Reference-graph documents, no query → the WG-Log loader against
    /// `reference::loader`. Not in [`ALL`](Generator::ALL), which holds the
    /// query generators the fault and chaos sweeps run.
    Loader,
}

impl Generator {
    /// The query generators; `gql-fuzz run` runs these unless told which.
    pub const ALL: [Generator; 4] = [
        Generator::XmlGl,
        Generator::WgLog,
        Generator::XPath,
        Generator::Intent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Generator::XmlGl => "xmlgl",
            Generator::WgLog => "wglog",
            Generator::XPath => "xpath",
            Generator::Intent => "intent",
            Generator::Loader => "loader",
        }
    }

    pub fn from_name(s: &str) -> Option<Generator> {
        match s {
            "xmlgl" => Some(Generator::XmlGl),
            "wglog" => Some(Generator::WgLog),
            "xpath" => Some(Generator::XPath),
            "intent" => Some(Generator::Intent),
            "loader" => Some(Generator::Loader),
            _ => None,
        }
    }
}

/// A minimized, seed-replayable counterexample.
#[derive(Debug, Clone)]
pub struct Failure {
    pub generator: &'static str,
    pub seed: u64,
    /// The oracle's disagreement message (first line names the oracle).
    pub message: String,
    /// Minimized document (XML, one line).
    pub doc: String,
    /// Minimized query (DSL/XPath source, or an intent descriptor).
    pub query: String,
}

impl Failure {
    /// The one-line command that replays this case from its seed.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run -p gql-testkit --bin gql-fuzz -- replay --generator {} --seed {}",
            self.generator, self.seed
        )
    }
}

/// Deterministically derive the `(document, query)` inputs of a case.
pub fn case_inputs(generator: Generator, seed: u64) -> (String, String) {
    let mut rng = case_rng(seed);
    let doc = match generator {
        Generator::Loader => generators::reference_graph(&mut rng).to_xml_string(),
        _ => generators::document_xml(&mut rng),
    };
    let query = match generator {
        Generator::XmlGl => generators::gen_xmlgl(&mut rng),
        Generator::WgLog => generators::gen_wglog(&mut rng),
        Generator::XPath => generators::gen_xpath(&mut rng),
        Generator::Intent => Intent::gen(&mut rng).to_string(),
        Generator::Loader => String::new(),
    };
    (doc, query)
}

/// Run one generator's oracle battery over explicit inputs. Unparseable
/// inputs are vacuous (`Ok`), so the same entry point serves fuzzing,
/// shrinking and corpus replay.
pub fn check_case(generator: Generator, doc_xml: &str, query: &str) -> Result<(), String> {
    let Some(doc) = oracle::normalize(doc_xml) else {
        return Ok(());
    };
    match generator {
        Generator::XmlGl => oracle::check_xmlgl_case(&doc, query),
        Generator::WgLog => oracle::check_wglog_case(&doc, query),
        Generator::XPath => oracle::check_xpath_case(&doc, query),
        Generator::Intent => match Intent::parse(query) {
            Some(i) => oracle::check_intent_case(&doc, &i),
            None => Ok(()),
        },
        Generator::Loader => {
            crate::reference::loader::check(&doc).map_err(|e| format!("loader-vs-reference: {e}"))
        }
    }
}

/// Render the execution profile of a case's engine run as a text tree, for
/// `gql-fuzz replay --profile`. `None` when the inputs don't parse into an
/// engine-runnable query (the vacuous cases of [`check_case`]); engine
/// errors are rendered into the output rather than hidden, since a profile
/// request is a debugging aid.
pub fn profile_case(generator: Generator, doc_xml: &str, query: &str) -> Option<String> {
    use gql_core::engine::{Engine, QueryKind};
    let doc = oracle::normalize(doc_xml)?;
    let kind = match generator {
        Generator::XmlGl => QueryKind::XmlGl(gql_xmlgl::dsl::parse_unchecked(query).ok()?),
        Generator::WgLog => QueryKind::WgLog(gql_wglog::dsl::parse_unchecked(query).ok()?),
        Generator::XPath => QueryKind::XPath(query.to_string()),
        // Intents run on both engines; profile the XPath side, which is the
        // one with per-step instrumentation.
        Generator::Intent => QueryKind::XPath(Intent::parse(query)?.xpath()),
        Generator::Loader => return None,
    };
    let engine = Engine::new();
    match engine.run_profiled(&kind, &doc) {
        Ok(outcome) => {
            let mut text = outcome
                .profile
                .map(|p| p.to_text())
                .unwrap_or_else(|| "(empty profile)".to_string());
            // Plan provenance for the case: the lowered logical plan and the
            // engine's plan-cache behaviour, same surfaces `gql-prof` prints.
            for line in outcome.plan.lines() {
                text.push_str("plan: ");
                text.push_str(line);
                text.push('\n');
            }
            let stats = engine.plan_cache_stats();
            text.push_str(&format!(
                "plan_cache: {{hit: {}, miss: {}, evict: {}, replan: {}}}\n",
                stats.hits, stats.misses, stats.evictions, stats.replans
            ));
            Some(text)
        }
        Err(e) => Some(format!("engine error: {e}\n")),
    }
}

/// Execute one `(generator, seed)` case; on disagreement, shrink both the
/// document and the query before reporting.
pub fn fuzz_one(generator: Generator, seed: u64) -> Result<(), Failure> {
    let (doc, query) = case_inputs(generator, seed);
    match check_case(generator, &doc, &query) {
        Ok(()) => Ok(()),
        Err(first_msg) => {
            let (min_doc, min_query) =
                shrink::shrink_case(&doc, &query, |d, q| check_case(generator, d, q).is_err());
            let message = check_case(generator, &min_doc, &min_query)
                .err()
                .unwrap_or(first_msg);
            Err(Failure {
                generator: generator.name(),
                seed,
                message,
                doc: min_doc,
                query: min_query,
            })
        }
    }
}

/// Outcome of a budgeted run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases executed (seeds × generators actually reached).
    pub executed: u64,
    pub failures: Vec<Failure>,
    /// WG-Log rules the `embed-vs-reference` arm compared, and rules it
    /// skipped at the reference's assignment cap.
    pub reference_compared: u64,
    pub reference_skipped: u64,
}

/// Run `cases` seeds (starting at `start_seed`) through each generator,
/// stopping early when the optional wall-clock budget runs out.
/// `on_case` observes every executed case (for progress output).
pub fn run_fuzz(
    generators: &[Generator],
    start_seed: u64,
    cases: u64,
    budget: Option<Duration>,
    mut on_case: impl FnMut(Generator, u64),
) -> FuzzReport {
    let started = Instant::now();
    let mut report = FuzzReport::default();
    let tally = oracle::reference_tally();
    'outer: for seed in start_seed..start_seed.saturating_add(cases) {
        for &g in generators {
            if let Some(b) = budget {
                if started.elapsed() >= b {
                    break 'outer;
                }
            }
            on_case(g, seed);
            report.executed += 1;
            if let Err(f) = fuzz_one(g, seed) {
                report.failures.push(f);
            }
        }
    }
    let (compared, skipped) = oracle::reference_tally();
    report.reference_compared = compared - tally.0;
    report.reference_skipped = skipped - tally.1;
    report
}

/// Sanity check used by unit tests and the CI smoke job: a small clean
/// sweep over every generator.
pub fn smoke(cases: u64) -> FuzzReport {
    run_fuzz(&Generator::ALL, 0, cases, None, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loader arm is named, replays from a seed, and is clean.
    #[test]
    fn the_loader_arm_runs_reference_graph_documents() {
        assert_eq!(Generator::from_name("loader"), Some(Generator::Loader));
        let (doc, query) = case_inputs(Generator::Loader, 3);
        assert!(query.is_empty() && doc.contains("id="), "{doc}");
        let report = run_fuzz(&[Generator::Loader], 0, 50, None, |_, _| {});
        assert_eq!(report.executed, 50);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn case_inputs_are_deterministic() {
        for g in Generator::ALL {
            assert_eq!(case_inputs(g, 17), case_inputs(g, 17));
        }
    }

    #[test]
    fn generator_names_roundtrip() {
        for g in Generator::ALL {
            assert_eq!(Generator::from_name(g.name()), Some(g));
        }
        assert_eq!(Generator::from_name("nope"), None);
    }

    #[test]
    fn small_differential_sweep_is_clean() {
        let report = smoke(40);
        let msgs: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("{} seed {}: {}", f.generator, f.seed, f.message))
            .collect();
        assert!(msgs.is_empty(), "disagreements found:\n{}", msgs.join("\n"));
        assert_eq!(report.executed, 40 * Generator::ALL.len() as u64);
        // The embedding arm is not vacuous, and its cap skips no rule here.
        assert!(report.reference_compared >= 30, "{report:?}");
        assert_eq!(report.reference_skipped, 0, "{report:?}");
    }

    #[test]
    fn unparseable_inputs_are_vacuous() {
        assert_eq!(
            check_case(Generator::XmlGl, "not xml at all", "rule {"),
            Ok(())
        );
        assert_eq!(check_case(Generator::XPath, "<a/>", "//["), Ok(()));
        assert_eq!(
            check_case(Generator::Intent, "<a/>", "no such intent"),
            Ok(())
        );
    }

    /// A doc in which the forced-hash-collision verification fallback runs:
    /// equal text under different tags, joined on deep equality.
    #[test]
    fn join_case_with_equal_content_is_clean() {
        let doc = "<r><a>t</a><a>t</a><b>t</b><b>u</b></r>";
        let query = "rule { extract { a as $l { text as $x } b as $r { text as $y } \
                     join $x == $y } construct { out { all $l } } }";
        assert_eq!(check_case(Generator::XmlGl, doc, query), Ok(()));
    }
}
