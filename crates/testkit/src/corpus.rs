//! The replayable regression corpus.
//!
//! Every bug the fuzzer ever finds becomes a permanent regression test: a
//! minimized case is appended as a `.case` file under `tests/corpus/` and
//! the `corpus.rs` integration test replays the whole directory in tier-1
//! CI. The format is line-oriented `key: value` (documents and queries are
//! one-liners by construction — the serializer emits single-line XML and
//! the generators emit single-line sources):
//!
//! ```text
//! # free-form comment lines
//! kind: xmlgl
//! oracle: table-vs-reference
//! seed: 42
//! query: rule { extract { a as $x } construct { out { all $x } } }
//! doc: <r><a/></r>
//! ```
//!
//! `kind` selects the oracle battery (an entry of [`Generator::ALL`]);
//! `oracle` and `seed` are documentation (the replay runs the *whole*
//! battery — a fixed bug must stay fixed under every oracle).
//!
//! A case may also carry a `budget:` line — space-separated `key=value`
//! tokens over `timeout-ms`, `max-rounds`, `max-matches` and `max-nodes`.
//! Budget-bearing cases are *pathological by construction* (exploding
//! fixpoints, combinatorial joins): replay runs them through
//! [`Engine::execute`] under its budget and passes only when the budget trips with a
//! clean, non-degenerate [`CoreError::Budget`] report — the unbounded
//! oracle battery would hang on them.

use std::path::{Path, PathBuf};

use gql_core::engine::{Engine, QueryKind};
use gql_core::{Budget, CoreError, Guard, RunCtx};

use crate::fuzz::{check_case, Failure, Generator};
use crate::generators::Intent;
use crate::oracle;

/// One corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Generator name: `xmlgl` | `wglog` | `xpath` | `intent`.
    pub kind: String,
    /// Which oracle originally failed (documentation only).
    pub oracle: String,
    /// The generator seed that found the case, if any.
    pub seed: Option<u64>,
    /// Query source (or intent descriptor), one line.
    pub query: String,
    /// Document XML, one line.
    pub doc: String,
    /// Budget spec for pathological cases (see [`parse_budget_spec`]);
    /// `None` replays the ordinary oracle battery.
    pub budget: Option<String>,
}

/// Parse a corpus `budget:` spec — space-separated `key=value` tokens —
/// into a [`Budget`]. Rejects unknown keys, unparseable values and specs
/// that set no limit at all (an unlimited "budget" on a pathological case
/// would hang the tier-1 suite).
pub fn parse_budget_spec(spec: &str) -> Result<Budget, String> {
    let mut b = Budget::unlimited();
    for tok in spec.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad budget token (want key=value): {tok}"))?;
        let n: u64 = v
            .parse()
            .map_err(|_| format!("bad budget value in: {tok}"))?;
        b = match k {
            "timeout-ms" => b.with_timeout_ms(n),
            "max-rounds" => b.with_max_rounds(n),
            "max-matches" => b.with_max_matches(n),
            "max-nodes" => b.with_max_nodes(n),
            _ => return Err(format!("unknown budget key: {k}")),
        };
    }
    if b.is_unlimited() {
        return Err("budget spec sets no limits".into());
    }
    Ok(b)
}

impl CorpusCase {
    /// Parse the `key: value` format. Unknown keys are ignored (forward
    /// compatibility); `kind`, `query` and `doc` are required.
    pub fn parse(text: &str) -> Result<CorpusCase, String> {
        let mut kind = None;
        let mut oracle = String::new();
        let mut seed = None;
        let mut query = None;
        let mut doc = None;
        let mut budget = None;
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                return Err(format!("malformed corpus line (no `key:`): {line}"));
            };
            let value = value.trim_start().to_string();
            match key.trim() {
                "kind" => kind = Some(value),
                "oracle" => oracle = value,
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed: {value}"))?,
                    )
                }
                "query" => query = Some(value),
                "doc" => doc = Some(value),
                "budget" => {
                    parse_budget_spec(&value)?; // reject malformed specs at load
                    budget = Some(value);
                }
                _ => {}
            }
        }
        let kind = kind.ok_or("corpus case missing `kind:`")?;
        if Generator::from_name(&kind).is_none() {
            return Err(format!("unknown corpus kind: {kind}"));
        }
        Ok(CorpusCase {
            kind,
            oracle,
            seed,
            query: query.ok_or("corpus case missing `query:`")?,
            doc: doc.ok_or("corpus case missing `doc:`")?,
            budget,
        })
    }

    /// Render back to the file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("kind: {}\n", self.kind));
        if !self.oracle.is_empty() {
            out.push_str(&format!("oracle: {}\n", self.oracle));
        }
        if let Some(s) = self.seed {
            out.push_str(&format!("seed: {s}\n"));
        }
        out.push_str(&format!("query: {}\n", self.query));
        out.push_str(&format!("doc: {}\n", self.doc));
        if let Some(b) = &self.budget {
            out.push_str(&format!("budget: {b}\n"));
        }
        out
    }

    /// Replay: run the kind's whole oracle battery on the stored inputs —
    /// or, for budget-bearing cases, the bounded replay (see the module
    /// docs).
    pub fn replay(&self) -> Result<(), String> {
        if let Some(spec) = &self.budget {
            return self.replay_bounded(&parse_budget_spec(spec)?);
        }
        let generator = Generator::from_name(&self.kind)
            .ok_or_else(|| format!("unknown corpus kind: {}", self.kind))?;
        check_case(generator, &self.doc, &self.query)
    }

    /// The case's query as an engine [`QueryKind`], if its source parses.
    /// Uses the unchecked parsers — the engine's static-analysis gate is
    /// part of what replays exercise. Intent descriptors lower to their
    /// XPath rendering (the concurrency and chaos oracles replay them
    /// through the service the same way).
    pub fn query_kind(&self) -> Result<QueryKind, String> {
        match self.kind.as_str() {
            "xmlgl" => gql_xmlgl::dsl::parse_unchecked(&self.query)
                .map(QueryKind::XmlGl)
                .map_err(|e| format!("XML-GL query does not parse: {e}")),
            "wglog" => gql_wglog::dsl::parse_unchecked(&self.query)
                .map(QueryKind::WgLog)
                .map_err(|e| format!("WG-Log query does not parse: {e}")),
            "xpath" => Ok(QueryKind::XPath(self.query.clone())),
            "intent" => Intent::parse(&self.query)
                .map(|i| QueryKind::XPath(i.xpath()))
                .ok_or_else(|| "intent descriptor does not parse".to_string()),
            other => Err(format!("unknown corpus kind: {other}")),
        }
    }

    /// Bounded replay of a pathological case: the budget must trip with a
    /// clean, non-degenerate report. Completing under the budget fails too
    /// — the case would no longer pin the behaviour it was added for.
    fn replay_bounded(&self, budget: &Budget) -> Result<(), String> {
        let doc =
            oracle::normalize(&self.doc).ok_or("budgeted case: stored document does not parse")?;
        let kind = self
            .query_kind()
            .map_err(|e| format!("budgeted case: {e}"))?;
        let guard = Guard::new(budget.clone());
        match Engine::new().execute(&kind, &doc, RunCtx::guarded(&guard)) {
            Err(CoreError::Budget(g)) if !g.report.phase.is_empty() => Ok(()),
            Err(CoreError::Budget(g)) => Err(format!(
                "budgeted case tripped with a degenerate report: {g}"
            )),
            Ok(_) => Err(
                "budgeted pathological case completed without tripping its budget \
                          (tighten the budget or retire the case)"
                    .into(),
            ),
            Err(e) => Err(format!(
                "budgeted case failed outside the budget system: {e}"
            )),
        }
    }
}

impl From<&Failure> for CorpusCase {
    fn from(f: &Failure) -> CorpusCase {
        CorpusCase {
            kind: f.generator.to_string(),
            oracle: f.message.lines().next().unwrap_or("").to_string(),
            seed: Some(f.seed),
            query: f.query.clone(),
            doc: f.doc.clone(),
            budget: None,
        }
    }
}

/// Load every `.case` file in a directory, sorted by file name so replay
/// order (and failure output) is stable.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    let mut out = Vec::new();
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = CorpusCase::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let case = CorpusCase {
            kind: "xmlgl".into(),
            oracle: "table-vs-reference".into(),
            seed: Some(42),
            query: "rule { extract { a as $x } construct { out { all $x } } }".into(),
            doc: "<r><a/></r>".into(),
            budget: None,
        };
        let text = case.render();
        assert_eq!(CorpusCase::parse(&text), Ok(case));
    }

    #[test]
    fn budget_specs_parse_render_and_reject_nonsense() {
        let text =
            "kind: xpath\nquery: //a\ndoc: <r><a/></r>\nbudget: max-rounds=4 max-matches=100\n";
        let case = CorpusCase::parse(text).expect("parses");
        assert_eq!(case.budget.as_deref(), Some("max-rounds=4 max-matches=100"));
        assert_eq!(CorpusCase::parse(&case.render()), Ok(case));
        // Malformed specs are rejected at load, not at replay.
        assert!(
            CorpusCase::parse("kind: xpath\nquery: //a\ndoc: <a/>\nbudget: max-bogus=1\n").is_err()
        );
        assert!(CorpusCase::parse("kind: xpath\nquery: //a\ndoc: <a/>\nbudget: \n").is_err());
        assert!(parse_budget_spec("max-rounds=x").is_err());
    }

    #[test]
    fn comments_and_unknown_keys_are_tolerated() {
        let text = "# why this case exists\nkind: xpath\nfuture-key: whatever\nquery: //a\ndoc: <r><a/></r>\n";
        let case = CorpusCase::parse(text).expect("parses");
        assert_eq!(case.kind, "xpath");
        assert_eq!(case.seed, None);
        assert!(case.replay().is_ok());
    }

    #[test]
    fn missing_fields_are_rejected() {
        assert!(CorpusCase::parse("kind: xpath\nquery: //a\n").is_err());
        assert!(CorpusCase::parse("query: //a\ndoc: <a/>\n").is_err());
        assert!(CorpusCase::parse("kind: nope\nquery: x\ndoc: <a/>\n").is_err());
    }
}
