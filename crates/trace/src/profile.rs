//! Execution profiles: the immutable snapshot of a finished trace, plus the
//! three renderings every tool in the workspace consumes — an aligned text
//! tree (EXPLAIN-style, for humans), JSON (machine-readable, through
//! [`crate::json`]), and a duration-free *shape* (for determinism
//! oracles: two runs of the same case must produce identical shapes even
//! though wall-clock timings differ).

use crate::json::Writer;

/// A finished trace: the forest of top-level spans recorded by a
/// [`crate::TraceLog`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionProfile {
    pub roots: Vec<ProfileNode>,
}

/// One span in a finished profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    pub name: String,
    /// Wall-clock duration in nanoseconds (0 for spans never closed).
    pub nanos: u128,
    /// Counter accumulations, in first-report order.
    pub counters: Vec<(String, u64)>,
    /// String facts, in first-report order; re-noting overwrites in place.
    pub notes: Vec<(String, String)>,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Value of the named counter, if reported on this span.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the named note, if reported on this span.
    pub fn note(&self, name: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All descendants (including self, preorder) with `name`.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a ProfileNode>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }
}

impl ExecutionProfile {
    /// Depth-first search across all roots.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// All spans named `name`, preorder across roots.
    pub fn find_all(&self, name: &str) -> Vec<&ProfileNode> {
        let mut out = Vec::new();
        for r in &self.roots {
            r.find_all(name, &mut out);
        }
        out
    }

    /// Aligned text tree, EXPLAIN-style:
    ///
    /// ```text
    /// run ........................... 1.23ms  engine=xmlgl
    ///   analyze ..................... 0.10ms
    ///   index ....................... 0.40ms  elements=120  cache=miss
    ///   eval ........................ 0.70ms
    ///     rule[0] ................... 0.69ms  bindings=4
    /// ```
    pub fn to_text(&self) -> String {
        // First pass: compute the label width so the duration column aligns.
        fn width(node: &ProfileNode, depth: usize, max: &mut usize) {
            *max = (*max).max(depth * 2 + node.name.len());
            for c in &node.children {
                width(c, depth + 1, max);
            }
        }
        let mut label_w = 0;
        for r in &self.roots {
            width(r, 0, &mut label_w);
        }
        // Room for at least a few leader dots.
        let col = label_w + 4;

        fn emit(node: &ProfileNode, depth: usize, col: usize, out: &mut String) {
            let indent = depth * 2;
            out.push_str(&" ".repeat(indent));
            out.push_str(&node.name);
            let used = indent + node.name.len();
            out.push(' ');
            for _ in used + 1..col {
                out.push('.');
            }
            out.push(' ');
            out.push_str(&format_nanos(node.nanos));
            for (k, v) in &node.counters {
                out.push_str("  ");
                out.push_str(k);
                out.push('=');
                out.push_str(&v.to_string());
            }
            for (k, v) in &node.notes {
                out.push_str("  ");
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out.push('\n');
            for c in &node.children {
                emit(c, depth + 1, col, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            emit(r, 0, col, &mut out);
        }
        out
    }

    /// Machine-readable JSON. Shape:
    ///
    /// ```json
    /// {"spans":[{"name":"run","nanos":123,"counters":{"rules":1},
    ///            "notes":{"engine":"xmlgl"},"children":[...]}]}
    /// ```
    pub fn to_json(&self) -> String {
        fn node(n: &ProfileNode, w: &mut Writer) {
            w.begin_object().key("name").string(&n.name);
            w.key("nanos").number(n.nanos);
            w.key("counters").begin_object();
            for (k, v) in &n.counters {
                w.key(k).number(v);
            }
            w.end_object().key("notes").begin_object();
            for (k, v) in &n.notes {
                w.key(k).string(v);
            }
            w.end_object().key("children").begin_array();
            for c in &n.children {
                node(c, w);
            }
            w.end_array().end_object();
        }
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object().key("spans").begin_array();
        for r in &self.roots {
            node(r, &mut w);
        }
        w.end_array().end_object();
        out
    }

    /// Duration-free rendering: structure, counters and notes only. Two
    /// runs of the same query on the same document must produce identical
    /// shapes — this is what the testkit determinism oracle compares.
    pub fn shape(&self) -> String {
        fn emit(node: &ProfileNode, depth: usize, out: &mut String) {
            out.push_str(&" ".repeat(depth * 2));
            out.push_str(&node.name);
            for (k, v) in &node.counters {
                out.push_str(&format!(" {k}={v}"));
            }
            for (k, v) in &node.notes {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for c in &node.children {
                emit(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            emit(r, 0, &mut out);
        }
        out
    }
}

/// Human-scaled duration: ns under 10µs, µs under 10ms, ms otherwise.
fn format_nanos(nanos: u128) -> String {
    if nanos < 10_000 {
        format!("{nanos}ns")
    } else if nanos < 10_000_000 {
        format!("{}.{:02}us", nanos / 1_000, (nanos % 1_000) / 10)
    } else {
        format!(
            "{}.{:02}ms",
            nanos / 1_000_000,
            (nanos % 1_000_000) / 10_000
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionProfile {
        ExecutionProfile {
            roots: vec![ProfileNode {
                name: "run".into(),
                nanos: 1_234_567,
                counters: vec![("rules".into(), 1)],
                notes: vec![("engine".into(), "xmlgl".into())],
                children: vec![ProfileNode {
                    name: "eval".into(),
                    nanos: 987_654,
                    counters: vec![("bindings".into(), 4)],
                    notes: vec![],
                    children: vec![],
                }],
            }],
        }
    }

    #[test]
    fn text_tree_aligns_and_indents() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("run "));
        assert!(lines[1].starts_with("  eval "));
        assert!(lines[0].contains("rules=1"));
        assert!(lines[0].contains("engine=xmlgl"));
        // Duration column is aligned: both duration fields start at the
        // same character offset (after the dot leaders).
        let col0 = lines[0].find(". ").unwrap();
        let col1 = lines[1].find(". ").unwrap();
        assert_eq!(col0, col1);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"spans\":["));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"counters\":{\"rules\":1}"));
        assert!(json.contains("\"notes\":{\"engine\":\"xmlgl\"}"));
        assert!(json.contains("\"name\":\"eval\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_special_characters() {
        let p = ExecutionProfile {
            roots: vec![ProfileNode {
                name: "a\"b\\c\n".into(),
                nanos: 0,
                counters: vec![],
                notes: vec![("k".into(), "tab\there".into())],
                children: vec![],
            }],
        };
        let json = p.to_json();
        assert!(json.contains("a\\\"b\\\\c\\n"));
        assert!(json.contains("tab\\there"));
    }

    #[test]
    fn shape_omits_durations() {
        let shape = sample().shape();
        assert_eq!(shape, "run rules=1 engine=xmlgl\n  eval bindings=4\n");
        // Same structure with different timings → identical shape.
        let mut other = sample();
        other.roots[0].nanos = 1;
        other.roots[0].children[0].nanos = 99_999;
        assert_eq!(other.shape(), shape);
    }

    #[test]
    fn find_walks_the_tree() {
        let p = sample();
        assert_eq!(p.find("eval").unwrap().counter("bindings"), Some(4));
        assert!(p.find("missing").is_none());
        assert_eq!(p.find_all("eval").len(), 1);
    }

    #[test]
    fn format_nanos_scales() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(12_345), "12.34us");
        assert_eq!(format_nanos(12_345_678), "12.34ms");
    }
}
