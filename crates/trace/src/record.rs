//! The flat trace record behind an enabled [`crate::Trace`].
//!
//! A run's probes append to two arrays and one byte arena: a span per
//! `span` or `phase` call (name, parent, duration filled in when its guard
//! drops, or for a phase at the log's next clock reading), a
//! fact per `count` / `note` call (owning span, name, delta or value), and
//! every name and note value back to back in one `String`. Nothing is
//! looked up, merged or allocated per probe; `clear` keeps the capacity, so
//! a record that has seen one request serves the next without touching the
//! heap. The tree semantics — repeated counters sum, re-noted names
//! overwrite, facts outside any span collect under `(toplevel)` — are
//! applied when a reader asks: [`TraceLog::profile`] builds the
//! [`ExecutionProfile`] tree, and [`TraceLog::find`] / [`TraceLog::note`] /
//! [`TraceLog::children`] answer the few questions the service asks of
//! every request straight from the arrays, by reference.

use std::time::Instant;

use crate::profile::{ExecutionProfile, ProfileNode};
use crate::Label;

/// `parent` of a top-level span, `span` of a fact reported outside any span.
const NONE: u32 = u32::MAX;

/// A slice of the arena.
#[derive(Debug, Clone, Copy)]
struct Text {
    off: u32,
    len: u32,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Text,
    parent: u32,
    /// Zero until (and unless) the span's guard closes it while it is open
    /// (for a phase: until the log's next clock reading after that).
    nanos: u64,
}

#[derive(Debug, Clone, Copy)]
enum FactValue {
    Count(u64),
    Note(Text),
}

#[derive(Debug, Clone, Copy)]
struct Fact {
    span: u32,
    name: Text,
    value: FactValue,
}

/// One run's trace, as recorded. [`TraceLog::record`] traces a run into
/// it; read it, then record the next run into it: its buffers are reused.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// In opening order, which is the preorder of the span tree.
    spans: Vec<Span>,
    /// In reporting order.
    facts: Vec<Fact>,
    /// Every name and note value.
    bytes: String,
    /// The open spans, innermost last.
    stack: Vec<u32>,
    /// A closed phase and its start, waiting for the next clock reading to
    /// stamp its end.
    pending: Option<(u32, Instant)>,
    /// Clock readings taken.
    readings: usize,
}

impl TraceLog {
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Forget the recorded run; keep the buffers.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.facts.clear();
        self.bytes.clear();
        self.stack.clear();
        self.pending = None;
        self.readings = 0;
    }

    /// Read the clock, and end the phase waiting for this reading.
    fn now(&mut self) -> Instant {
        let now = Instant::now();
        self.readings += 1;
        if let Some((id, started)) = self.pending.take() {
            self.spans[id as usize].nanos = nanos(started, now);
        }
        now
    }

    /// End a phase still waiting for a reading (a phase closed last).
    pub(crate) fn settle(&mut self) {
        if self.pending.is_some() {
            self.now();
        }
    }

    fn text(&mut self, label: impl Label) -> Text {
        let off = self.bytes.len() as u32; // checked as the previous `end`
        label.append_to(&mut self.bytes);
        let end = u32::try_from(self.bytes.len()).expect("trace labels exceed 4 GiB");
        Text {
            off,
            len: end - off,
        }
    }

    fn str(&self, t: Text) -> &str {
        &self.bytes[t.off as usize..(t.off + t.len) as usize]
    }

    fn innermost(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NONE)
    }

    pub(crate) fn record_open(&mut self, name: impl Label) -> (u32, Instant) {
        let id = u32::try_from(self.spans.len()).expect("more than 2^32 trace spans");
        let span = Span {
            name: self.text(name),
            parent: self.innermost(),
            nanos: 0,
        };
        self.spans.push(span);
        self.stack.push(id);
        (id, self.now())
    }

    /// Close span `id`, opened at `started`, and every span opened inside
    /// it that is still open (a leaked or out-of-order guard cannot corrupt
    /// deeper nesting). A span that is no longer open closes nothing it
    /// owns: the stack unwinds looking for it and its duration stays zero.
    /// A span that `tiles` (a phase) is stamped at the next reading, not
    /// now.
    pub(crate) fn record_close(&mut self, id: u32, started: Instant, tiles: bool) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                if !tiles {
                    let now = self.now();
                    self.spans[id as usize].nanos = nanos(started, now);
                } else {
                    // Only nested phases close twice without a reading
                    // between them; the inner one is stamped here.
                    self.settle();
                    self.pending = Some((id, started));
                }
                return;
            }
        }
    }

    pub(crate) fn record_count(&mut self, name: impl Label, delta: u64) {
        let fact = Fact {
            span: self.innermost(),
            name: self.text(name),
            value: FactValue::Count(delta),
        };
        self.facts.push(fact);
    }

    pub(crate) fn record_note(&mut self, name: impl Label, value: impl Label) {
        let fact = Fact {
            span: self.innermost(),
            name: self.text(name),
            value: FactValue::Note(self.text(value)),
        };
        self.facts.push(fact);
    }

    /// Probe calls behind this record: an open and a close per span, one
    /// per count and per note.
    pub fn probes(&self) -> usize {
        2 * self.spans.len() + self.facts.len()
    }

    /// Clock readings behind this record: one per span open, one per span
    /// close, none per phase close.
    pub fn readings(&self) -> usize {
        self.readings
    }

    /// The first span named `name`, in the preorder of the span tree (what
    /// [`ExecutionProfile::find`] returns on the built tree).
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| self.str(s.name) == name)
    }

    /// The value last noted under `name` on `span`.
    pub fn note(&self, span: usize, name: &str) -> Option<&str> {
        self.facts.iter().rev().find_map(|f| match f.value {
            FactValue::Note(v) if f.span as usize == span && self.str(f.name) == name => {
                Some(self.str(v))
            }
            _ => None,
        })
    }

    /// Name and duration in nanoseconds of each direct child of `span`, in
    /// opening order.
    pub fn children(&self, span: usize) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.parent as usize == span)
            .map(|s| (self.str(s.name), s.nanos))
    }

    /// Build the span tree. Spans still open are included with the
    /// duration recorded so far (zero if never closed, or a phase closed
    /// but not yet stamped).
    pub fn profile(&self) -> ExecutionProfile {
        let node = |name: &str, nanos: u64| ProfileNode {
            name: name.to_string(),
            nanos: u128::from(nanos),
            counters: Vec::new(),
            notes: Vec::new(),
            children: Vec::new(),
        };
        let mut nodes: Vec<ProfileNode> = self
            .spans
            .iter()
            .map(|s| node(self.str(s.name), s.nanos))
            .collect();
        let mut toplevel = node("(toplevel)", 0);
        for f in &self.facts {
            let target = nodes.get_mut(f.span as usize).unwrap_or(&mut toplevel);
            let name = self.str(f.name);
            match f.value {
                FactValue::Count(delta) => {
                    match target.counters.iter_mut().find(|(n, _)| n == name) {
                        Some((_, v)) => *v += delta,
                        None => target.counters.push((name.to_string(), delta)),
                    }
                }
                FactValue::Note(value) => {
                    let value = self.str(value).to_string();
                    match target.notes.iter_mut().find(|(n, _)| n == name) {
                        Some((_, v)) => *v = value,
                        None => target.notes.push((name.to_string(), value)),
                    }
                }
            }
        }
        // Preorder: a span's children all come after it, so walking
        // backwards every node is complete by the time it moves into its
        // parent — with its children, and the roots, in reverse.
        let mut roots = Vec::new();
        while let Some(mut done) = nodes.pop() {
            done.children.reverse();
            match self.spans[nodes.len()].parent {
                NONE => roots.push(done),
                parent => nodes[parent as usize].children.push(done),
            }
        }
        roots.reverse();
        if !toplevel.counters.is_empty() || !toplevel.notes.is_empty() {
            roots.push(toplevel);
        }
        ExecutionProfile { roots }
    }
}

/// Nanoseconds from `from` to `to`, saturating.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
