//! # gql-trace — structured execution tracing and engine metrics
//!
//! A lightweight, dependency-free span-tree + typed-counter layer that every
//! engine in the workspace reports through. The design goals, in order:
//!
//! 1. **Nearly free when on, one branch when off.** The engine-facing
//!    handle is [`Trace`], an `Option` around one [`TraceLog`]:
//!    [`Trace::disabled()`] holds `None`, so every operation is one branch.
//!    An enabled handle appends each probe to the log's flat arrays — no
//!    allocation, lookup or lock per probe — and the log's buffers are
//!    reused from run to run ([`TraceLog::record`]), which is what lets
//!    the query service trace every request it serves. A span reads the
//!    clock at its open and its close; a *phase* ([`Trace::phase`]) only at
//!    its open, because the phases of a run tile it and each one ends where
//!    the next begins.
//!    Engines thread a `&Trace` unconditionally; hot loops additionally
//!    aggregate into plain integers and report once per coarse phase (per
//!    root, per join, per fixpoint round, per XPath step), never per
//!    candidate.
//! 2. **One model for all three engines.** A trace is a tree of *spans*
//!    (named, wall-clock-timed phases) carrying *counters* (named `u64`
//!    accumulators) and *notes* (named string facts such as
//!    `path=indexed`). The span taxonomy per engine is documented in
//!    DESIGN.md and treated as a stable surface.
//! 3. **Deterministic shape.** Counters and notes must be derived from the
//!    query/data alone, never from timing; [`ExecutionProfile::shape`]
//!    renders the tree without durations, and the testkit asserts that two
//!    runs of the same case produce identical shapes.
//!
//! The tree itself — an [`ExecutionProfile`], renderable as an aligned text
//! tree or machine-readable JSON (see [`profile`]) — is built from the log
//! when someone asks for it: [`Trace::finish`], [`TraceLog::profile`].
//!
//! ```
//! use gql_trace::Trace;
//!
//! let trace = Trace::profiling();
//! {
//!     let _eval = trace.span("eval");
//!     {
//!         let _m = trace.span(format_args!("rule[{}]", 0));
//!         trace.count("candidates", 42);
//!         trace.note("path", "indexed");
//!     }
//!     trace.count("bindings", 7);
//! }
//! let profile = trace.finish().expect("a profiling trace yields a profile");
//! let eval = &profile.roots[0];
//! assert_eq!(eval.name, "eval");
//! assert_eq!(eval.counter("bindings"), Some(7));
//! assert_eq!(eval.children[0].name, "rule[0]");
//! assert_eq!(eval.children[0].counter("candidates"), Some(42));
//! ```

pub mod json;
pub mod profile;
mod record;

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::time::Instant;

pub use profile::{ExecutionProfile, ProfileNode};
pub use record::TraceLog;

/// The text of a span, counter or note name, or of a note value: a string,
/// or `format_args!(..)` for a computed label (`rule[3]`,
/// `candidates[q0:restaurant]`), which is formatted straight into the
/// log's byte arena — there is no `String` per label.
pub trait Label {
    #[doc(hidden)]
    fn append_to(self, arena: &mut String);
}

impl Label for &str {
    #[inline]
    fn append_to(self, arena: &mut String) {
        arena.push_str(self);
    }
}

impl Label for fmt::Arguments<'_> {
    #[inline]
    fn append_to(self, arena: &mut String) {
        // Writing to a `String` cannot fail; a `Display` impl that returns
        // an error leaves its label cut short, which a probe must survive.
        let _ = arena.write_fmt(self);
    }
}

/// `items` separated by `sep`: the value of a note that lists several
/// numbers (`join_order[0]=2,0,1`), formatted without collecting them.
pub fn joined<'a, I>(items: I, sep: &'a str) -> impl Label + 'a
where
    I: IntoIterator + 'a,
    I::Item: fmt::Display,
{
    struct Joined<'a, I>(I, &'a str);

    impl<I: IntoIterator> Label for Joined<'_, I>
    where
        I::Item: fmt::Display,
    {
        fn append_to(self, arena: &mut String) {
            for (i, item) in self.0.into_iter().enumerate() {
                if i > 0 {
                    arena.push_str(self.1);
                }
                format_args!("{item}").append_to(arena);
            }
        }
    }

    Joined(items, sep)
}

/// The engine-facing tracing handle. Cheap to construct in both states;
/// engines accept `&Trace` unconditionally and the disabled state turns
/// every operation into a single branch.
///
/// A trace belongs to the thread running the evaluation: it is `Send`, not
/// `Sync`. Evaluations are single-threaded, so nothing ever shares one.
pub struct Trace {
    log: Option<RefCell<TraceLog>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// The no-op handle: every operation is one branch, no allocation.
    pub const fn disabled() -> Trace {
        Trace { log: None }
    }

    /// The no-op handle by reference, for a holder that borrows its trace
    /// and has none to borrow (`gql_guard::RunCtx::none`). Sharing it
    /// between threads is sound although a `Trace` is not `Sync`: a disabled
    /// handle has no log to touch.
    pub const OFF: &'static Trace = &Trace { log: None };

    /// A tracing handle over a fresh log, for a one-shot caller;
    /// [`Trace::finish`] recovers the profile. A caller tracing run after
    /// run keeps a [`TraceLog`] and uses [`TraceLog::record`].
    pub fn profiling() -> Trace {
        Trace {
            log: Some(RefCell::default()),
        }
    }

    /// Is anything listening? Callers computing counters only a profile
    /// wants should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Open a span; it closes (and records its wall-clock duration) when
    /// the returned guard drops. An open and a close read the clock once
    /// each.
    #[inline]
    pub fn span(&self, name: impl Label) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Open a *phase*: a span that tiles its parent with its sibling
    /// phases. It leaves the open-span stack when its guard drops, as a span
    /// does, but reads no clock then: its end is stamped by the next
    /// reading its log takes — the next phase's open, or its parent's
    /// close. A phase boundary therefore costs one clock reading, and the
    /// time between two phases (a checkpoint, a note on the parent) counts
    /// to the phase before it.
    #[inline]
    pub fn phase(&self, name: impl Label) -> SpanGuard<'_> {
        self.open(name, true)
    }

    #[inline]
    fn open(&self, name: impl Label, tiles: bool) -> SpanGuard<'_> {
        SpanGuard {
            trace: self,
            open: self
                .log
                .as_ref()
                .map(|log| log.borrow_mut().record_open(name)),
            tiles,
        }
    }

    /// Add `delta` to the named counter on the innermost open span.
    #[inline]
    pub fn count(&self, name: impl Label, delta: u64) {
        if let Some(log) = &self.log {
            log.borrow_mut().record_count(name, delta);
        }
    }

    /// Attach a string fact (`path=indexed`, `cache=hit`) to the innermost
    /// open span. Re-noting a name overwrites its value.
    #[inline]
    pub fn note(&self, name: impl Label, value: impl Label) {
        if let Some(log) = &self.log {
            log.borrow_mut().record_note(name, value);
        }
    }

    /// Consume the handle and build the span tree; `None` for a disabled
    /// handle.
    pub fn finish(self) -> Option<ExecutionProfile> {
        self.log.map(|log| {
            let mut log = log.into_inner();
            log.settle();
            log.profile()
        })
    }
}

impl TraceLog {
    /// Trace one run into this log: its previous contents are forgotten,
    /// its buffers reused, and whatever `run` reports through the handle
    /// is here to read when it returns. (If `run` panics the buffers go
    /// with it and the log is left empty.)
    pub fn record<R>(&mut self, run: impl FnOnce(&Trace) -> R) -> R {
        self.clear();
        let trace = Trace {
            log: Some(RefCell::new(std::mem::take(self))),
        };
        let out = run(&trace);
        *self = trace.log.map(RefCell::into_inner).unwrap_or_default();
        self.settle();
        out
    }
}

/// RAII guard returned by [`Trace::span`] and [`Trace::phase`]; closes the
/// span on drop.
#[must_use = "a span lasts as long as its guard; dropping immediately records an empty span"]
pub struct SpanGuard<'t> {
    trace: &'t Trace,
    open: Option<(u32, Instant)>,
    tiles: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some((id, started)), Some(log)) = (self.open.take(), &self.trace.log) {
            // `try_`: a guard dropped while a panic unwinds through a probe
            // must not panic again.
            if let Ok(mut log) = log.try_borrow_mut() {
                log.record_close(id, started, self.tiles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("anything");
            t.count("c", 1);
            t.note("n", "v");
        }
        assert!(t.finish().is_none());
    }

    #[test]
    fn span_nesting_and_counters_are_exact() {
        let t = Trace::profiling();
        {
            let _run = t.span("run");
            {
                let _m = t.span("match");
                t.count("candidates", 10);
                t.count("candidates", 5);
                t.note("path", "scan");
                t.note("path", "indexed"); // overwrite
            }
            {
                let _c = t.span("construct");
                t.count("nodes", 3);
            }
            t.count("rules", 1);
        }
        let p = t.finish().unwrap();
        assert_eq!(p.roots.len(), 1);
        let run = &p.roots[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.counter("rules"), Some(1));
        assert_eq!(run.children.len(), 2);
        assert_eq!(run.children[0].name, "match");
        assert_eq!(run.children[0].counter("candidates"), Some(15));
        assert_eq!(run.children[0].note("path"), Some("indexed"));
        assert_eq!(run.children[1].counter("nodes"), Some(3));
    }

    #[test]
    fn sibling_spans_and_multiple_roots() {
        let t = Trace::profiling();
        {
            let _a = t.span("a");
        }
        {
            let _b = t.span("b");
            {
                let _c = t.span("c");
            }
        }
        let p = t.finish().unwrap();
        assert_eq!(
            p.roots.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(p.roots[1].children[0].name, "c");
    }

    #[test]
    fn counters_outside_spans_survive_as_toplevel() {
        let t = Trace::profiling();
        t.count("loose", 2);
        let p = t.finish().unwrap();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "(toplevel)");
        assert_eq!(p.roots[0].counter("loose"), Some(2));
    }

    #[test]
    fn a_log_is_read_by_reference_and_reused() {
        let mut log = TraceLog::new();
        log.record(|trace| {
            let _run = trace.span("run");
            {
                let _p = trace.span("plan");
                trace.note("plan_cache", "miss");
                trace.note("plan_cache", "hit");
            }
            let _e = trace.span(format_args!("step[{}:{}]", 0, "child"));
        });
        // 3 spans opened and closed, 2 notes.
        assert_eq!(log.probes(), 8);
        let plan = log.find("plan").unwrap();
        assert_eq!(log.note(plan, "plan_cache"), Some("hit"));
        assert_eq!(log.note(plan, "plan"), None);
        assert_eq!(log.find("missing"), None);
        let run = log.find("run").unwrap();
        let phases: Vec<&str> = log.children(run).map(|(name, _)| name).collect();
        assert_eq!(phases, ["plan", "step[0:child]"]);
        let first = log.profile();

        // The next run sees none of the first, and the tree is the same
        // whether built now or after the handle is consumed.
        log.record(|trace| {
            let _only = trace.span("only");
            trace.count("c", 1);
        });
        assert_eq!(log.find("run"), None);
        assert_eq!(log.profile().shape(), "only c=1\n");
        assert_eq!(
            first.shape(),
            "run\n  plan plan_cache=hit\n  step[0:child]\n"
        );
    }

    #[test]
    fn phases_tile_their_parent_at_one_reading_a_boundary() {
        let pause = || std::thread::sleep(std::time::Duration::from_micros(50));
        let mut log = TraceLog::new();
        log.record(|trace| {
            let _run = trace.span("run");
            {
                let _a = trace.phase("a");
                let _op = trace.span("op");
                trace.count("inside", 1);
                pause();
            }
            // Closed phases leave the stack at once: this is the run's.
            trace.count("between", 1);
            let _b = trace.phase("b");
            pause();
        });
        // run: open and close; a, b: open only; op: open and close.
        assert_eq!(log.readings(), 6);
        assert_eq!(log.probes(), 10);
        assert_eq!(
            log.profile().shape(),
            "run between=1\n  a\n    op inside=1\n  b\n"
        );
        let run = log.find("run").unwrap();
        let phases: Vec<u64> = log.children(run).map(|(_, nanos)| nanos).collect();
        assert!(phases.iter().all(|&nanos| nanos >= 50_000), "{phases:?}");
        let (_, op) = log.children(log.find("a").unwrap()).next().unwrap();
        assert!(phases[0] >= op);
        assert!(u128::from(phases.iter().sum::<u64>()) <= log.profile().roots[0].nanos);

        // A phase closed last is stamped when the run ends.
        let t = Trace::profiling();
        {
            let _p = t.phase("p");
            pause();
        }
        assert!(t.finish().unwrap().roots[0].nanos >= 50_000);
    }

    #[test]
    fn leaked_guard_order_is_defended() {
        // Dropping guards out of order (possible via mem::forget games or
        // explicit drop) must not corrupt the tree.
        let t = Trace::profiling();
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // closes a AND pops b from the stack defensively
        {
            let _c = t.span("c");
        }
        drop(b); // late close of an already-popped span is a no-op
        let p = t.finish().unwrap();
        assert_eq!(p.roots.len(), 2);
        assert_eq!(p.roots[0].name, "a");
        assert_eq!(p.roots[0].children[0].name, "b");
        assert_eq!(p.roots[1].name, "c");
    }
}
