//! Resource governance for the gql engines.
//!
//! A [`Budget`] bounds a single evaluation: wall-clock deadline, fixpoint
//! round cap, match/instance-count cap and arena-node cap. A [`Guard`]
//! carries the budget through an evaluation and is probed at the same sites
//! the trace layer instruments (per fixpoint round and delta, per candidate
//! expansion and join batch, per XPath step, per engine phase). Exceeding
//! any limit *trips* the guard: probe calls start returning `false`, deep
//! loops unwind cooperatively by returning truncated partial results, and
//! the nearest `Result`-returning caller converts the trip into a structured
//! [`GuardError`] via [`Guard::checkpoint`]. The error carries a
//! [`ProgressReport`] — phase reached, rounds completed, counts so far —
//! instead of a panic or an unbounded spin.
//!
//! A guard belongs to the one run it bounds, on the thread that runs it,
//! as a `gql_trace::Trace` does: its counters, phase and trip report are
//! plain cells, so a probe is a few loads and stores with no atomic
//! read-modify-write, no lock and no allocation. `Guard` is therefore
//! `Send` but not `Sync`. Only the [`CancelToken`] crosses threads, and a
//! probe reads it with one relaxed load. Every request the query service
//! serves runs under such an enabled guard ([`Guard::with_cancel`]), so the
//! `benches/guard.rs` bench bounds both kinds: the disabled
//! [`Guard::unlimited`] — a `const fn` whose probes are one `Option`
//! discriminant branch, what a direct run with no budget gets from
//! [`RunCtx::none`] — and the enabled one.
//!
//! [`RunCtx`] is what an evaluation is handed besides its inputs: the trace
//! it reports into and the guard that bounds it, as one `Copy` value. Every
//! evaluator layer has exactly one entry point that takes it (DESIGN.md,
//! "Entry points").
//!
//! The [`fault`] module is the test-only injection seam driving the
//! degradation ladder (indexed → scan): the testkit installs a
//! [`fault::FaultPlan`] and the engines consult it at the exact boundaries
//! where real faults would surface.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gql_trace::{SpanGuard, Trace};

/// Resource limits for one evaluation. All limits are optional; an
/// unlimited budget never trips. Budgets are plain data — attach one to an
/// evaluation with [`Guard::new`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from `Guard::new`. The guard reads
    /// the clock at every [`Guard::checkpoint`] and every round charged
    /// ([`Guard::charge_rounds`]), and at other probes 1, 2, 4, … up to
    /// [`DEADLINE_CADENCE`] and every `DEADLINE_CADENCE`-th after, so a run
    /// trips at its first checkpoint or round after the deadline or within
    /// `DEADLINE_CADENCE` probes of it, whichever comes first.
    pub timeout: Option<Duration>,
    /// Cap on fixpoint rounds (WG-Log) / step iterations charged via
    /// [`Guard::charge_rounds`].
    pub max_rounds: Option<u64>,
    /// Cap on matches / bindings / context items charged via
    /// [`Guard::charge_matches`]. Intermediate partial rows count too: this
    /// is a work cap, not an exact result-cardinality cap.
    pub max_matches: Option<u64>,
    /// Cap on arena nodes / instance objects+edges created, charged via
    /// [`Guard::charge_nodes`].
    pub max_nodes: Option<u64>,
}

impl Budget {
    /// A budget with no limits. `Guard::new(Budget::unlimited())` still
    /// counts probes (useful for overhead measurement) but never trips.
    pub const fn unlimited() -> Budget {
        Budget {
            timeout: None,
            max_rounds: None,
            max_matches: None,
            max_nodes: None,
        }
    }

    /// True if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.max_rounds.is_none()
            && self.max_matches.is_none()
            && self.max_nodes.is_none()
    }

    pub fn with_timeout(mut self, d: Duration) -> Budget {
        self.timeout = Some(d);
        self
    }

    pub fn with_timeout_ms(self, ms: u64) -> Budget {
        self.with_timeout(Duration::from_millis(ms))
    }

    pub fn with_max_rounds(mut self, n: u64) -> Budget {
        self.max_rounds = Some(n);
        self
    }

    pub fn with_max_matches(mut self, n: u64) -> Budget {
        self.max_matches = Some(n);
        self
    }

    pub fn with_max_nodes(mut self, n: u64) -> Budget {
        self.max_nodes = Some(n);
        self
    }
}

/// Probes between two deadline checks once a run has made this many (a
/// power of two). A clock reading costs ten to twenty times a probe's
/// loads and stores; one per 256 probes is a fifth of a nanosecond a
/// probe, and 256 probes are microseconds of a run.
pub const DEADLINE_CADENCE: u64 = 256;

/// Cooperative cancellation handle. Clone it, hand one clone to the caller
/// and attach the other to a guard via [`Guard::with_cancel`]; the next
/// probe after [`CancelToken::cancel`] trips the guard.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    // The flag carries no data, so neither side orders anything around it:
    // a relaxed store and load, one plain load on a probe.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which limit tripped the guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// Wall-clock deadline exceeded.
    Timeout,
    /// The attached [`CancelToken`] was cancelled.
    Cancelled,
    /// Fixpoint-round / step cap exceeded.
    Rounds,
    /// Match / binding / context-item cap exceeded.
    Matches,
    /// Arena-node / instance-growth cap exceeded.
    Nodes,
}

impl LimitKind {
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::Timeout => "timeout",
            LimitKind::Cancelled => "cancelled",
            LimitKind::Rounds => "rounds",
            LimitKind::Matches => "matches",
            LimitKind::Nodes => "nodes",
        }
    }
}

/// Partial-progress snapshot taken when a guard trips: how far the
/// evaluation got. Mirrors the counters the `ExecutionProfile` carries so
/// the two reports line up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgressReport {
    /// Engine phase reached (`analyze`, `index`, `load`, `parse`, `eval`,
    /// `construct`).
    pub phase: &'static str,
    /// Rounds completed before the trip.
    pub rounds: u64,
    /// Matches / bindings / context items charged before the trip.
    pub matches: u64,
    /// Arena nodes / instance objects+edges charged before the trip.
    pub nodes: u64,
    /// Wall-clock time elapsed at the trip.
    pub elapsed: Duration,
}

impl ProgressReport {
    /// Deterministic rendering: everything except `elapsed`. Two runs of
    /// the same seed under the same (time-free) budget produce identical
    /// shapes; see the budget-boundary property tests.
    pub fn shape(&self) -> String {
        format!(
            "phase={} rounds={} matches={} nodes={}",
            self.phase, self.rounds, self.matches, self.nodes
        )
    }

    /// Human rendering including elapsed time.
    pub fn to_text(&self) -> String {
        format!("{} elapsed={:?}", self.shape(), self.elapsed)
    }
}

/// Structured "budget exceeded" error: the limit that tripped plus a
/// partial-progress report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardError {
    pub kind: LimitKind,
    pub report: ProgressReport,
}

impl GuardError {
    /// Deterministic rendering (no elapsed time); used by the determinism
    /// oracles.
    pub fn shape(&self) -> String {
        format!(
            "budget exceeded ({}): {}",
            self.kind.name(),
            self.report.shape()
        )
    }
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exceeded ({}): {}",
            self.kind.name(),
            self.report.to_text()
        )
    }
}

impl std::error::Error for GuardError {}

struct Inner {
    budget: Budget,
    cancel: Option<CancelToken>,
    started: Instant,
    phase: Cell<&'static str>,
    rounds: Cell<u64>,
    matches: Cell<u64>,
    nodes: Cell<u64>,
    /// Total probe firings (for the overhead bench's derived bound).
    probes: Cell<u64>,
    /// Set by the first trip.
    trip: OnceCell<GuardError>,
}

/// Budget enforcement handle threaded through an evaluation.
///
/// Probe calls (`charge_*`, [`Guard::ok`]) return `bool`: `true` means
/// "keep going", `false` means the guard tripped and the caller should
/// unwind cooperatively (return a truncated partial result). Infallible
/// code paths — the XML-GL matcher returns a plain binding table — bail on
/// `false` and rely on the nearest `Result`-returning caller invoking
/// [`Guard::checkpoint`], which converts the recorded trip into the
/// [`GuardError`] and discards the truncated output.
///
/// A guard is owned by its run and is not `Sync`: it cannot be shared
/// between threads. To stop a run from another thread, cancel the
/// [`CancelToken`] it was built with.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<gql_guard::Guard>();
/// ```
pub struct Guard {
    inner: Option<Inner>,
}

impl Guard {
    /// The no-op guard: probes are a single discriminant branch, nothing is
    /// counted, nothing ever trips. A direct run with no budget gets it
    /// (through [`RunCtx::none`]); a served request runs under
    /// [`Guard::with_cancel`] instead.
    pub const fn unlimited() -> Guard {
        Guard { inner: None }
    }

    /// An enabled guard enforcing `budget`. The deadline clock starts now.
    pub fn new(budget: Budget) -> Guard {
        Guard::build(budget, None)
    }

    /// An enabled guard that additionally trips when `cancel` fires.
    pub fn with_cancel(budget: Budget, cancel: CancelToken) -> Guard {
        Guard::build(budget, Some(cancel))
    }

    fn build(budget: Budget, cancel: Option<CancelToken>) -> Guard {
        Guard {
            inner: Some(Inner {
                budget,
                cancel,
                started: Instant::now(),
                phase: Cell::new(""),
                rounds: Cell::new(0),
                matches: Cell::new(0),
                nodes: Cell::new(0),
                probes: Cell::new(0),
                trip: OnceCell::new(),
            }),
        }
    }

    /// Record the engine phase currently running (shows up in partial
    /// reports).
    pub fn set_phase(&self, phase: &'static str) {
        if let Some(inner) = &self.inner {
            inner.phase.set(phase);
        }
    }

    /// Charge `n` fixpoint rounds / step iterations. Returns `false` once
    /// tripped.
    #[inline]
    pub fn charge_rounds(&self, n: u64) -> bool {
        match &self.inner {
            None => true,
            Some(inner) => {
                inner.charge(&inner.rounds, inner.budget.max_rounds, n, LimitKind::Rounds)
            }
        }
    }

    /// Charge `n` matches / bindings / context items. Returns `false` once
    /// tripped.
    #[inline]
    pub fn charge_matches(&self, n: u64) -> bool {
        match &self.inner {
            None => true,
            Some(inner) => inner.charge(
                &inner.matches,
                inner.budget.max_matches,
                n,
                LimitKind::Matches,
            ),
        }
    }

    /// Charge `n` arena nodes / instance objects+edges. Returns `false`
    /// once tripped.
    #[inline]
    pub fn charge_nodes(&self, n: u64) -> bool {
        match &self.inner {
            None => true,
            Some(inner) => inner.charge(&inner.nodes, inner.budget.max_nodes, n, LimitKind::Nodes),
        }
    }

    /// Deadline / cancellation / already-tripped check without charging a
    /// counter. Returns `false` once tripped.
    #[inline]
    pub fn ok(&self) -> bool {
        match &self.inner {
            None => true,
            Some(inner) => {
                inner.probe();
                !inner.tripped() && inner.check_ambient(false)
            }
        }
    }

    /// `charge_rounds` in `Result` form for fallible call sites.
    #[inline]
    pub fn try_rounds(&self, n: u64) -> Result<(), GuardError> {
        if self.charge_rounds(n) {
            Ok(())
        } else {
            Err(self.error().expect("tripped guard has an error"))
        }
    }

    /// `charge_matches` in `Result` form for fallible call sites.
    #[inline]
    pub fn try_matches(&self, n: u64) -> Result<(), GuardError> {
        if self.charge_matches(n) {
            Ok(())
        } else {
            Err(self.error().expect("tripped guard has an error"))
        }
    }

    /// `charge_nodes` in `Result` form for fallible call sites.
    #[inline]
    pub fn try_nodes(&self, n: u64) -> Result<(), GuardError> {
        if self.charge_nodes(n) {
            Ok(())
        } else {
            Err(self.error().expect("tripped guard has an error"))
        }
    }

    /// Convert a recorded trip into its error. Call this after running an
    /// infallible section (the XML-GL matcher) so truncated partial results
    /// are discarded rather than returned as answers. Also performs an
    /// ambient (deadline / cancellation) check, reading the clock whatever
    /// the probe count.
    pub fn checkpoint(&self) -> Result<(), GuardError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => {
                inner.probe();
                if !inner.tripped() {
                    inner.check_ambient(true);
                }
                match inner.trip.get() {
                    Some(e) => Err(e.clone()),
                    None => Ok(()),
                }
            }
        }
    }

    /// The trip error, if the guard has tripped.
    pub fn error(&self) -> Option<GuardError> {
        self.inner.as_ref()?.trip.get().cloned()
    }

    /// Current progress snapshot (enabled guards only).
    pub fn report(&self) -> Option<ProgressReport> {
        self.inner.as_ref().map(|inner| inner.snapshot())
    }

    /// Total probe firings so far (enabled guards only; the overhead bench
    /// multiplies this by the measured cost of a probe).
    pub fn probes(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.probes.get(),
        }
    }
}

/// What a run carries besides its inputs: where it reports ([`Trace`]) and
/// what bounds it ([`Guard`]). Two borrowed handles, `Copy`, passed by value
/// down every layer. [`RunCtx::none`] is the plain run — tracing off,
/// nothing bounded — and costs nothing to build.
///
/// A `Trace` and a `Guard` belong to one thread, so a `RunCtx` is not
/// `Send`: an evaluation runs whole on the thread it was handed to.
#[derive(Clone, Copy)]
pub struct RunCtx<'a> {
    pub trace: &'a Trace,
    pub guard: &'a Guard,
}

impl RunCtx<'static> {
    /// Tracing disabled, guard unlimited: every probe is one branch.
    pub fn none() -> RunCtx<'static> {
        // A constant, not a static: a `Guard` is not `Sync`. The disabled
        // guard has no cells to share.
        const UNLIMITED: &Guard = &Guard { inner: None };
        RunCtx {
            trace: Trace::OFF,
            guard: UNLIMITED,
        }
    }
}

impl<'a> RunCtx<'a> {
    pub fn new(trace: &'a Trace, guard: &'a Guard) -> RunCtx<'a> {
        RunCtx { trace, guard }
    }

    /// Report into `trace`, bound nothing.
    pub fn traced(trace: &'a Trace) -> RunCtx<'a> {
        RunCtx {
            trace,
            ..RunCtx::none()
        }
    }

    /// Run under `guard`, report nowhere.
    pub fn guarded(guard: &'a Guard) -> RunCtx<'a> {
        RunCtx {
            guard,
            ..RunCtx::none()
        }
    }

    /// Enter an engine phase: opens the phase's span (a
    /// [`Trace::phase`], which ends where the next phase begins) and names
    /// the phase in the guard's partial-progress report, which must never
    /// disagree.
    pub fn phase(&self, name: &'static str) -> SpanGuard<'a> {
        self.guard.set_phase(name);
        self.trace.phase(name)
    }
}

impl Inner {
    #[inline]
    fn probe(&self) {
        self.probes.set(self.probes.get() + 1);
    }

    #[inline]
    fn tripped(&self) -> bool {
        self.trip.get().is_some()
    }

    #[inline]
    fn charge(&self, counter: &Cell<u64>, limit: Option<u64>, n: u64, kind: LimitKind) -> bool {
        self.probe();
        if self.tripped() {
            return false;
        }
        // Saturating: a charge of `u64::MAX` (a row count that saturated)
        // trips a limit instead of wrapping under it.
        let total = counter.get().saturating_add(n);
        counter.set(total);
        if limit.is_some_and(|cap| total > cap) {
            self.trip(kind);
            return false;
        }
        // A round (a fixpoint round, an XPath step) may take long: the
        // deadline is read at every one.
        self.check_ambient(kind == LimitKind::Rounds)
    }

    /// Cancellation and deadline checks (no counter charging). Returns
    /// `false` if either tripped the guard. The cancel flag is read every
    /// time; the clock only when `always`, or when the probe count is due
    /// (see [`Budget::timeout`]).
    #[inline]
    fn check_ambient(&self, always: bool) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(LimitKind::Cancelled);
            return false;
        }
        if let Some(timeout) = self.budget.timeout {
            let probe = self.probes.get();
            // Probes 1, 2, 4, …, DEADLINE_CADENCE, then its multiples.
            let due = always || probe & (probe.min(DEADLINE_CADENCE) - 1) == 0;
            if due && self.started.elapsed() > timeout {
                self.trip(LimitKind::Timeout);
                return false;
            }
        }
        true
    }

    /// First trip wins; later limit hits keep the original report.
    fn trip(&self, kind: LimitKind) {
        self.trip.get_or_init(|| GuardError {
            kind,
            report: self.snapshot(),
        });
    }

    fn snapshot(&self) -> ProgressReport {
        ProgressReport {
            phase: self.phase.get(),
            rounds: self.rounds.get(),
            matches: self.matches.get(),
            nodes: self.nodes.get(),
            elapsed: self.started.elapsed(),
        }
    }
}

pub mod fault {
    //! Fault-injection seams for the degradation ladder.
    //!
    //! A [`FaultPlan`] describes which faults to inject; [`with_plan`]
    //! installs it process-globally for the duration of a closure (plans
    //! are serialized by a lock so concurrent tests don't interleave
    //! plans). The engines consult the cheap [`active`] flag first — a
    //! single relaxed atomic load — so production runs with no plan pay
    //! one branch per seam. The two index seams fire only on the thread
    //! that installed the plan: without its index an XML-GL run is refused,
    //! so a plan reaching a run on another thread (a concurrent test) would
    //! change that run's outcome.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::thread::{self, ThreadId};

    /// Which faults to inject. All default off.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        /// The engine's index build "fails": XPath must fall back to scan
        /// mode, XML-GL must refuse the run by name.
        pub fail_index_build: bool,
        /// A freshly built posting list is corrupted; integrity
        /// verification must catch it, and the engine answers as under
        /// `fail_index_build`.
        pub corrupt_postings: bool,
        /// The fixpoint stalls (sleeps [`FaultPlan::stall_ms`]) at the
        /// start of every round `>= M`; a deadline budget must trip.
        pub stall_round: Option<u64>,
        /// Stall duration per round, milliseconds (default 25).
        pub stall_ms: u64,
        /// A cached plan entry is corrupted in place; validation must
        /// catch it and replan from scratch.
        pub corrupt_plan_cache: bool,
        /// Service/wire faults, as *token budgets*: each seam hit consumes
        /// one token ([`take_torn_reply`] etc.), so a storm sees exactly N
        /// injected faults and a retrying client deterministically
        /// recovers once the budget is spent.
        ///
        /// Tear the next N reply frames: the server writes a partial
        /// length-prefixed frame and drops the connection mid-body.
        pub torn_replies: u64,
        /// Drop the next N replies entirely: the job executes, then the
        /// connection closes before any reply frame is written (exercises
        /// at-most-once delivery through the idempotency map).
        pub drop_replies: u64,
        /// Panic the next N pool jobs after their start event; the worker
        /// supervisor must answer structurally and keep the queue alive.
        pub panic_jobs: u64,
    }

    impl FaultPlan {
        pub fn fail_index_build() -> FaultPlan {
            FaultPlan {
                fail_index_build: true,
                ..FaultPlan::default()
            }
        }

        pub fn corrupt_postings() -> FaultPlan {
            FaultPlan {
                corrupt_postings: true,
                ..FaultPlan::default()
            }
        }

        pub fn stall_round(m: u64) -> FaultPlan {
            FaultPlan {
                stall_round: Some(m),
                stall_ms: 25,
                ..FaultPlan::default()
            }
        }

        pub fn corrupt_plan_cache() -> FaultPlan {
            FaultPlan {
                corrupt_plan_cache: true,
                ..FaultPlan::default()
            }
        }

        /// Tear the next `n` wire reply frames mid-write.
        pub fn torn_replies(n: u64) -> FaultPlan {
            FaultPlan {
                torn_replies: n,
                ..FaultPlan::default()
            }
        }

        /// Drop the next `n` wire replies after execution.
        pub fn drop_replies(n: u64) -> FaultPlan {
            FaultPlan {
                drop_replies: n,
                ..FaultPlan::default()
            }
        }

        /// Panic the next `n` service pool jobs.
        pub fn panic_jobs(n: u64) -> FaultPlan {
            FaultPlan {
                panic_jobs: n,
                ..FaultPlan::default()
            }
        }
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);

    fn plan_slot() -> &'static Mutex<FaultPlan> {
        static SLOT: OnceLock<Mutex<FaultPlan>> = OnceLock::new();
        SLOT.get_or_init(|| Mutex::new(FaultPlan::default()))
    }

    /// The thread that installed the current plan.
    fn installer() -> &'static Mutex<Option<ThreadId>> {
        static INSTALLER: Mutex<Option<ThreadId>> = Mutex::new(None);
        &INSTALLER
    }

    fn exclusion() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Run `f` while no plan is installed and none can be: the unit tests'
    /// "nothing is active outside `with_plan`" assertions would otherwise
    /// observe a plan held by a test on another thread.
    #[cfg(test)]
    pub(crate) fn while_idle<T>(f: impl FnOnce() -> T) -> T {
        let _serial = exclusion()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f()
    }

    /// Cheap "any plan installed?" check — the first gate at every seam.
    #[inline]
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Install `plan` for the duration of `f`. Plans are process-global
    /// and serialized: concurrent callers block until the current plan is
    /// cleared. The plan is cleared even if `f` panics.
    pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
        let _serial: MutexGuard<'_, ()> = match exclusion().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                ACTIVE.store(false, Ordering::Relaxed);
                *installer().lock().unwrap_or_else(PoisonError::into_inner) = None;
                match plan_slot().lock() {
                    Ok(mut p) => *p = FaultPlan::default(),
                    Err(poisoned) => *poisoned.into_inner() = FaultPlan::default(),
                }
            }
        }
        *plan_slot().lock().unwrap() = plan;
        *installer().lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current().id());
        ACTIVE.store(true, Ordering::Relaxed);
        let _reset = Reset;
        f()
    }

    fn installed() -> FaultPlan {
        match plan_slot().lock() {
            Ok(p) => p.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Did this thread install the current plan?
    fn installed_here() -> bool {
        *installer().lock().unwrap_or_else(PoisonError::into_inner) == Some(thread::current().id())
    }

    /// Seam: should the index build be treated as failed? Only on the
    /// thread that installed the plan.
    #[inline]
    pub fn fail_index_build() -> bool {
        active() && installed_here() && installed().fail_index_build
    }

    /// Seam: should the freshly built posting lists be corrupted? Only on
    /// the thread that installed the plan.
    #[inline]
    pub fn corrupt_postings() -> bool {
        active() && installed_here() && installed().corrupt_postings
    }

    /// Seam: should the cached plan entry about to be served be corrupted
    /// first? The engine corrupts the entry in place, so the subsequent
    /// validation failure exercises the real replan path.
    #[inline]
    pub fn corrupt_plan_cache() -> bool {
        active() && installed().corrupt_plan_cache
    }

    /// Seam: sleep `stall_ms` if the plan stalls this round. Called at the
    /// start of every fixpoint round.
    #[inline]
    pub fn maybe_stall_round(round: u64) {
        if !active() {
            return;
        }
        let plan = installed();
        if let Some(m) = plan.stall_round {
            if round >= m {
                std::thread::sleep(std::time::Duration::from_millis(plan.stall_ms.max(1)));
            }
        }
    }

    /// Consume one token from the installed plan's `field`, returning
    /// true exactly `initial budget` times across all threads.
    fn take_token(field: impl Fn(&mut FaultPlan) -> &mut u64) -> bool {
        if !active() {
            return false;
        }
        let mut plan = match plan_slot().lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        let tokens = field(&mut plan);
        if *tokens > 0 {
            *tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Seam: should this wire reply frame be torn mid-write? Consumes one
    /// `torn_replies` token.
    pub fn take_torn_reply() -> bool {
        take_token(|p| &mut p.torn_replies)
    }

    /// Seam: should this wire reply be dropped (connection closed without
    /// writing)? Consumes one `drop_replies` token.
    pub fn take_drop_reply() -> bool {
        take_token(|p| &mut p.drop_replies)
    }

    /// Seam: should this pool job panic? Consumes one `panic_jobs` token.
    pub fn take_panic_job() -> bool {
        take_token(|p| &mut p.panic_jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tokens_decrement_across_takes_and_clear_with_the_plan() {
        fault::with_plan(fault::FaultPlan::torn_replies(2), || {
            assert!(fault::take_torn_reply());
            assert!(fault::take_torn_reply());
            assert!(!fault::take_torn_reply(), "token budget spent");
            assert!(!fault::take_drop_reply(), "other seams unaffected");
            assert!(!fault::take_panic_job());
        });
        fault::with_plan(fault::FaultPlan::panic_jobs(1), || {
            assert!(fault::take_panic_job());
            assert!(!fault::take_panic_job());
        });
        fault::while_idle(|| assert!(!fault::take_torn_reply(), "no plan installed, no faults"));
    }

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            assert!(g.charge_rounds(1));
            assert!(g.charge_matches(1_000_000));
            assert!(g.charge_nodes(1_000_000));
            assert!(g.ok());
        }
        assert!(g.checkpoint().is_ok());
        assert!(g.error().is_none());
        assert_eq!(g.probes(), 0);
    }

    #[test]
    fn run_ctx_none_is_inert_and_phase_names_both_sides() {
        let none = RunCtx::none();
        assert!(!none.trace.is_enabled());
        drop(none.phase("eval"));
        assert!(none.guard.report().is_none());

        let trace = Trace::profiling();
        let guard = Guard::new(Budget::unlimited());
        let ctx = RunCtx::new(&trace, &guard);
        drop(ctx.phase("load"));
        assert_eq!(guard.report().unwrap().phase, "load");
        assert!(RunCtx::traced(&trace).guard.report().is_none());
        assert!(!RunCtx::guarded(&guard).trace.is_enabled());
        assert_eq!(trace.finish().unwrap().shape(), "load\n");
    }

    #[test]
    fn round_cap_trips_with_report() {
        let g = Guard::new(Budget::unlimited().with_max_rounds(3));
        g.set_phase("eval");
        assert!(g.charge_rounds(1));
        assert!(g.charge_rounds(1));
        assert!(g.charge_rounds(1));
        assert!(!g.charge_rounds(1), "fourth round must trip");
        assert!(!g.ok(), "tripped guard stays tripped");
        let err = g.checkpoint().unwrap_err();
        assert_eq!(err.kind, LimitKind::Rounds);
        assert_eq!(err.report.phase, "eval");
        assert_eq!(err.report.rounds, 4);
        assert_eq!(
            err.shape(),
            "budget exceeded (rounds): phase=eval rounds=4 matches=0 nodes=0"
        );
    }

    #[test]
    fn match_and_node_caps_trip() {
        let g = Guard::new(Budget::unlimited().with_max_matches(10));
        assert!(g.charge_matches(10));
        assert!(!g.charge_matches(1));
        assert_eq!(g.error().unwrap().kind, LimitKind::Matches);

        let g = Guard::new(Budget::unlimited().with_max_nodes(5));
        assert!(!g.charge_nodes(6));
        assert_eq!(g.error().unwrap().kind, LimitKind::Nodes);
    }

    #[test]
    fn first_trip_wins() {
        let g = Guard::new(Budget::unlimited().with_max_rounds(1).with_max_matches(1));
        assert!(!g.charge_matches(2));
        assert!(!g.charge_rounds(2));
        assert_eq!(g.error().unwrap().kind, LimitKind::Matches);
    }

    #[test]
    fn deadline_trips() {
        let g = Guard::new(Budget::unlimited().with_timeout(Duration::from_millis(5)));
        assert!(g.ok());
        std::thread::sleep(Duration::from_millis(10));
        assert!(!g.ok());
        assert_eq!(g.error().unwrap().kind, LimitKind::Timeout);
        assert!(g.error().unwrap().report.elapsed >= Duration::from_millis(5));
    }

    /// Past its first `DEADLINE_CADENCE` probes, a run reads the clock on
    /// every `DEADLINE_CADENCE`-th probe, and at every checkpoint and round.
    #[test]
    fn a_deadline_is_read_on_a_bounded_cadence() {
        let budget = Budget::unlimited().with_timeout(Duration::from_millis(100));
        let g = Guard::new(budget.clone());
        for _ in 0..=DEADLINE_CADENCE {
            assert!(g.ok());
        }
        std::thread::sleep(Duration::from_millis(150));
        let mut late = 0;
        while g.ok() {
            late += 1;
        }
        assert_eq!(late, DEADLINE_CADENCE - 2, "probes after the deadline");
        assert_eq!(g.probes(), 2 * DEADLINE_CADENCE);
        assert_eq!(g.error().unwrap().kind, LimitKind::Timeout);

        // A checkpoint or a round reads it whatever the count.
        for check in [
            |g: &Guard| g.checkpoint().is_ok(),
            |g: &Guard| g.charge_rounds(1),
        ] {
            let g = Guard::new(budget.clone());
            for _ in 0..=DEADLINE_CADENCE {
                assert!(g.ok());
            }
            std::thread::sleep(Duration::from_millis(150));
            assert!(!check(&g));
            assert_eq!(g.error().unwrap().kind, LimitKind::Timeout);
        }
    }

    #[test]
    fn cancel_token_trips() {
        let token = CancelToken::new();
        let g = Guard::with_cancel(Budget::unlimited(), token.clone());
        assert!(g.ok());
        token.cancel();
        assert!(!g.charge_matches(1));
        assert_eq!(g.error().unwrap().kind, LimitKind::Cancelled);
    }

    #[test]
    fn probes_counted_when_enabled() {
        let g = Guard::new(Budget::unlimited());
        for _ in 0..100 {
            g.ok();
            g.charge_matches(1);
        }
        assert_eq!(g.probes(), 200);
    }

    #[test]
    fn fault_plan_installs_and_clears() {
        fault::while_idle(|| assert!(!fault::active()));
        fault::with_plan(fault::FaultPlan::fail_index_build(), || {
            assert!(fault::active());
            assert!(fault::fail_index_build());
            assert!(!fault::corrupt_postings());
        });
        fault::while_idle(|| {
            assert!(!fault::active());
            assert!(!fault::fail_index_build());
        });
    }

    #[test]
    fn index_faults_fire_only_on_the_installing_thread() {
        fault::with_plan(fault::FaultPlan::corrupt_postings(), || {
            assert!(fault::corrupt_postings());
            std::thread::scope(|s| {
                s.spawn(|| assert!(fault::active() && !fault::corrupt_postings()));
            });
        });
    }

    #[test]
    fn fault_plan_clears_after_panic() {
        let r = std::panic::catch_unwind(|| {
            fault::with_plan(fault::FaultPlan::fail_index_build(), || {
                panic!("closure panics with a plan installed");
            })
        });
        assert!(r.is_err());
        fault::while_idle(|| {
            assert!(
                !fault::active(),
                "plan must clear even when the closure panics"
            )
        });
    }

    #[test]
    fn corrupt_plan_cache_seam_gates_on_plan() {
        fault::while_idle(|| assert!(!fault::corrupt_plan_cache()));
        fault::with_plan(fault::FaultPlan::corrupt_plan_cache(), || {
            assert!(fault::corrupt_plan_cache());
            assert!(!fault::fail_index_build());
        });
        fault::while_idle(|| assert!(!fault::corrupt_plan_cache()));
    }

    #[test]
    fn report_shape_excludes_elapsed() {
        let r = ProgressReport {
            phase: "eval",
            rounds: 2,
            matches: 7,
            nodes: 3,
            elapsed: Duration::from_millis(123),
        };
        assert_eq!(r.shape(), "phase=eval rounds=2 matches=7 nodes=3");
        assert!(r.to_text().contains("elapsed="));
    }
}
