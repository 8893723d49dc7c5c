//! `gql-benchmark` — the repository's one performance instrument: four
//! named workloads against `gql-serve` and the three engines, end-to-end
//! metrics from an untraced measured window and per-layer metrics from a
//! separate traced run. See README.md beside this crate for why each
//! workload and metric exists; `BENCHMARK.json` at the repository root
//! declares the command and the bounds.
//!
//! ```text
//! gql-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! gql-benchmark [--seed N] [--seconds S] [--smoke]      # all four, both passes
//! gql-benchmark --compare <a.jsonl> <b.jsonl>
//! ```

mod affinity;
mod calib;
mod compare;
mod load;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gql_metrics::EventKind;
use gql_serve::ServiceMetrics;

use metrics::{Decl, Values, END_TO_END, PER_LAYER};
use stats::Pct;
use workload::{client_count, Fixture, Inputs, Spec, Surface, SPECS};

/// The window the end-to-end metrics are defined at (`run_seconds` in
/// `BENCHMARK.json`): the design's 30 s scaled by 5/6 so that the driver's
/// 92 runs and two builds fit its 3420 s.
const DEFAULT_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 11;
/// Rounds of set-up → measured segment per untraced run. The window is
/// split so that the set-ups are spread over the whole run and not all
/// inside one slow spell of the machine.
const ROUNDS: usize = 5;
/// Groups of idle-service reloads timed on a steady workload: half before
/// its window and half after, so that a slow spell of the machine shorter
/// than the window cannot cover them all.
const IDLE_RELOAD_GROUPS: usize = 8;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (all-workloads mode only).
    trace: Option<bool>,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: gql-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       gql-benchmark --compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

enum Command {
    Run(Opts),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if Spec::by_name(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                opts.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => opts.smoke = true,
            "--compare" => {
                let a = value("two result files")?;
                let b = it
                    .next()
                    .cloned()
                    .ok_or("--compare needs two result files")?;
                return Ok(Command::Compare(a, b));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 1.0;
    }
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::Run(opts)) if opts.workload.is_some() => run_one(&opts).map(|result| {
            print!("{}", result.render());
            result.correct
        }),
        Ok(Command::Run(opts)) => run_all(&opts),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("gql-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One run's printable result.
struct RunResult {
    header: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static Decl, f64)>,
}

impl RunResult {
    /// Human-readable lines, then the one JSON object the driver reads.
    fn render(&self) -> String {
        let mut out = format!("# {}\n", self.header);
        for why in &self.failures {
            out.push_str(&format!("# FAILED {why}\n"));
        }
        for (d, v) in &self.metrics {
            out.push_str(&format!("{:<34} {:>16.4} {}\n", d.name, v, d.unit));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, d.name, d.unit))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `admitted + rejected + refused + deduped == submitted`.
fn conservation(m: &ServiceMetrics) -> Result<(), String> {
    if m.admitted + m.rejected + m.refused + m.deduped == m.submitted {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: admitted {} + rejected {} + refused {} + deduped {} != submitted {}",
            m.admitted, m.rejected, m.refused, m.deduped, m.submitted
        ))
    }
}

fn run_one(opts: &Opts) -> Result<RunResult, String> {
    let name = opts.workload.as_deref().expect("checked by the caller");
    let mut spec = *Spec::by_name(name).expect("validated at parse");
    if opts.smoke {
        spec = spec.smoke();
    }
    if opts.trace == Some(true) {
        run_traced(spec, opts)
    } else {
        run_untraced(spec, opts)
    }
}

fn header(spec: &Spec, opts: &Opts, nproc: usize, clients: usize, samples: u64) -> String {
    format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} clients={clients} workers={nproc} samples={samples}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace == Some(true)),
    )
}

/// The end-to-end run: the whole process on one CPU (see `affinity`), one
/// reader, tracing off, every duration on the calibrated clock (see
/// `calib`); [`ROUNDS`] rounds of set-up (timed between two calibration
/// units) → a fifth of the measured window. Every figure is a median: over
/// the slices for the request figures, over the rounds for the set-up.
fn run_untraced(spec: Spec, opts: &Opts) -> Result<RunResult, String> {
    let nproc = nproc();
    affinity::confine_to_one_cpu()?;
    let mut calibrator = calib::Calibrator::new(spec.calib)?;
    let inputs = Arc::new(Inputs::generate(&spec, opts.seed));
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut slices = Vec::new();
    let (mut attempted, mut failed, mut ok) = (0, 0, 0);
    let mut failures = Vec::new();
    for _ in 0..ROUNDS {
        let before = calibrator.slowdown()?;
        let t0 = Instant::now();
        let fixture = Fixture::set_up(spec, Arc::clone(&inputs), nproc, false)?;
        let wall = t0.elapsed().as_secs_f64();
        setup_s.push(wall / ((before + calibrator.slowdown()?) / 2.0));
        let segment = opts.seconds / ROUNDS as f64;
        let window = load::run(&fixture, 1, segment, Some(&mut calibrator))?;
        if let Err(why) = conservation(&fixture.handle.metrics()) {
            failures.push(why);
        }
        attempted += window.attempted;
        failed += window.failed;
        ok += window.ok();
        failures.extend(window.failures);
        slices.extend(window.slices);
        // The fixture drops here: one service at a time.
    }
    let no_slice = || {
        format!(
            "no slice of {} requests completed in a {} s segment",
            spec.slice_requests,
            opts.seconds / ROUNDS as f64
        )
    };

    let mut v = Values::default();
    v.put("rps", load::median_rps(&slices).ok_or_else(no_slice)?);
    v.put(
        "lat_p50_us",
        load::median_latency_us(&slices, Pct::P50).ok_or_else(no_slice)?,
    );
    v.put("setup_s", stats::median(&mut setup_s));
    Ok(RunResult {
        header: format!(
            "{} slices={} slowdown={:.3}",
            header(&spec, opts, nproc, 1, ok),
            slices.len(),
            load::median_slowdown(&slices).ok_or_else(no_slice)?
        ),
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        failures,
        metrics: v.finish(END_TO_END)?,
    })
}

/// The loaded window, and reload latencies in groups: on `reload_mixed`
/// the writer's, per slice of the window; elsewhere timed on the idle
/// service, half of the groups before the window and half after.
fn window_and_reloads(
    fixture: &Fixture,
    clients: usize,
    seconds: f64,
) -> Result<(load::Window, Vec<Vec<u64>>), String> {
    if fixture.spec.reload {
        let window = load::run(fixture, clients, seconds, None)?;
        let reloads = window.reload_ns.clone();
        return Ok((window, reloads));
    }
    let mut reloads = load::idle_reloads(fixture, IDLE_RELOAD_GROUPS / 2)?;
    let window = load::run(fixture, clients, seconds, None)?;
    reloads.extend(load::idle_reloads(fixture, IDLE_RELOAD_GROUPS / 2)?);
    Ok((window, reloads))
}

/// Microsecond gaps between two lifecycle events of the same request,
/// over the requests whose four events are all still in the ring.
fn event_gaps(events: &[gql_metrics::Event]) -> [Vec<u64>; 3] {
    use std::collections::BTreeMap;
    let mut by_request: BTreeMap<u64, [Option<u64>; 4]> = BTreeMap::new();
    for ev in events {
        let slot = match ev.kind {
            EventKind::Admit => 0,
            EventKind::Dequeue => 1,
            EventKind::Start => 2,
            EventKind::Reply => 3,
            EventKind::Trip => continue,
        };
        by_request.entry(ev.request_id).or_default()[slot] = Some(ev.t_micros);
    }
    let mut gaps: [Vec<u64>; 3] = Default::default();
    for times in by_request.values() {
        if let [Some(admit), Some(dequeue), Some(start), Some(reply)] = times {
            gaps[0].push(dequeue.saturating_sub(*admit));
            gaps[1].push(start.saturating_sub(*dequeue));
            gaps[2].push(reply.saturating_sub(*start));
        }
    }
    gaps
}

/// Nearest-rank percentile of sorted samples divided by `per`; 0 when
/// there is no sample (the steady workloads have no writer to be late).
fn rank_or_zero(sorted: &[u64], pct: Pct, per: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::nearest_rank(sorted, pct) as f64 / per
    }
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// Where the span file goes: under the build's target directory.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("gql-benchmark")
        .join(format!("{workload}.trace.json"))
}

/// Per-layer metrics that are the median duration of one span name.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("serve.server.roundtrip_us", "serve.server.roundtrip"),
    ("serve.proto.frame_us", "serve.proto.frame"),
    ("serve.proto.request_codec_us", "serve.proto.request_codec"),
    ("serve.proto.reply_codec_us", "serve.proto.reply_codec"),
    ("serve.service.submit_us", "serve.service.submit"),
    ("serve.catalog.resolve_us", "serve.catalog.resolve"),
    ("serve.tenant.admit_us", "serve.tenant.admit"),
    ("serve.service.parse_query_us", "serve.service.parse_query"),
    ("xmlgl.dsl.parse_us", "xmlgl.dsl.parse"),
    ("wglog.dsl.parse_us", "wglog.dsl.parse"),
    ("xpath.parser.parse_us", "xpath.parser.parse"),
    ("serve.catalog.reload_us", "serve.catalog.reload"),
    ("ssdm.summary.from_index_us", "ssdm.summary.from_index"),
    ("wglog.instance.load_us", "wglog.instance.load"),
    ("plan.lower_us", "plan.lower"),
    ("infer.infer_us", "infer.infer"),
    ("core.engine.cold_run_us", "core.engine.cold_run"),
    ("core.engine.run_us.xmlgl", "core.engine.run.xmlgl"),
    ("core.engine.run_us.wglog", "core.engine.run.wglog"),
    ("core.engine.run_us.xpath", "core.engine.run.xpath"),
    ("xmlgl.eval.match_us", "xmlgl.eval.match"),
    ("xmlgl.eval.construct_us", "xmlgl.eval.construct"),
    ("wglog.eval.fixpoint_us", "wglog.eval.fixpoint"),
    ("xpath.eval.eval_us", "xpath.eval.eval"),
];

/// Per-layer metrics that are units per microsecond over one span name.
const SPAN_RATES: &[(&str, &str)] = &[
    ("serve.json.render_mb_s", "serve.json.render"),
    ("serve.json.parse_mb_s", "serve.json.parse"),
    ("ssdm.xml.parse_mb_s", "ssdm.xml.parse"),
    ("ssdm.index.build_melem_s", "ssdm.index.build"),
    ("ssdm.xml.write_mb_s", "ssdm.xml.write"),
];

/// Set-up once → a shorter loaded window on every CPU with `clients`
/// callers (for the figures only load shows: queueing, scaling, tails) →
/// untraced serial pass → traced serial pass → span file.
fn run_traced(spec: Spec, opts: &Opts) -> Result<RunResult, String> {
    let nproc = nproc();
    let clients = client_count(nproc);
    let inputs = Arc::new(Inputs::generate(&spec, opts.seed));
    let fixture = Fixture::set_up(spec, inputs, nproc, true)?;
    let handle = &fixture.handle;

    let (window, reloads) = window_and_reloads(&fixture, clients, opts.seconds * 0.4)?;
    let mut failures = window.failures.clone();
    let report = handle.metrics_report();
    let [queue_wait, dispatch, run] = event_gaps(&report.events);
    if queue_wait.is_empty() {
        failures.push("no complete request lifecycle in the event ring".into());
    }
    let reload_p50_ns = load::median_percentile(&reloads, Pct::P50)
        .ok_or("no reload completed inside the window")?;
    let mut reloads = reloads.concat();
    reloads.sort_unstable();

    // The serial phases: fixed counts, so every count below repeats; on
    // one CPU like the end-to-end run, whose latency the spans break down.
    affinity::confine_to_one_cpu()?;
    let serial = replay::serial_pass(&fixture)?;
    let before = handle.metrics();
    let probes_before = handle.telemetry().probes();
    let dropped_before = handle.telemetry().event_stats().dropped;
    let mut rec = trace::Recorder::new();
    replay::traced_pass(&fixture, &mut rec)?;
    let after = handle.metrics();
    if let Err(why) = conservation(&after) {
        failures.push(why);
    }
    let delta = |f: fn(&ServiceMetrics) -> u64| (f(&after) - f(&before)) as f64;
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            1.0
        }
    };
    let evictions = |m: &ServiceMetrics| m.datasets.iter().map(|(_, s)| s.evictions).sum::<u64>();

    let mut v = Values::default();
    for (metric, span) in SPAN_MEDIANS {
        v.put(metric, rec.median_us(span)?);
    }
    for (metric, span) in SPAN_RATES {
        v.put(metric, rec.rate(span)?);
    }
    // Self times: the composite less the stages replayed under it.
    v.put(
        "serve.server.self_us",
        rec.self_median_us("serve.server.roundtrip")?,
    );
    v.put(
        "serve.service.self_us",
        rec.self_median_us("serve.service.submit")?,
    );
    v.put(
        "serve.service.self_share",
        rec.self_share("serve.service.submit")?,
    );
    v.put("plan.cold_us", rec.self_median_us("plan.cold_run")?);
    // Queueing, from the service's own lifecycle events of the window.
    v.put("serve.service.queue_wait_us", mean(&queue_wait));
    let mut queue_wait = queue_wait;
    queue_wait.sort_unstable();
    v.put(
        "serve.service.queue_wait_p99_us",
        rank_or_zero(&queue_wait, Pct::P99, 1.0),
    );
    v.put("serve.service.dispatch_us", mean(&dispatch));
    v.put("serve.service.run_us", mean(&run));
    v.put(
        "serve.service.scale_eff",
        window.rps_whole() / (window.readers.min(nproc) as f64 * serial.rate()),
    );
    v.put("serve.catalog.draining_max", window.draining_max as f64);
    v.put(
        "driver.writer_late_p99_us",
        rank_or_zero(&window.writer_late_ns, Pct::P99, 1e3),
    );
    v.put("driver.reload_p50_ms", reload_p50_ns / 1e6);
    v.put(
        "driver.reload_p95_ms",
        rank_or_zero(&reloads, Pct::P95, 1e6),
    );
    v.put(
        "plan.cache.hit_ratio",
        ratio(
            delta(|m| m.plan_warm),
            delta(|m| m.plan_cold + m.plan_replans),
        ),
    );
    v.put(
        "plan.cache.evictions",
        evictions(&after).saturating_sub(evictions(&before)) as f64,
    );
    v.put(
        "index.cache.hit_ratio",
        ratio(delta(|m| m.index_warm), delta(|m| m.index_cold)),
    );
    // Counts over the traced pass.
    let submitted = delta(|m| m.submitted);
    v.put(
        "serve.telemetry.probes_per_req",
        (handle.telemetry().probes() - probes_before) as f64 / submitted.max(1.0),
    );
    v.put(
        "serve.telemetry.events_dropped",
        (handle.telemetry().event_stats().dropped - dropped_before) as f64,
    );
    v.put("serve.service.admitted", delta(|m| m.admitted));
    v.put("serve.service.rejected", delta(|m| m.rejected));
    v.put("serve.service.refused", delta(|m| m.refused));
    v.put("serve.service.failed", delta(|m| m.failed));
    v.put("trace.spans", rec.spans.len() as f64);
    // The driver's view of the loaded window.
    for (surface, name) in Surface::ALL.iter().zip([
        "driver.lat_p50_us.xmlgl",
        "driver.lat_p50_us.wglog",
        "driver.lat_p50_us.xpath",
    ]) {
        let samples = &window.by_surface[*surface as usize];
        if samples.is_empty() {
            return Err(format!(
                "no {} request completed in the window",
                surface.kind()
            ));
        }
        v.put(name, stats::nearest_rank(samples, Pct::P50) as f64 / 1e3);
    }
    let (tail_pct, tail_ns) =
        stats::tail(&window.latencies).ok_or("fewer than 20 requests completed in the window")?;
    v.put(
        "driver.lat_p99_us",
        load::median_latency_us(&window.slices, Pct::P99)
            .ok_or("no slice completed in the loaded window")?,
    );
    v.put("driver.lat_tail_us", tail_ns as f64 / 1e3);
    v.put("driver.lat_tail_pct", tail_pct.as_f64());
    v.put("driver.rss_peak_mb", window.rss_peak_mb);
    v.put("driver.samples", window.ok() as f64);
    v.put("driver.window.rps", window.rps_whole());
    v.put(
        "driver.window.lat_p50_us",
        stats::nearest_rank(&window.latencies, Pct::P50) as f64 / 1e3,
    );
    v.put(
        "driver.window.lat_p99_us",
        stats::nearest_rank(&window.latencies, Pct::P99) as f64 / 1e3,
    );
    v.put(
        "driver.fail_ratio",
        window.failed as f64 / window.attempted.max(1) as f64,
    );
    let composite = if spec.wire {
        "serve.server.roundtrip"
    } else {
        "serve.service.submit"
    };
    v.put(
        "driver.trace_overhead_ratio",
        rec.mean_us(composite)? / serial.mean_us(),
    );
    let (ok, all) = rec.stage_sum_ok(composite);
    v.put("trace.stage_sum_ok_ratio", ok as f64 / all.max(1) as f64);
    v.put("driver.nproc", nproc as f64);
    v.put("driver.clients", clients as f64);
    v.put("driver.workers", nproc as f64);

    let path = trace_path(spec.name);
    rec.write_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(RunResult {
        header: format!(
            "{} spans={}",
            header(&spec, opts, nproc, clients, window.ok()),
            path.display()
        ),
        correct: failures.is_empty() && window.failed == 0,
        attempted: window.attempted + serial.requests,
        failed: window.failed,
        failures,
        metrics: v.finish(PER_LAYER)?,
    })
}

/// All-workloads mode: each workload in a process of its own (so
/// `rss_peak_mb` does not bleed), one JSON line per run on stdout — the
/// result-set format `--compare` reads.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = match opts.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    for spec in SPECS {
        for &trace in passes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                eprintln!("{line}");
            }
            let Some(result) = stdout.lines().rev().find(|l| l.starts_with('{')) else {
                return Err(format!("{} printed no result ({})", spec.name, out.status));
            };
            println!(
                r#"{{"workload": "{}", "seed": {}, "trace": {}, "nproc": {}, "result": {result}}}"#,
                spec.name,
                opts.seed,
                u8::from(trace),
                nproc()
            );
            all_correct &= out.status.success();
        }
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` end to end: all four workloads, both passes; every
    /// declared metric name printed exactly once with its unit.
    #[test]
    fn smoke_prints_every_declared_metric_once() {
        for spec in SPECS {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let opts = Opts {
                    workload: Some(spec.name.to_string()),
                    seed: 3,
                    seconds: 1.0,
                    trace: Some(trace),
                    smoke: true,
                };
                let result = run_one(&opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(result.correct, "{}: {:?}", spec.name, result.failures);
                assert_eq!(result.failed, 0);
                assert!(result.attempted >= 1);
                let printed = result.render();
                for d in table {
                    let rows = printed
                        .lines()
                        .filter(|l| l.split_whitespace().next() == Some(d.name))
                        .collect::<Vec<_>>();
                    assert_eq!(rows.len(), 1, "{}: `{}` rows {rows:?}", spec.name, d.name);
                    assert!(rows[0].ends_with(d.unit), "{}: {}", spec.name, rows[0]);
                    let needle = format!(r#""{}": {{"value": "#, d.name);
                    assert_eq!(printed.matches(&needle).count(), 1, "{needle}");
                }
                let last = printed.lines().last().expect("a result line");
                let parsed = gql_serve::json::Value::parse(last).expect("the result is JSON");
                let keys: Vec<&str> = match &parsed {
                    gql_serve::json::Value::Obj(pairs) => {
                        pairs.iter().map(|(k, _)| k.as_str()).collect()
                    }
                    other => panic!("not an object: {other:?}"),
                };
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }

    #[test]
    fn benchmark_json_declares_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = gql_serve::json::Value::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &gql_serve::json::Value, k: &str| {
            v.get(k).and_then(|x| x.as_str()).map(str::to_string)
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("a metric list");
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, d) in rows.iter().zip(table) {
                assert_eq!(field(row, "name").as_deref(), Some(d.name));
                assert_eq!(field(row, "unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    field(row, "better").as_deref(),
                    Some(d.better.name()),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        row.get("bound").and_then(|b| b.as_f64()),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                }
            }
        }
        let names: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .filter_map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
        assert_eq!(
            json.get("run_seconds").and_then(|v| v.as_f64()),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args: Vec<String> = "--workload point_wire --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let Ok(Command::Run(o)) = parse_args(&args) else {
            panic!("driver arguments must parse");
        };
        assert_eq!(o.workload.as_deref(), Some("point_wire"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, Some(true)));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into()]).is_ok());
    }
}
