//! The measured window: a closed loop of client threads (each blocks for
//! its reply before sending the next request), and for `reload_mixed` one
//! writer thread reloading `bib.m` on a fixed schedule beside them.
//!
//! Every request's latency is kept as a raw nanosecond sample; percentiles
//! are nearest-rank over sorted samples, never a histogram's estimate.
//!
//! The first reader's requests are cut into slices of a fixed number of
//! requests — whole periods of the request sequence, so every slice is the
//! same work. In the end-to-end run the reader runs a calibration unit (see
//! `calib`) before the first slice and after every slice, each slice's
//! durations are divided by the slowdown its two neighbouring units saw,
//! and each end-to-end figure is the median of its per-slice values. The
//! figures over the whole window, on the wall clock, are kept beside them
//! as per-layer metrics.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::stats::{self, Pct};
use crate::workload::{Check, Fixture, Inputs, RELOAD_DATASET, RELOAD_PERIOD_MS};

/// Time slices the writer's reloads are grouped into, whatever the
/// window's length.
pub const SLICES: usize = 20;
/// Idle-service reloads come in groups of this many, one "slice" each.
const RELOAD_GROUP: usize = 10;

/// One client's raw results, ok replies only: two parallel columns.
#[derive(Debug, Default)]
struct ClientLog {
    /// Saturates at 4.29 s.
    latency_ns: Vec<u32>,
    item: Vec<u8>,
    /// Where each completed slice ends: samples so far, and the time.
    slice_ends: Vec<(usize, Instant)>,
    /// When the client sent the first request of each slice, the one under
    /// way included.
    slice_starts: Vec<Instant>,
    /// The calibration units run before each slice start (none without a
    /// calibrator).
    slowdowns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// First few failures, for the report.
    failures: Vec<String>,
}

/// The writer's raw results.
#[derive(Debug, Default)]
struct WriterLog {
    /// Per slice: `reload_xml` completion minus the reload's due time.
    latency_ns: Vec<Vec<u64>>,
    /// Call start minus due time: how late the generator ran.
    late_ns: Vec<u64>,
    draining_max: usize,
    failures: Vec<String>,
}

/// The window's reduced results.
#[derive(Debug)]
pub struct Window {
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The first reader's completed slices, in order.
    pub slices: Vec<Slice>,
    /// Sorted ok latencies over the whole window.
    pub latencies: Vec<u64>,
    /// The same per surface (`Surface as usize`).
    pub by_surface: [Vec<u64>; 3],
    /// Sorted reload latencies from due time, per slice; empty on steady
    /// workloads.
    pub reload_ns: Vec<Vec<u64>>,
    pub writer_late_ns: Vec<u64>,
    pub draining_max: usize,
    /// Client threads sending requests (the writer not counted).
    pub readers: usize,
    /// Peak resident set of the process less the driver's sample columns.
    pub rss_peak_mb: f64,
}

/// `Spec::slice_requests` consecutive requests of one client.
#[derive(Debug)]
pub struct Slice {
    /// First request sent to last reply received.
    pub wall_ns: u64,
    /// Sorted ok latencies, nanoseconds on the wall clock.
    pub latencies: Vec<u64>,
    /// How much slower than the undisturbed core the machine ran: the mean
    /// of the calibration units before and after; 1 without a calibrator.
    pub slowdown: f64,
}

impl Slice {
    /// Ok replies per calibrated second.
    pub fn rps(&self) -> f64 {
        self.latencies.len() as f64 / (self.wall_ns as f64 / 1e9 / self.slowdown)
    }

    /// In calibrated microseconds; `None` if every request failed.
    pub fn latency_us(&self, pct: Pct) -> Option<f64> {
        (!self.latencies.is_empty())
            .then(|| stats::nearest_rank(&self.latencies, pct) as f64 / 1e3 / self.slowdown)
    }
}

fn median_of(mut values: Vec<f64>) -> Option<f64> {
    (!values.is_empty()).then(|| stats::median(&mut values))
}

/// Median over slices of ok replies per second.
pub fn median_rps(slices: &[Slice]) -> Option<f64> {
    median_of(slices.iter().map(Slice::rps).collect())
}

/// Median over slices of the slice's latency percentile.
pub fn median_latency_us(slices: &[Slice], pct: Pct) -> Option<f64> {
    median_of(slices.iter().filter_map(|s| s.latency_us(pct)).collect())
}

/// Median over slices of the slowdown the calibrator saw.
pub fn median_slowdown(slices: &[Slice]) -> Option<f64> {
    median_of(slices.iter().map(|s| s.slowdown).collect())
}

/// Median over groups of one nearest-rank percentile each, in the
/// samples' own unit; groups without samples are skipped.
pub fn median_percentile(groups: &[Vec<u64>], pct: Pct) -> Option<f64> {
    median_of(
        groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| stats::nearest_rank(g, pct) as f64)
            .collect(),
    )
}

impl Window {
    pub fn ok(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Ok replies per second over the whole window.
    pub fn rps_whole(&self) -> f64 {
        self.ok() as f64 / self.seconds
    }
}

/// `VmHWM` of this process, in bytes.
fn rss_peak_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run the closed loop for `seconds`. `clients` is the thread budget: on
/// `reload_mixed` one of them is the writer. With a calibrator, the first
/// reader runs a unit before and after each of its slices.
pub fn run(
    fixture: &Fixture,
    clients: usize,
    seconds: f64,
    mut calibrator: Option<&mut Calibrator>,
) -> Result<Window, String> {
    assert!(fixture.inputs.items.len() <= usize::from(u8::MAX));
    let per_slice = fixture.spec.slice_requests;
    // Held by the reader for a calibration unit and by the writer for a
    // reload, so that a unit never shares the CPU with a reload.
    let core = Mutex::new(());
    let core = &core;
    let readers = if fixture.spec.reload {
        clients.saturating_sub(1).max(1)
    } else {
        clients
    };
    let mut paths = (0..readers)
        .map(|_| fixture.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let rss_before = rss_peak_bytes()?;
    // Room for 16 k requests per second per client before a column grows.
    let reserve = (seconds * 16_000.0) as usize;
    // Threads start a little in the future so spawning is not in the window.
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds);
    let slice_of = |t: Instant| {
        (((t - start).as_secs_f64() / seconds * SLICES as f64) as usize).min(SLICES - 1)
    };

    let (logs, writer) = std::thread::scope(|scope| {
        let handles: Vec<_> = paths
            .iter_mut()
            .enumerate()
            .map(|(client, path)| {
                let mut calibrator = if client == 0 { calibrator.take() } else { None };
                scope.spawn(move || {
                    let mut log = ClientLog {
                        latency_ns: Vec::with_capacity(reserve),
                        item: Vec::with_capacity(reserve),
                        ..ClientLog::default()
                    };
                    // Highest epoch seen per item: epochs never go back.
                    let mut epochs = vec![0u64; fixture.inputs.items.len()];
                    sleep_until(start);
                    let mut calibrate = |log: &mut ClientLog| {
                        if let Some(cal) = calibrator.as_deref_mut() {
                            let _alone = core.lock().expect("no holder panics");
                            match cal.slowdown() {
                                Ok(s) => log.slowdowns.push(s),
                                Err(why) => log.failures.push(why),
                            }
                        }
                    };
                    calibrate(&mut log);
                    let mut n = 0u64;
                    let mut t0 = Instant::now();
                    log.slice_starts.push(t0);
                    while t0 < deadline {
                        let i = fixture.inputs.sequence(client, n);
                        n += 1;
                        let reply = fixture.call(path, i);
                        let t1 = Instant::now();
                        if t1 > deadline {
                            break; // finished outside the window: not measured
                        }
                        log.attempted += 1;
                        let verdict = reply
                            .and_then(|r| fixture.check(i, &r, Check::Checksum))
                            .and_then(|epoch| {
                                if epoch < epochs[i] {
                                    return Err(format!("epoch {epoch} after {}", epochs[i]));
                                }
                                epochs[i] = epoch;
                                Ok(())
                            });
                        match verdict {
                            Ok(()) => {
                                let ns = (t1 - t0).as_nanos();
                                log.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                                log.item.push(i as u8);
                            }
                            Err(why) => {
                                log.failed += 1;
                                if log.failures.len() < 4 {
                                    log.failures.push(format!("{}: {why}", fixture.label(i)));
                                }
                            }
                        }
                        if n.is_multiple_of(per_slice) {
                            log.slice_ends.push((log.latency_ns.len(), t1));
                            calibrate(&mut log);
                            t0 = Instant::now();
                            log.slice_starts.push(t0);
                        } else {
                            t0 = Instant::now();
                        }
                    }
                    log
                })
            })
            .collect();
        let writer = fixture
            .spec
            .reload
            .then(|| scope.spawn(move || write_loop(fixture, start, deadline, &slice_of, core)));
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        (logs, writer)
    });

    // The sample columns are the driver's memory, not the program's: take
    // them off the peak, unless the peak was reached before they existed.
    let column_bytes: usize = logs.iter().map(|l| l.latency_ns.len() * (4 + 1)).sum();
    let rss_peak = rss_before.max(rss_peak_bytes()? - column_bytes as f64);
    let mut window = Window {
        seconds,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        slices: logs.first().map(slices_of).unwrap_or_default(),
        latencies: Vec::new(),
        by_surface: Default::default(),
        reload_ns: Vec::new(),
        writer_late_ns: Vec::new(),
        draining_max: 0,
        readers,
        rss_peak_mb: rss_peak / (1024.0 * 1024.0),
    };
    for log in logs {
        window.attempted += log.attempted;
        window.failed += log.failed;
        window.failures.extend(log.failures);
        for (&ns, &i) in log.latency_ns.iter().zip(&log.item) {
            let ns = u64::from(ns);
            window.latencies.push(ns);
            let surface = fixture.inputs.items[usize::from(i)].surface;
            window.by_surface[surface as usize].push(ns);
        }
    }
    window.latencies.sort_unstable();
    for v in &mut window.by_surface {
        v.sort_unstable();
    }
    if let Some(mut w) = writer {
        for v in &mut w.latency_ns {
            v.sort_unstable();
        }
        w.late_ns.sort_unstable();
        window.reload_ns = w.latency_ns;
        window.writer_late_ns = w.late_ns;
        window.draining_max = w.draining_max;
        window.failures.extend(w.failures);
        // Every retired epoch must drain once the readers have stopped.
        let patience = Instant::now() + Duration::from_secs(5);
        while fixture.handle.catalog().draining() > 0 {
            if Instant::now() > patience {
                window.failures.push(format!(
                    "{} retired epochs still pinned 5 s after the window",
                    fixture.handle.catalog().draining()
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    if window.latencies.is_empty() {
        return Err(format!(
            "no request completed in the window; failures: {:?}",
            window.failures
        ));
    }
    Ok(window)
}

/// A client's completed slices: each one's samples, the time from its
/// first request to its last reply, and the slowdown beside it.
fn slices_of(log: &ClientLog) -> Vec<Slice> {
    let mut from = 0;
    log.slice_ends
        .iter()
        .zip(&log.slice_starts)
        .enumerate()
        .map(|(k, (&(end, at), &began))| {
            let mut latencies: Vec<u64> = log.latency_ns[from..end]
                .iter()
                .map(|&ns| u64::from(ns))
                .collect();
            latencies.sort_unstable();
            from = end;
            let slowdown = match (log.slowdowns.get(k), log.slowdowns.get(k + 1)) {
                (Some(before), Some(after)) => (before + after) / 2.0,
                _ => 1.0,
            };
            Slice {
                wall_ns: (at - began).as_nanos() as u64,
                latencies,
                slowdown,
            }
        })
        .collect()
}

/// One `reload_xml` per period, alternating the two `bib.m` versions. The
/// schedule is fixed: a slow reload makes the next one late, and latency is
/// counted from the due time, not from when the call could start.
fn write_loop(
    fixture: &Fixture,
    start: Instant,
    deadline: Instant,
    slice_of: &(dyn Fn(Instant) -> usize + Sync),
    core: &Mutex<()>,
) -> WriterLog {
    let mut log = WriterLog {
        latency_ns: vec![Vec::new(); SLICES],
        ..WriterLog::default()
    };
    let period = Duration::from_millis(RELOAD_PERIOD_MS);
    let mut epoch = fixture.dataset(RELOAD_DATASET).epoch();
    let mut due = start + period / 2;
    while due < deadline {
        sleep_until(due);
        let called = Instant::now();
        let next = epoch + 1;
        let xml = &fixture.inputs.reload_xml[Inputs::version_of_epoch(next)];
        let alone = core.lock().expect("no holder panics");
        let reloaded = fixture.handle.reload_xml(RELOAD_DATASET, xml);
        drop(alone);
        match reloaded {
            Ok(ds) if ds.epoch() == next => epoch = next,
            Ok(ds) => log
                .failures
                .push(format!("reload gave epoch {}, expected {next}", ds.epoch())),
            Err(resp) => log.failures.push(format!("reload refused: {resp:?}")),
        }
        let done = Instant::now();
        if done <= deadline {
            log.latency_ns[slice_of(done)].push((done - due).as_nanos() as u64);
            log.late_ns.push((called - due).as_nanos() as u64);
        }
        log.draining_max = log.draining_max.max(fixture.handle.catalog().draining());
        due += period;
    }
    log
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Idle-service reload timing for the steady workloads: `groups` groups of
/// serial reloads of `bib.m` with no reader running. Sorted nanoseconds
/// per group.
pub fn idle_reloads(fixture: &Fixture, groups: usize) -> Result<Vec<Vec<u64>>, String> {
    let mut epoch = fixture.dataset(RELOAD_DATASET).epoch();
    let mut out = vec![Vec::with_capacity(RELOAD_GROUP); groups];
    for group in &mut out {
        for _ in 0..RELOAD_GROUP {
            epoch += 1;
            let xml = &fixture.inputs.reload_xml[Inputs::version_of_epoch(epoch)];
            let t0 = Instant::now();
            let ds = fixture
                .handle
                .reload_xml(RELOAD_DATASET, xml)
                .map_err(|r| format!("idle reload refused: {r:?}"))?;
            group.push(t0.elapsed().as_nanos() as u64);
            if ds.epoch() != epoch {
                return Err(format!(
                    "idle reload gave epoch {}, expected {epoch}",
                    ds.epoch()
                ));
            }
        }
        group.sort_unstable();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_is_its_samples_its_wall_time_and_the_slowdown_beside_it() {
        let began = Instant::now();
        let at = |us: u64| began + Duration::from_micros(us);
        let log = ClientLog {
            latency_ns: vec![30, 10, 20, 50, 40],
            slice_ends: vec![(3, at(100)), (5, at(400))],
            // The second slice started after a 100 µs calibration unit; a
            // third was under way when the window closed.
            slice_starts: vec![at(0), at(200), at(500)],
            slowdowns: vec![1.0, 2.0, 2.0],
            ..ClientLog::default()
        };
        let slices = slices_of(&log);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].latencies, [10, 20, 30]);
        assert_eq!((slices[0].wall_ns, slices[1].wall_ns), (100_000, 200_000));
        assert_eq!((slices[0].slowdown, slices[1].slowdown), (1.5, 2.0));
        // Two replies in 200 µs on a core at half speed: 100 calibrated µs.
        assert_eq!(slices[1].rps(), 2.0 / 100e-6);
        assert_eq!(slices[1].latency_us(Pct::P50), Some(0.02));
        assert_eq!(median_slowdown(&slices), Some(1.75));
        assert_eq!(median_rps(&[]), None);

        // Without a calibrator the wall clock stands.
        let log = ClientLog {
            slowdowns: Vec::new(),
            ..log
        };
        assert_eq!(slices_of(&log)[1].rps(), 2.0 / 200e-6);
    }

    #[test]
    fn empty_groups_are_skipped() {
        let groups = vec![vec![10, 20, 30], vec![], vec![40, 50, 60]];
        assert_eq!(median_percentile(&groups, Pct::P50), Some(35.0));
        assert_eq!(median_percentile(&[vec![]], Pct::P50), None);
    }
}
