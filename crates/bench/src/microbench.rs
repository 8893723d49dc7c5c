//! A dependency-free stand-in for the slice of the Criterion API the
//! benches use, so `cargo bench` works in this offline workspace.
//!
//! Timing model: each `b.iter(f)` call runs one untimed warm-up, then
//! `sample_size` timed samples; the reported figure is the mean wall-clock
//! time per iteration (with an elements/second rate when the group set a
//! [`Throughput`]). No outlier rejection or significance testing — for
//! statistically rigorous numbers, wire the same closures into a real
//! harness; for "did this get 10× slower" regression checks this is
//! enough.
//!
//! `GQL_BENCH_SAMPLES` overrides every group's sample size (e.g. `=1` for
//! a smoke run).
//!
//! Every reported measurement is also accumulated in-process and written to
//! a machine-readable results file when the [`Criterion`] driver drops:
//! `BENCH_results.json` at the repository root by default,
//! `GQL_BENCH_RESULTS` to override. The file is a JSON array with one entry
//! object per line; re-running a bench binary replaces its own entries and
//! leaves entries from other binaries in place, so the file converges to
//! the union of the latest run of everything. Every entry ends with the
//! `commit` it was measured on and the machine's `nproc`, so a file that
//! mixes runs says so row by row.

use std::fmt::Display;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use gql_trace::json::Writer;

/// One reported measurement, as serialized into the results file.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    mean_ns: u128,
    samples: usize,
    rate: Option<(f64, &'static str)>,
}

impl Entry {
    fn to_json(&self, origin: &Origin) -> String {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        w.begin_object().key("name").string(&self.name);
        w.key("mean_ns").number(self.mean_ns);
        w.key("samples").number(self.samples);
        if let Some((rate, unit)) = self.rate {
            // `f64`'s `Display` is the shortest round-trippable form — a
            // fixed precision would erase small metrics (an 0.03% overhead
            // bound rounds to 0.0 at `:.1`).
            w.key("rate").number(rate).key("rate_unit").string(unit);
        }
        w.key("commit").string(&origin.commit);
        w.key("nproc").number(origin.nproc);
        w.end_object();
        s
    }
}

/// Where a flush's rows came from; every one of them ends with both.
struct Origin {
    /// The commit checked out when they were measured (`unknown` outside a
    /// git checkout).
    commit: String,
    /// The machine's core count.
    nproc: usize,
}

fn origin() -> Origin {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |hash| hash.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Origin { commit, nproc }
}

/// Measurements reported since the last flush, process-wide (bench binaries
/// may build several [`Criterion`]s via `criterion_group!`).
fn pending() -> &'static Mutex<Vec<Entry>> {
    static PENDING: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    PENDING.get_or_init(|| Mutex::new(Vec::new()))
}

fn results_path() -> PathBuf {
    std::env::var_os("GQL_BENCH_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_results.json"
            ))
        })
}

/// The "name" field of a serialized entry line (the writer controls the
/// format, so a plain string scan suffices — no JSON parser needed).
fn entry_name(line: &str) -> Option<&str> {
    let rest = line.split_once("\"name\":\"")?.1;
    rest.split_once('"').map(|(name, _)| name)
}

/// Merge `new` entries into the results file: keep existing entries whose
/// names this run did not re-measure, replace the rest. `origin` is the
/// [`origin`] stamp the new rows carry.
fn merge_into_file(path: &Path, new: &[Entry], origin: &Origin) -> std::io::Result<()> {
    let mut lines: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "[" || line == "]" {
                continue;
            }
            lines.push(line.to_string());
        }
    }
    let replaced: std::collections::HashSet<&str> = new.iter().map(|e| e.name.as_str()).collect();
    lines.retain(|l| entry_name(l).is_none_or(|n| !replaced.contains(n)));
    lines.extend(new.iter().map(|e| e.to_json(origin)));
    let mut out = String::from("[\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str(l);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Top-level driver handed to every bench function. Flushes accumulated
/// measurements to the results file on drop.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    pub fn new() -> Criterion {
        Criterion::default()
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("{name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let entries: Vec<Entry> = std::mem::take(&mut *pending().lock().expect("not poisoned"));
        if entries.is_empty() {
            return;
        }
        let path = results_path();
        if let Err(e) = merge_into_file(&path, &entries, &origin()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Element/byte counts that turn mean times into rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A `function/parameter` benchmark label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// A named group of related measurements sharing sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Run one measurement; returns the mean time per iteration so callers
    /// can derive figures (speedup ratios) from pairs of measurements.
    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> Duration {
        let mut bencher = Bencher {
            samples: self.effective_samples(),
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        self.report(&id.to_string(), bencher.mean);
        bencher.mean
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> Duration {
        let mut bencher = Bencher {
            samples: self.effective_samples(),
            mean: Duration::ZERO,
        };
        f(&mut bencher, input);
        self.report(&id.to_string(), bencher.mean);
        bencher.mean
    }

    /// Record a derived figure (a speedup ratio, a count) into the results
    /// file alongside the timed entries.
    pub fn record_metric(&self, id: impl Display, value: f64, unit: &'static str) {
        println!("  {}/{id}: {value:.2} {unit}", self.name);
        pending().lock().expect("not poisoned").push(Entry {
            name: format!("{}/{id}", self.name),
            mean_ns: 0,
            samples: 0,
            rate: Some((value, unit)),
        });
    }

    pub fn finish(self) {}

    fn effective_samples(&self) -> usize {
        std::env::var("GQL_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.sample_size)
            .max(1)
    }

    fn report(&self, id: &str, mean: Duration) {
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if !mean.is_zero() => {
                Some((n as f64 / mean.as_secs_f64(), "elem/s"))
            }
            Some(Throughput::Bytes(n)) if !mean.is_zero() => {
                Some((n as f64 / mean.as_secs_f64(), "B/s"))
            }
            _ => None,
        };
        let shown = rate.map_or(String::new(), |(r, u)| format!("  ({r:.0} {u})"));
        println!("  {}/{id}: {mean:.2?}/iter{shown}", self.name);
        pending().lock().expect("not poisoned").push(Entry {
            name: format!("{}/{id}", self.name),
            mean_ns: mean.as_nanos(),
            samples: self.effective_samples(),
            rate,
        });
    }
}

/// Passed to the measured closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    samples: usize,
    mean: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f()); // warm-up, untimed
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.mean = start.elapsed() / self.samples as u32;
    }

    /// [`iter`](Bencher::iter) for a routine whose result is expensive to
    /// drop: the clock stops before each result goes.
    pub fn iter_with_large_drop<O>(&mut self, mut f: impl FnMut() -> O) {
        self.iter_with_setup(|| (), |()| f());
    }

    /// Time `routine` alone, each sample on a fresh input that `setup`
    /// makes off the clock; its result is dropped off the clock too. One
    /// input and one result are alive at a time, so the allocator hands the
    /// routine the memory the previous sample returned, as a server's does.
    pub fn iter_with_setup<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        black_box(routine(setup()));
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        self.mean = total / self.samples as u32;
    }
}

/// Collect bench functions into one runner, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::microbench::Criterion::new();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_a_mean_and_writes_results() {
        // Redirect the results file away from the repository root for the
        // duration of the test (the driver writes on drop).
        let path = std::env::temp_dir().join(format!("gql_bench_test_{}.json", std::process::id()));
        std::env::set_var("GQL_BENCH_RESULTS", &path);
        let mut ran = 0usize;
        {
            let mut c = Criterion::new();
            let mut group = c.benchmark_group("test");
            group.sample_size(3);
            let mean = group.bench_function("noop", |b| {
                b.iter(|| {
                    ran += 1;
                })
            });
            group.finish();
            assert!(mean >= Duration::ZERO);
        }
        assert!(ran >= 4); // warm-up + samples
        let written = std::fs::read_to_string(&path).expect("results written on drop");
        assert!(written.starts_with("[\n"));
        assert!(written.contains("\"name\":\"test/noop\""));
        // Stamped at the flush: a commit (or `unknown`) and a core count.
        let row = written.lines().nth(1).unwrap();
        assert!(row.contains(",\"commit\":\""), "{row}");
        assert!(row.contains(",\"nproc\":"), "{row}");
        std::fs::remove_file(&path).ok();
        std::env::remove_var("GQL_BENCH_RESULTS");
    }

    #[test]
    fn merge_replaces_re_measured_entries_and_keeps_the_rest() {
        let stamp = |commit: &str| Origin {
            commit: commit.into(),
            nproc: 2,
        };
        let path =
            std::env::temp_dir().join(format!("gql_bench_merge_{}.json", std::process::id()));
        let old = [
            Entry {
                name: "a/x".into(),
                mean_ns: 1,
                samples: 1,
                rate: None,
            },
            Entry {
                name: "b/y".into(),
                mean_ns: 2,
                samples: 1,
                rate: Some((3.5, "elem/s")),
            },
        ];
        merge_into_file(&path, &old, &stamp("old")).unwrap();
        let new = [Entry {
            name: "a/x".into(),
            mean_ns: 9,
            samples: 2,
            rate: None,
        }];
        merge_into_file(&path, &new, &stamp("new")).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"name\":\"a/x\",\"mean_ns\":9,\"samples\":2,\"commit\":\"new\""));
        assert!(!written.contains("\"mean_ns\":1,"));
        // A kept row keeps the stamp of the run that measured it.
        assert!(written.contains(
            "\"name\":\"b/y\",\"mean_ns\":2,\"samples\":1,\"rate\":3.5,\"rate_unit\":\"elem/s\",\"commit\":\"old\",\"nproc\":2}"
        ));
        // The file stays a well-formed array: one entry object per line.
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.first(), Some(&"["));
        assert_eq!(lines.last(), Some(&"]"));
        assert_eq!(lines.len(), 4); // brackets + two entries
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn benchmark_id_formats_as_function_slash_parameter() {
        assert_eq!(BenchmarkId::new("engine", 400).to_string(), "engine/400");
    }
}
