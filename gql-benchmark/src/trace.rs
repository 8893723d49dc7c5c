//! Spans recorded by the benchmark itself, around its calls into each
//! layer. A span has a name, a start and an end, the span that caused it
//! and the request it belongs to; spans stay in memory and are written out
//! when the run ends. A layer's self time is its span minus the child
//! stages it contains.

use std::io::Write as _;
use std::time::Instant;

use crate::stats;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
    /// Bytes or elements the call processed, for rate metrics; else 0.
    pub units: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; its id can parent other spans before it closes.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            units: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// A leaf span around one call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (id, out)
    }

    pub fn set_units(&mut self, id: u32, units: u64) {
        self.spans[id as usize].units = units;
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans called `name`, microseconds.
    pub fn median_us(&self, name: &str) -> Result<f64, String> {
        let mut v: Vec<f64> = self.named(name).map(|s| s.ns() as f64 / 1e3).collect();
        if v.is_empty() {
            return Err(format!("no `{name}` span was recorded"));
        }
        Ok(stats::median(&mut v))
    }

    pub fn mean_us(&self, name: &str) -> Result<f64, String> {
        let (n, sum) = self
            .named(name)
            .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.ns()));
        if n == 0 {
            return Err(format!("no `{name}` span was recorded"));
        }
        Ok(sum as f64 / n as f64 / 1e3)
    }

    /// Units per microsecond over every span called `name`: MB/s for
    /// bytes, Melem/s for elements.
    pub fn rate(&self, name: &str) -> Result<f64, String> {
        let (units, ns) = self
            .named(name)
            .fold((0u64, 0u64), |(u, ns), s| (u + s.units, ns + s.ns()));
        if ns == 0 {
            return Err(format!("no time recorded under `{name}`"));
        }
        Ok(units as f64 * 1e3 / ns as f64)
    }

    /// Per span called `name`: its duration and what its child stages sum
    /// to, nanoseconds.
    fn with_children(&self, name: &str) -> Vec<(u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.ns(), child_ns[i]))
            .collect()
    }

    /// Median self time of the spans called `name`, microseconds. Signed:
    /// the stages are replayed beside the composite call, not inside it, so
    /// noise can push a single request below zero — the median must not be.
    pub fn self_median_us(&self, name: &str) -> Result<f64, String> {
        let mut v: Vec<f64> = self
            .with_children(name)
            .iter()
            .map(|&(own, kids)| (own as f64 - kids as f64) / 1e3)
            .collect();
        if v.is_empty() {
            return Err(format!("no `{name}` span was recorded"));
        }
        Ok(stats::median(&mut v))
    }

    /// What share of the time under the spans called `name` their child
    /// stages do not explain: Σ self / Σ span.
    pub fn self_share(&self, name: &str) -> Result<f64, String> {
        let (own, kids) = self
            .with_children(name)
            .iter()
            .fold((0u64, 0u64), |(o, k), &(own, kids)| (o + own, k + kids));
        if own == 0 {
            return Err(format!("no time recorded under `{name}`"));
        }
        Ok((own as f64 - kids as f64) / own as f64)
    }

    /// `(composites whose stages sum to no more than the composite, all)`.
    pub fn stage_sum_ok(&self, name: &str) -> (usize, usize) {
        let all = self.with_children(name);
        (
            all.iter().filter(|(own, kids)| kids <= own).count(),
            all.len(),
        )
    }

    /// Write the spans as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{},"units":{}}}{comma}"#,
                s.name, s.start_ns, s.end_ns, s.request, s.units
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            Span {
                name: "composite",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                request: 0,
                units: 0,
            },
            Span {
                name: "stage",
                start_ns: 200,
                end_ns: 230,
                parent: 0,
                request: 0,
                units: 30,
            },
            Span {
                name: "stage",
                start_ns: 300,
                end_ns: 350,
                parent: 0,
                request: 0,
                units: 50,
            },
            Span {
                name: "composite",
                start_ns: 400,
                end_ns: 440,
                parent: NO_PARENT,
                request: 1,
                units: 0,
            },
            Span {
                name: "stage",
                start_ns: 500,
                end_ns: 560,
                parent: 3,
                request: 1,
                units: 60,
            },
        ];
        // Request 0: 100 - 80 = 20 ns; request 1: 40 - 60 = -20 ns.
        assert_eq!(rec.self_median_us("composite"), Ok(0.0));
        assert_eq!(rec.stage_sum_ok("composite"), (1, 2));
        assert_eq!(
            rec.self_share("composite"),
            Ok(0.0),
            "(100 + 40 - 140) / 140"
        );
        assert_eq!(rec.median_us("stage"), Ok(0.05));
        // 140 units in 140 ns = 1000 units per microsecond.
        assert_eq!(rec.rate("stage"), Ok(1000.0));
        assert!(rec.median_us("absent").is_err());
    }
}
