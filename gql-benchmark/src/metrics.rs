//! The declared metrics: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at the
//! repository root repeats this table for the driver; a test holds the two
//! equal. A run that prints a name not declared here, or misses one, aborts.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a client of the service (or the operator reloading it) sees.
pub const END_TO_END: &[Decl] = &[
    e2e("rps", "1/s", Higher, 0.20),
    e2e("lat_p50_us", "us", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each (layer = crate.module), from the traced run.
pub const PER_LAYER: &[Decl] = &[
    // Wire: sockets, connection thread, frame and JSON codecs.
    layer("serve.server.roundtrip_us", "us", Lower),
    layer("serve.server.self_us", "us", Lower),
    layer("serve.proto.frame_us", "us", Lower),
    layer("serve.proto.request_codec_us", "us", Lower),
    layer("serve.proto.reply_codec_us", "us", Lower),
    layer("serve.json.render_mb_s", "MB/s", Higher),
    layer("serve.json.parse_mb_s", "MB/s", Higher),
    // Service: admission, queue, worker hand-off, telemetry.
    layer("serve.service.submit_us", "us", Lower),
    layer("serve.service.self_us", "us", Lower),
    layer("serve.service.self_share", "ratio", Lower),
    layer("serve.service.queue_wait_us", "us", Lower),
    layer("serve.service.queue_wait_p99_us", "us", Lower),
    layer("serve.service.dispatch_us", "us", Lower),
    layer("serve.service.run_us", "us", Lower),
    layer("serve.service.scale_eff", "ratio", Higher),
    layer("serve.catalog.resolve_us", "us", Lower),
    layer("serve.tenant.admit_us", "us", Lower),
    layer("serve.service.parse_query_us", "us", Lower),
    layer("xmlgl.dsl.parse_us", "us", Lower),
    layer("wglog.dsl.parse_us", "us", Lower),
    layer("xpath.parser.parse_us", "us", Lower),
    // Reload: parse, index, summary, instance.
    layer("serve.catalog.reload_us", "us", Lower),
    layer("ssdm.xml.parse_mb_s", "MB/s", Higher),
    layer("ssdm.index.build_melem_s", "Melem/s", Higher),
    layer("ssdm.summary.from_index_us", "us", Lower),
    layer("wglog.instance.load_us", "us", Lower),
    layer("serve.catalog.draining_max", "count", Lower),
    layer("driver.writer_late_p99_us", "us", Lower),
    layer("driver.reload_p50_ms", "ms", Lower),
    layer("driver.reload_p95_ms", "ms", Lower),
    // Planning.
    layer("plan.cold_us", "us", Lower),
    layer("plan.lower_us", "us", Lower),
    layer("infer.infer_us", "us", Lower),
    layer("core.engine.cold_run_us", "us", Lower),
    layer("plan.cache.hit_ratio", "ratio", Higher),
    layer("plan.cache.evictions", "count", Lower),
    layer("index.cache.hit_ratio", "ratio", Higher),
    // Engines.
    layer("core.engine.run_us.xmlgl", "us", Lower),
    layer("core.engine.run_us.wglog", "us", Lower),
    layer("core.engine.run_us.xpath", "us", Lower),
    layer("xmlgl.eval.match_us", "us", Lower),
    layer("xmlgl.eval.construct_us", "us", Lower),
    layer("wglog.eval.fixpoint_us", "us", Lower),
    layer("xpath.eval.eval_us", "us", Lower),
    layer("ssdm.xml.write_mb_s", "MB/s", Higher),
    // Counts over the serial traced phase (repeat exactly per seed).
    layer("serve.telemetry.probes_per_req", "count", Lower),
    layer("serve.telemetry.events_dropped", "count", Lower),
    layer("serve.service.admitted", "count", Higher),
    layer("serve.service.rejected", "count", Lower),
    layer("serve.service.refused", "count", Lower),
    layer("serve.service.failed", "count", Lower),
    layer("trace.spans", "count", Lower),
    // The driver's own view of the loaded window.
    layer("driver.lat_p99_us", "us", Lower),
    layer("driver.lat_p50_us.xmlgl", "us", Lower),
    layer("driver.lat_p50_us.wglog", "us", Lower),
    layer("driver.lat_p50_us.xpath", "us", Lower),
    layer("driver.lat_tail_us", "us", Lower),
    layer("driver.lat_tail_pct", "%", Higher),
    layer("driver.rss_peak_mb", "MB", Lower),
    layer("driver.samples", "count", Higher),
    layer("driver.window.rps", "1/s", Higher),
    layer("driver.window.lat_p50_us", "us", Lower),
    layer("driver.window.lat_p99_us", "us", Lower),
    layer("driver.fail_ratio", "ratio", Lower),
    layer("driver.trace_overhead_ratio", "ratio", Lower),
    layer("trace.stage_sum_ok_ratio", "ratio", Higher),
    layer("driver.nproc", "count", Higher),
    layer("driver.clients", "count", Higher),
    layer("driver.workers", "count", Higher),
];

/// Measured values in print order. `finish` holds the set to the declared
/// table, so a drifted name cannot reach the driver.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Check the set against `table` — every declared name exactly once,
    /// nothing else, every value finite — and return it in table order.
    pub fn finish(self, table: &'static [Decl]) -> Result<Vec<(&'static Decl, f64)>, String> {
        for (name, value) in &self.0 {
            if !table.iter().any(|d| d.name == *name) {
                return Err(format!("metric `{name}` is not declared"));
            }
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
        }
        table
            .iter()
            .map(|d| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == d.name);
                match (hits.next(), hits.next()) {
                    (Some((_, v)), None) => Ok((d, *v)),
                    (None, _) => Err(format!("declared metric `{}` was not measured", d.name)),
                    (Some(_), Some(_)) => Err(format!("metric `{}` measured twice", d.name)),
                }
            })
            .collect()
    }
}
