//! The traced run: one client, serial, fixed counts. For every request the
//! composite calls a client makes (`Client::roundtrip`, `ServeHandle::submit`,
//! `ServeHandle::reload_xml`) are recorded as spans, and then the request
//! path is replayed stage by stage through the public function of each
//! layer, each stage a child span of the composite it belongs to.
//!
//! The stages run beside the composite, not inside it (spans inside the
//! program are a later change), so a composite's self time is what the
//! public stages do not explain: queue hand-off, reply channel, telemetry
//! and the always-on profile for `submit`; sockets and the connection
//! thread for `roundtrip`.

use std::sync::Arc;
use std::time::Instant;

use gql_core::{Engine, QueryKind};
use gql_serve::json::Value;
use gql_serve::proto::{
    decode_op, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use gql_serve::service::parse_query;
use gql_serve::{Client, Dataset, Envelope, TenantRegistry};
use gql_ssdm::{DocIndex, Summary};
use gql_wglog::eval::FixpointMode;
use gql_wglog::Instance;
use gql_xmlgl::eval::{construct_rule_with, match_rule_with, MatchMode};

use crate::trace::{Recorder, NO_PARENT};
use crate::workload::{Check, Fixture, Inputs, Path, Surface, RELOAD_DATASET, TENANT};

/// The benchmark's own index, summary, instance and planning engine for
/// one dataset: what the engine-internal stages are replayed against.
struct Side {
    name: &'static str,
    ds: Arc<Dataset>,
    idx: DocIndex,
    summary: Summary,
    instance: Instance,
    /// Preloaded like a catalog engine; its plan cache is cleared at will
    /// without touching the service's counters.
    planner: Engine,
}

impl Side {
    fn build(fixture: &Fixture, name: &'static str) -> Side {
        let ds = fixture.dataset(name);
        let idx = DocIndex::build(ds.doc());
        let summary = Summary::from_index(ds.doc(), &idx);
        let mut planner = Engine::new();
        planner.preload(ds.doc());
        Side {
            name,
            instance: Instance::from_document(ds.doc()),
            idx,
            summary,
            planner,
            ds,
        }
    }
}

/// What the untraced serial pass measured.
pub struct Serial {
    pub requests: u64,
    /// The whole loop, reply checks included: what one caller sustains.
    pub seconds: f64,
    /// Inside the calls alone: what the traced composites compare with.
    pub call_seconds: f64,
}

impl Serial {
    pub fn mean_us(&self) -> f64 {
        self.call_seconds * 1e6 / self.requests as f64
    }

    pub fn rate(&self) -> f64 {
        self.requests as f64 / self.seconds
    }
}

/// The untraced serial pass over the workload's own path: the base of
/// `driver.trace_overhead_ratio` and of `serve.service.scale_eff`.
pub fn serial_pass(fixture: &Fixture) -> Result<Serial, String> {
    let mut path = fixture.connect()?;
    let t0 = Instant::now();
    let mut requests = 0;
    let mut call_seconds = 0.0;
    for _ in 0..fixture.spec.trace_reps {
        for i in 0..fixture.requests.len() {
            let sent = Instant::now();
            let reply = fixture.call(&mut path, i)?;
            call_seconds += sent.elapsed().as_secs_f64();
            fixture.check(i, &reply, Check::Checksum)?;
            requests += 1;
        }
    }
    Ok(Serial {
        requests,
        seconds: t0.elapsed().as_secs_f64(),
        call_seconds,
    })
}

fn run_span(surface: Surface) -> &'static str {
    match surface {
        Surface::XmlGl => "core.engine.run.xmlgl",
        Surface::WgLog => "core.engine.run.wglog",
        Surface::XPath => "core.engine.run.xpath",
    }
}

/// A frame written to and read back from memory.
fn frame_trip(payload: &[u8]) -> usize {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut buf, payload).expect("memory write");
    read_frame(&mut &buf[..])
        .expect("memory read")
        .map_or(0, |f| f.len())
}

/// Replay every item `trace_reps` times, then as many reloads.
pub fn traced_pass(fixture: &Fixture, rec: &mut Recorder) -> Result<(), String> {
    let server = fixture
        .server
        .as_ref()
        .ok_or("the traced run needs a server")?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let handle = &fixture.handle;
    // A stand-in tenant with the service tenant's envelope, so replaying
    // admission does not disturb the service's own accounting.
    let tenant = TenantRegistry::new().register(TENANT, Envelope::slots(1 << 16));

    let mut names: Vec<&'static str> = fixture.inputs.items.iter().map(|i| i.dataset).collect();
    names.sort_unstable();
    names.dedup();
    let sides: Vec<Side> = names.iter().map(|n| Side::build(fixture, n)).collect();

    let mut request = 0u32;
    for rep in 0..fixture.spec.trace_reps {
        for (i, item) in fixture.inputs.items.iter().enumerate() {
            let r = request;
            request += 1;
            let req = &fixture.requests[i];
            let side = sides
                .iter()
                .find(|s| s.name == item.dataset)
                .expect("a side per dataset");

            // The wire composite and its stages. A reply too large for one
            // frame cannot cross the wire at all (the client refuses it), so
            // for those items only the in-memory codecs are recorded.
            let rt = if fixture.fits_a_frame(i) {
                let (rt, reply) = rec.time("serve.server.roundtrip", NO_PARENT, r, || {
                    client.roundtrip(&fixture.wire_requests[i])
                });
                let reply = reply.map_err(|e| format!("traced roundtrip: {e}"))?;
                fixture.check(i, &decode_response(&reply)?, Check::Checksum)?;
                let request_bytes = fixture.wire_requests[i].render();
                let reply_bytes = reply.render();
                rec.time("serve.proto.frame", rt, r, || {
                    frame_trip(request_bytes.as_bytes()) + frame_trip(reply_bytes.as_bytes())
                });
                rt
            } else {
                NO_PARENT
            };
            let (_, op) = rec.time("serve.proto.request_codec", rt, r, || {
                decode_op(encode_request(req).render().as_bytes())
            });
            op.map_err(|e| format!("request codec: {e}"))?;

            // The service composite: a stage of the roundtrip, and the
            // parent of the in-process stages.
            let (sub, resp) = rec.time("serve.service.submit", rt, r, || handle.submit(req));
            fixture.check(i, &resp, Check::Checksum)?;

            let codec = rec.open("serve.proto.reply_codec", rt, r);
            let encoded = encode_response(&resp);
            let (render, text) = rec.time("serve.json.render", codec, r, || encoded.render());
            rec.set_units(render, text.len() as u64);
            let (parse, parsed) = rec.time("serve.json.parse", codec, r, || Value::parse(&text));
            rec.set_units(parse, text.len() as u64);
            let decoded = decode_response(&parsed?);
            rec.close(codec);
            decoded?;

            let (_, ds) = rec.time("serve.catalog.resolve", sub, r, || {
                let ds = handle.catalog().get(&req.dataset);
                ds.filter(|d| d.verify())
            });
            let ds = ds.ok_or("traced resolve failed")?;
            let (_, query) = rec.time("serve.service.parse_query", sub, r, || {
                parse_query(&req.kind, &req.query)
            });
            let query = query?;
            rec.time("serve.tenant.admit", sub, r, || drop(tenant.try_admit()));
            let (run, outcome) = rec.time(run_span(item.surface), sub, r, || {
                ds.engine().run(&query, ds.doc())
            });
            let outcome = outcome.map_err(|e| format!("traced engine run: {e}"))?;
            let (write, xml) =
                rec.time("ssdm.xml.write", sub, r, || outcome.output.to_xml_string());
            rec.set_units(write, xml.len() as u64);

            // Inside the engine run, against the benchmark's own index.
            let doc = side.ds.doc();
            match &query {
                QueryKind::XmlGl(program) => {
                    let mut out = gql_ssdm::Document::new();
                    for rule in &program.rules {
                        let (_, bindings) = rec.time("xmlgl.eval.match", run, r, || {
                            match_rule_with(rule, doc, &side.idx, MatchMode::Auto)
                        });
                        let (_, built) = rec.time("xmlgl.eval.construct", run, r, || {
                            construct_rule_with(rule, doc, Some(&side.idx), &bindings, &mut out)
                        });
                        built.map_err(|e| format!("traced construct: {e}"))?;
                    }
                    let (_, parsed) = rec.time("xmlgl.dsl.parse", NO_PARENT, r, || {
                        gql_xmlgl::dsl::parse_unchecked(&req.query).map(drop)
                    });
                    parsed.map_err(|e| format!("traced xmlgl parse: {e}"))?;
                }
                QueryKind::WgLog(program) => {
                    let (_, ran) = rec.time("wglog.eval.fixpoint", run, r, || {
                        gql_wglog::eval::run_with(program, &side.instance, FixpointMode::SemiNaive)
                            .map(drop)
                    });
                    ran.map_err(|e| format!("traced fixpoint: {e}"))?;
                    let (_, parsed) = rec.time("wglog.dsl.parse", NO_PARENT, r, || {
                        gql_wglog::dsl::parse_unchecked(&req.query).map(drop)
                    });
                    parsed.map_err(|e| format!("traced wglog parse: {e}"))?;
                }
                QueryKind::XPath(expr) => {
                    let (_, parsed) = rec.time("xpath.parser.parse", NO_PARENT, r, || {
                        gql_xpath::parse(expr)
                    });
                    let parsed = parsed.map_err(|e| format!("traced xpath parse: {e}"))?;
                    let (_, value) = rec.time("xpath.eval.eval", run, r, || {
                        gql_xpath::evaluate_with_index(doc, &parsed, &side.idx).map(drop)
                    });
                    value.map_err(|e| format!("traced xpath eval: {e}"))?;
                }
            }

            // Planning and the cache-less library path: off the warm
            // request's blocking path, so parentless, and on the first
            // repetitions only.
            if rep < fixture.spec.trace_cold_reps() {
                plan_stages(rec, side, &query, r)?;
            }
        }
    }

    // Reloads: the composite, then the stages a swap runs.
    let mut epoch = fixture.dataset(RELOAD_DATASET).epoch();
    for _ in 0..fixture.spec.trace_reps {
        let r = request;
        request += 1;
        epoch += 1;
        let xml = &fixture.inputs.reload_xml[Inputs::version_of_epoch(epoch)];
        let (reload, swapped) = rec.time("serve.catalog.reload", NO_PARENT, r, || {
            handle.reload_xml(RELOAD_DATASET, xml)
        });
        rec.set_units(reload, xml.len() as u64);
        let swapped = swapped.map_err(|resp| format!("traced reload refused: {resp:?}"))?;
        if swapped.epoch() != epoch {
            return Err(format!(
                "traced reload gave epoch {}, expected {epoch}",
                swapped.epoch()
            ));
        }
        let (parse, doc) = rec.time("ssdm.xml.parse", reload, r, || gql_ssdm::xml::parse(xml));
        rec.set_units(parse, xml.len() as u64);
        let doc = doc.map_err(|e| format!("traced parse: {e}"))?;
        let (build, idx) = rec.time("ssdm.index.build", reload, r, || DocIndex::build(&doc));
        rec.set_units(build, idx.elements().len() as u64);
        rec.time("ssdm.summary.from_index", reload, r, || {
            drop(Summary::from_index(&doc, &idx))
        });
        rec.time("wglog.instance.load", reload, r, || {
            drop(Instance::from_document(&doc))
        });
        // On `reload_mixed`, reads right after a swap plan cold — at a
        // fixed place in the sequence, so `plan.cache.hit_ratio` repeats.
        let mut path = Path::InProc(handle.clone());
        for i in 0..fixture.requests.len() {
            if fixture.inputs.items[i].dataset == RELOAD_DATASET {
                let reply = fixture.call(&mut path, i)?;
                let served = fixture.check(i, &reply, Check::Checksum)?;
                if served != epoch {
                    return Err(format!("read after reload saw epoch {served}, not {epoch}"));
                }
            }
        }
    }
    Ok(())
}

/// Cold planning against the benchmark's preloaded engine, inference and
/// lowering on their own, and the one-shot library path (fresh `Engine`,
/// nothing preloaded).
fn plan_stages(rec: &mut Recorder, side: &Side, query: &QueryKind, r: u32) -> Result<(), String> {
    let doc = side.ds.doc();
    side.planner.clear_plan_cache();
    let (cold, ran) = rec.time("plan.cold_run", NO_PARENT, r, || {
        side.planner.run(query, doc).map(drop)
    });
    ran.map_err(|e| format!("cold plan run: {e}"))?;
    // The warm run is a child of the cold one, so the cold span's self
    // time is the planning it did on top of a warm run.
    let (_, ran) = rec.time("plan.warm_run", cold, r, || {
        side.planner.run(query, doc).map(drop)
    });
    ran.map_err(|e| format!("warm plan run: {e}"))?;

    let summary = &side.summary;
    match query {
        QueryKind::XmlGl(program) => {
            let (_, inference) = rec.time("infer.infer", NO_PARENT, r, || {
                gql_infer::infer_xmlgl(program, summary)
            });
            rec.time("plan.lower", NO_PARENT, r, || {
                let orders: Vec<Option<Vec<usize>>> = program
                    .rules
                    .iter()
                    .enumerate()
                    .map(|(i, rule)| {
                        inference
                            .root_bounds
                            .get(i)
                            .and_then(|b| gql_plan::plan_rule_order(rule, b))
                    })
                    .collect();
                drop(gql_plan::lower_xmlgl(program, &inference, &orders))
            });
        }
        QueryKind::WgLog(program) => {
            let (_, inference) = rec.time("infer.infer", NO_PARENT, r, || {
                gql_infer::infer_wglog(program, summary)
            });
            rec.time("plan.lower", NO_PARENT, r, || {
                drop(gql_plan::lower_wglog(program, &inference))
            });
        }
        QueryKind::XPath(expr) => {
            let parsed = gql_xpath::parse(expr).map_err(|e| format!("xpath parse: {e}"))?;
            let (_, inference) = rec.time("infer.infer", NO_PARENT, r, || {
                gql_infer::infer_xpath(&parsed, summary)
            });
            rec.time("plan.lower", NO_PARENT, r, || {
                drop(gql_plan::lower_xpath(&parsed, &inference))
            });
        }
    }
    let (_, ran) = rec.time("core.engine.cold_run", NO_PARENT, r, || {
        Engine::new().run(query, doc).map(drop)
    });
    ran.map_err(|e| format!("cold library run: {e}"))?;
    Ok(())
}
