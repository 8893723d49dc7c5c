//! The four workloads: frozen query texts and dataset parameters, the
//! seeded inputs made from them, and the set-up (catalog, service, server,
//! warm-up with the served-vs-direct oracle) every run starts from.
//!
//! Nothing here reads `tests/corpus/` or `gql_bench::suite`: later changes
//! edit those, and a benchmark whose inputs move with the code under test
//! measures nothing.

use std::sync::Arc;

use gql_core::Engine;
use gql_serve::json::Value;
use gql_serve::proto::{decode_response, encode_request};
use gql_serve::service::parse_query;
use gql_serve::{
    Catalog, Client, Envelope, Request, Response, ServeHandle, Server, Service, TenantRegistry,
};
use gql_ssdm::generator::{
    bibliography, cityguide, greengrocer, BibConfig, CityConfig, GrocerConfig,
};
use gql_ssdm::Document;

use crate::calib::Shape;
use crate::stats::fnv64;

/// The tenant every request runs as; wide enough that admission never
/// rejects, so the closed loop measures execution and queueing.
pub const TENANT: &str = "bench";
const TENANT_SLOTS: u64 = 1 << 16;

/// The dataset every reload swaps: registered on all four workloads (the
/// steady ones time reloads on an idle service after their window), queried
/// only by `reload_mixed`.
pub const RELOAD_DATASET: &str = "bib.m";
/// `bib.m` size: ≈140 KB of XML, ≈10 ms per swap.
const RELOAD_BOOKS: usize = 400;
/// One reload per this many milliseconds, on both commits.
pub const RELOAD_PERIOD_MS: u64 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    XmlGl,
    WgLog,
    XPath,
}

impl Surface {
    pub const ALL: [Surface; 3] = [Surface::XmlGl, Surface::WgLog, Surface::XPath];

    /// The `kind` string of the wire protocol.
    pub fn kind(self) -> &'static str {
        match self {
            Surface::XmlGl => "xmlgl",
            Surface::WgLog => "wglog",
            Surface::XPath => "xpath",
        }
    }
}

/// One query in one surface against one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    pub id: &'static str,
    pub surface: Surface,
    pub dataset: &'static str,
    pub query: &'static str,
}

macro_rules! item {
    ($id:literal, $surface:ident, $dataset:literal, $file:literal) => {
        Item {
            id: $id,
            surface: Surface::$surface,
            dataset: $dataset,
            query: include_str!(concat!("../queries/", $file)),
        }
    };
}

/// Q1–Q10 in every surface that can state them: 22 items.
pub const POINT_ITEMS: &[Item] = &[
    item!("q01", XmlGl, "city", "q01.xmlgl"),
    item!("q01", WgLog, "city", "q01.wglog"),
    item!("q01", XPath, "city", "q01.xpath"),
    item!("q02", XmlGl, "city", "q02.xmlgl"),
    item!("q02", WgLog, "city", "q02.wglog"),
    item!("q02", XPath, "city", "q02.xpath"),
    item!("q03", XmlGl, "city", "q03.xmlgl"),
    item!("q03", WgLog, "city", "q03.wglog"),
    item!("q03", XPath, "city", "q03.xpath"),
    item!("q04", XmlGl, "city", "q04.xmlgl"),
    item!("q04", XPath, "city", "q04.xpath"),
    item!("q05", XmlGl, "city", "q05.xmlgl"),
    item!("q05", WgLog, "city", "q05.wglog"),
    item!("q05", XPath, "city", "q05.xpath"),
    item!("q06", XmlGl, "grocer", "q06.xmlgl"),
    item!("q06", XPath, "grocer", "q06.xpath"),
    item!("q07", XmlGl, "city", "q07.xmlgl"),
    item!("q07", XPath, "city", "q07.xpath"),
    item!("q08", XmlGl, "city", "q08.xmlgl"),
    item!("q08", XPath, "city", "q08.xpath"),
    item!("q09", XmlGl, "city", "q09.xmlgl"),
    item!("q10", WgLog, "city", "q10.wglog"),
];

/// The four bibliography items `reload_mixed` sends against `bib.m`.
pub const RELOAD_ITEMS: &[Item] = &[
    item!("f2", XmlGl, "bib.m", "f2_book_selection.xmlgl"),
    item!("f4", XmlGl, "bib.m", "f4_person_projection.xmlgl"),
    item!("bib_titles", XPath, "bib.m", "bib_titles.xpath"),
    item!("bib_year", XPath, "bib.m", "bib_books_with_year.xpath"),
];

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Principal records per dataset.
    pub scale: usize,
    /// Requests travel over a loopback socket instead of `ServeHandle`.
    pub wire: bool,
    /// A writer thread reloads `bib.m` beside the readers.
    pub reload: bool,
    /// Serial warm-up passes over the item list (each reply checked).
    pub warmup_passes: usize,
    /// Traced repetitions of every item, and traced reloads.
    pub trace_reps: usize,
    /// Requests per slice of the measured window: a whole number of periods
    /// of the request sequence, a quarter to half a second of work.
    pub slice_requests: u64,
    /// The calibration unit run between slices: a few milliseconds of what
    /// this workload's requests are made of.
    pub calib: Shape,
}

/// Requests after which a client's sequence repeats: the item list on the
/// steady workloads. On `reload_mixed` 88 requests carry the point items
/// three times over and 16 carry the four `bib.m` items once each; 176 is
/// the first count both divide.
const STEADY_PERIOD: u64 = POINT_ITEMS.len() as u64;
const RELOAD_PERIOD: u64 = 176;

pub const SPECS: &[Spec] = &[
    Spec {
        name: "point_inproc",
        scale: 8,
        wire: false,
        reload: false,
        warmup_passes: 50,
        trace_reps: 200,
        slice_requests: 150 * STEADY_PERIOD,
        calib: Shape {
            records: 64,
            rounds: 100,
            handover: true,
            socket: false,
            chase_steps: 0,
            unit_ns: 1.9e6,
        },
    },
    Spec {
        name: "point_wire",
        scale: 8,
        wire: true,
        reload: false,
        warmup_passes: 50,
        trace_reps: 200,
        slice_requests: 100 * STEADY_PERIOD,
        calib: Shape {
            records: 64,
            rounds: 100,
            handover: true,
            socket: true,
            chase_steps: 0,
            unit_ns: 2.7e6,
        },
    },
    Spec {
        name: "analytic_inproc",
        scale: 1000,
        wire: false,
        reload: false,
        warmup_passes: 4,
        trace_reps: 20,
        slice_requests: 3 * STEADY_PERIOD,
        // No hand-over: a request is milliseconds of engine work. Over 506
        // slices of a badly disturbed 150 s (wall-clock medians of 40 slices
        // ranging over 32 %), the medians of 40 calibrated slices ranged
        // over 14.6 % with no chase, 6.5 / 4.1 / 5.5 % with a chase of 0.20 /
        // 0.28 / 0.39 of the unit's time, 12 % with 0.56.
        calib: Shape {
            records: 1000,
            rounds: 10,
            handover: false,
            socket: false,
            chase_steps: 6000,
            unit_ns: 3.15e6,
        },
    },
    Spec {
        name: "reload_mixed",
        scale: 8,
        wire: false,
        reload: true,
        warmup_passes: 50,
        trace_reps: 200,
        slice_requests: 20 * RELOAD_PERIOD,
        calib: Shape {
            records: 64,
            rounds: 100,
            handover: true,
            socket: false,
            chase_steps: 0,
            unit_ns: 1.85e6,
        },
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The first repetitions of the traced pass also run planning and the
    /// cold, cache-less library path: a tenth of them.
    pub fn trace_cold_reps(&self) -> usize {
        (self.trace_reps / 10).max(1)
    }

    /// `--smoke`: the same code paths at a fraction of the work.
    pub fn smoke(mut self) -> Spec {
        self.scale = self.scale.min(100);
        self.warmup_passes = self.warmup_passes.min(5);
        self.trace_reps = 3;
        self.slice_requests = if self.reload {
            RELOAD_PERIOD
        } else {
            STEADY_PERIOD
        };
        self
    }
}

/// How many callers the traced run's loaded window has: twice the CPUs, so
/// that a hand-over finds the other CPU busy rather than asleep. (The
/// end-to-end run has one.)
pub fn client_count(nproc: usize) -> usize {
    (2 * nproc).clamp(1, 8)
}

/// The seeded inputs of one run: the request list and the XML of every
/// dataset. The same `(spec, seed)` gives the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub items: Vec<Item>,
    /// `(name, xml)` in registration order.
    pub datasets: Vec<(&'static str, String)>,
    /// The two alternating versions of `bib.m`: odd epochs serve `[0]`,
    /// even epochs `[1]`, so a reply's bytes prove which epoch answered.
    pub reload_xml: [String; 2],
    /// Moves every client's offset into the request sequence.
    pub seed: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let records = spec.scale as f64;
        let city = matched(CITY_NODES_PER_RESTAURANT * records, 11, seed, |seed| {
            cityguide(CityConfig {
                restaurants: spec.scale,
                hotels: (spec.scale / 4).max(1),
                seed,
            })
        });
        // Every product has the same shape: the size does not move.
        let grocer = greengrocer(GrocerConfig {
            products: spec.scale,
            vendors: (spec.scale / 10).clamp(1, 10),
            seed: 13 + 1000 * seed,
        })
        .to_xml_string();
        // Two versions of `bib.m`, from two generator seed ranges.
        let bib = |base: u64| {
            matched(
                BIB_NODES_PER_BOOK * RELOAD_BOOKS as f64,
                base,
                seed,
                |seed| {
                    bibliography(BibConfig {
                        books: RELOAD_BOOKS,
                        people: RELOAD_BOOKS / 2,
                        seed,
                    })
                },
            )
        };
        let reload_xml = [bib(7), bib(500_007)];
        let datasets = vec![
            ("city", city),
            ("grocer", grocer),
            (RELOAD_DATASET, reload_xml[0].clone()),
        ];
        let mut items = POINT_ITEMS.to_vec();
        if spec.reload {
            items.extend_from_slice(RELOAD_ITEMS);
        }
        Inputs {
            items,
            datasets,
            reload_xml,
            seed,
        }
    }

    /// The item index of a client's `n`-th request. Steady workloads cycle
    /// the point items; `reload_mixed` sends a `bib.m` item every fourth
    /// request. `--seed` and the client number move the starting offset.
    pub fn sequence(&self, client: usize, n: u64) -> usize {
        let n = n + self.seed * 7 + client as u64 * 5;
        let points = POINT_ITEMS.len() as u64;
        if self.items.len() == POINT_ITEMS.len() {
            return (n % points) as usize;
        }
        if n % 4 == 3 {
            POINT_ITEMS.len() + ((n / 4) % RELOAD_ITEMS.len() as u64) as usize
        } else {
            ((n - n / 4) % points) as usize
        }
    }

    /// The version of `bib.m` a given epoch serves.
    pub fn version_of_epoch(epoch: u64) -> usize {
        ((epoch + 1) % 2) as usize
    }
}

/// Mean node count per principal record of each generated family, measured
/// over 2000 generator seeds: the size every seed's document is held to.
const CITY_NODES_PER_RESTAURANT: f64 = 27.04;
const BIB_NODES_PER_BOOK: f64 = 21.18;

/// One dataset's XML for `--seed`: generator seeds are tried from a
/// seed-dependent start until the document has `target` nodes, within
/// 0.1 %. Which records carry which values — and so every selectivity —
/// moves with the seed; the amount of data does not. At scale 8 a free
/// generator seed moves the node count by ±20 % and the throughput with it,
/// so the spread between runs would be the generator's, not the program's.
fn matched(target: f64, base: u64, seed: u64, make: impl Fn(u64) -> Document) -> String {
    let target = target.round() as usize;
    let slack = target / 1000;
    (base + 1000 * seed..)
        .take(100_000)
        .map(make)
        .find(|doc| doc.node_count().abs_diff(target) <= slack)
        .expect("no document of the frozen size: the generator changed, re-derive the targets")
        .to_xml_string()
}

/// What the oracle says a reply must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    Ok {
        xml: String,
        result_count: u64,
        fnv: u64,
    },
    /// The error class (`ErrorCode::name`) the fresh engine's failure maps to.
    Err(&'static str),
}

/// Run `item` on a fresh, cache-less, single-threaded engine over the
/// oracle's own parse of the dataset: the direct path the served reply
/// must equal.
fn oracle(item: &Item, doc: &Document) -> Expected {
    let query = match parse_query(item.surface.kind(), item.query.trim()) {
        Ok(q) => q,
        Err(_) => return Expected::Err("bad-request"),
    };
    match Engine::new().run(&query, doc) {
        Ok(out) => {
            let xml = out.output.to_xml_string();
            Expected::Ok {
                fnv: fnv64(xml.as_bytes()),
                result_count: out.result_count as u64,
                xml,
            }
        }
        Err(gql_core::CoreError::Rejected { .. }) => Expected::Err("rejected"),
        Err(gql_core::CoreError::Budget(_)) => Expected::Err("budget"),
        Err(_) => Expected::Err("engine"),
    }
}

/// How strictly a reply is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Warm-up: the reply bytes themselves.
    Bytes,
    /// In the window: `result_count` and the FNV-64 of `xml`.
    Checksum,
}

/// A way to send one request and wait for its reply.
pub enum Path {
    InProc(ServeHandle),
    Wire(Client),
}

/// Everything a run needs after set-up.
pub struct Fixture {
    pub spec: Spec,
    pub inputs: Arc<Inputs>,
    pub requests: Vec<Request>,
    /// The requests pre-encoded for the wire (`Client::roundtrip` renders).
    pub wire_requests: Vec<Value>,
    /// Per item, per `bib.m` version (one entry for every other dataset).
    pub expected: Vec<Vec<Expected>>,
    pub handle: ServeHandle,
    pub server: Option<Server>,
    /// Owns the worker pool; dropped last, which joins it.
    _service: Service,
}

impl Fixture {
    /// Register the inputs through `Catalog::register_xml` (the path an
    /// operator loading files takes), run the oracle, start the service (and
    /// the server for wire workloads), then warm up serially with every
    /// reply held byte-identical to the oracle. `with_server` forces a server
    /// for the traced run of in-process workloads. Making the inputs is not
    /// part of set-up: how long the size-matched seed search takes is the
    /// seed's luck, not the program's work.
    pub fn set_up(
        spec: Spec,
        inputs: Arc<Inputs>,
        nproc: usize,
        with_server: bool,
    ) -> Result<Fixture, String> {
        let mut catalog = Catalog::new();
        for (name, xml) in &inputs.datasets {
            catalog.register_xml(name, xml)?;
        }
        let mut tenants = TenantRegistry::new();
        tenants.register(TENANT, Envelope::slots(TENANT_SLOTS));
        let service = Service::builder()
            .workers(nproc)
            .catalog(catalog)
            .tenants(tenants)
            .build();
        let handle = service.handle();
        let server = if spec.wire || with_server {
            Some(
                Server::bind("127.0.0.1:0", handle.clone())
                    .map_err(|e| format!("bind loopback: {e}"))?,
            )
        } else {
            None
        };
        let requests: Vec<Request> = inputs
            .items
            .iter()
            .map(|it| Request::new(TENANT, it.dataset, it.surface.kind(), it.query.trim()))
            .collect();
        let wire_requests = requests.iter().map(encode_request).collect();
        let parse = |xml: &str| gql_ssdm::xml::parse(xml).map_err(|e| format!("oracle parse: {e}"));
        let docs = inputs
            .datasets
            .iter()
            .filter(|(name, _)| *name != RELOAD_DATASET)
            .map(|(name, xml)| Ok((*name, parse(xml)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let versions = [parse(&inputs.reload_xml[0])?, parse(&inputs.reload_xml[1])?];
        let expected = inputs
            .items
            .iter()
            .map(|it| {
                if it.dataset == RELOAD_DATASET {
                    versions.iter().map(|doc| oracle(it, doc)).collect()
                } else {
                    let (_, doc) = docs
                        .iter()
                        .find(|(name, _)| *name == it.dataset)
                        .expect("every item names a registered dataset");
                    vec![oracle(it, doc)]
                }
            })
            .collect();
        let fixture = Fixture {
            spec,
            inputs,
            requests,
            wire_requests,
            expected,
            handle,
            server,
            _service: service,
        };
        let mut path = fixture.connect()?;
        for _ in 0..spec.warmup_passes {
            for i in 0..fixture.requests.len() {
                let reply = fixture.call(&mut path, i)?;
                fixture
                    .check(i, &reply, Check::Bytes)
                    .map_err(|why| format!("warm-up oracle, item {}: {why}", fixture.label(i)))?;
            }
        }
        Ok(fixture)
    }

    /// Open this workload's client path.
    pub fn connect(&self) -> Result<Path, String> {
        match (&self.server, self.spec.wire) {
            (Some(server), true) => Client::connect(server.addr())
                .map(Path::Wire)
                .map_err(|e| format!("connect: {e}")),
            _ => Ok(Path::InProc(self.handle.clone())),
        }
    }

    /// Send item `i` and block for its reply. A transport error is an
    /// `Err`; the caller counts it as a failed request.
    pub fn call(&self, path: &mut Path, i: usize) -> Result<Response, String> {
        match path {
            Path::InProc(handle) => Ok(handle.submit(&self.requests[i])),
            Path::Wire(client) => {
                let value = client
                    .roundtrip(&self.wire_requests[i])
                    .map_err(|e| format!("transport: {e}"))?;
                decode_response(&value)
            }
        }
    }

    /// Compare a reply with the oracle. Returns the epoch it carried.
    pub fn check(&self, i: usize, reply: &Response, how: Check) -> Result<u64, String> {
        match reply {
            Response::Ok(ok) => {
                let versions = &self.expected[i];
                let want = if versions.len() == 1 {
                    &versions[0]
                } else {
                    &versions[Inputs::version_of_epoch(ok.epoch)]
                };
                let Expected::Ok {
                    xml,
                    result_count,
                    fnv,
                } = want
                else {
                    return Err(format!("served ok, direct run failed as {want:?}"));
                };
                if ok.result_count != *result_count {
                    return Err(format!(
                        "result_count {} != direct {result_count} (epoch {})",
                        ok.result_count, ok.epoch
                    ));
                }
                let same = match how {
                    Check::Bytes => ok.xml == *xml,
                    Check::Checksum => fnv64(ok.xml.as_bytes()) == *fnv,
                };
                if !same {
                    return Err(format!(
                        "reply bytes differ from the direct run (epoch {})",
                        ok.epoch
                    ));
                }
                Ok(ok.epoch)
            }
            Response::Err(e) => match &self.expected[i][0] {
                Expected::Err(class) if *class == e.code.name() => Ok(0),
                _ => Err(format!("served error {}: {}", e.code.name(), e.message)),
            },
        }
    }

    /// Whether item `i`'s reply crosses the wire: replies near the
    /// protocol's frame cap (JSON escaping grows the XML) do not.
    pub fn fits_a_frame(&self, i: usize) -> bool {
        self.expected[i].iter().all(|e| match e {
            Expected::Ok { xml, .. } => xml.len() < gql_serve::proto::MAX_FRAME / 2,
            Expected::Err(_) => true,
        })
    }

    pub fn label(&self, i: usize) -> String {
        let it = &self.inputs.items[i];
        format!("{}.{}", it.id, it.surface.kind())
    }

    pub fn dataset(&self, name: &str) -> Arc<gql_serve::Dataset> {
        self.handle
            .catalog()
            .get(name)
            .expect("registered at set-up")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_item_list_is_the_22_formulations() {
        assert_eq!(POINT_ITEMS.len(), 22);
        for s in Surface::ALL {
            assert!(POINT_ITEMS.iter().any(|i| i.surface == s));
        }
        for it in POINT_ITEMS.iter().chain(RELOAD_ITEMS) {
            parse_query(it.surface.kind(), it.query.trim())
                .unwrap_or_else(|e| panic!("{}.{}: {e}", it.id, it.surface.kind()));
        }
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
        for spec in SPECS {
            let spec = spec.smoke();
            let a = Inputs::generate(&spec, 11);
            let b = Inputs::generate(&spec, 11);
            assert_eq!(a, b, "{}: same seed, same bytes", spec.name);
            let seq = |x: &Inputs| (0..64).map(|n| x.sequence(1, n)).collect::<Vec<_>>();
            assert_eq!(seq(&a), seq(&b));
            let fingerprints = |x: &Inputs| {
                x.datasets
                    .iter()
                    .map(|(_, xml)| {
                        gql_ssdm::shallow_fingerprint(&gql_ssdm::xml::parse(xml).expect("parses"))
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(fingerprints(&a), fingerprints(&b));

            let c = Inputs::generate(&spec, 12);
            assert_ne!(
                a.datasets, c.datasets,
                "{}: another seed, other bytes",
                spec.name
            );
            assert_ne!(seq(&a), seq(&c), "another seed, another request order");
            assert_ne!(
                a.datasets
                    .iter()
                    .map(|(_, x)| fnv64(x.as_bytes()))
                    .collect::<Vec<_>>(),
                c.datasets
                    .iter()
                    .map(|(_, x)| fnv64(x.as_bytes()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reload_mixed_sends_a_bib_item_every_fourth_request() {
        let spec = Spec::by_name("reload_mixed").expect("declared").smoke();
        let inputs = Inputs::generate(&spec, 0);
        let picks: Vec<usize> = (0..16).map(|n| inputs.sequence(0, n)).collect();
        for (n, &i) in picks.iter().enumerate() {
            assert_eq!(
                i >= POINT_ITEMS.len(),
                n % 4 == 3,
                "request {n} -> item {i}"
            );
        }
        assert_eq!(Inputs::version_of_epoch(1), 0);
        assert_eq!(Inputs::version_of_epoch(2), 1);
        // Every slice is whole periods of the sequence: the same work.
        for n in 0..2 * RELOAD_PERIOD {
            assert_eq!(inputs.sequence(1, n), inputs.sequence(1, n + RELOAD_PERIOD));
        }
        for spec in SPECS {
            let period = if spec.reload {
                RELOAD_PERIOD
            } else {
                STEADY_PERIOD
            };
            assert_eq!(spec.slice_requests % period, 0, "{}", spec.name);
            assert_eq!(spec.smoke().slice_requests, period);
        }
    }
}
