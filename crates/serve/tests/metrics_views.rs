//! The telemetry plane's views of one service, scraped over a real socket
//! after a deterministic mix of outcomes: two answers, an unknown dataset,
//! an unknown tenant, a zero-slot rejection, a quota rejection, a budget
//! trip, and one request id sent twice.
//!
//! * the counters, report and Prometheus views print the same numbers
//!   (`views_agree`) — a class added to one of them and forgotten in another
//!   fails here, which is how the exposition lost `deduped` for ten PRs;
//! * the exposition is what a Prometheus server accepts and graphs
//!   correctly: the text grammar, one `# TYPE` per family, no duplicate
//!   sample, cumulative buckets closed by `+Inf == _count`, the conservation
//!   laws, and counters that only move forward from one scrape to the next;
//! * the report accounts for what it saw: a latency sample per admitted
//!   request with ordered percentiles, and every event appended either
//!   retained or dropped.

#![cfg(not(miri))]

use std::collections::{BTreeMap, BTreeSet};

use gql_guard::Budget;
use gql_serve::json::Value;
use gql_serve::proto::{decode_response, encode_request};
use gql_serve::{
    Catalog, Client, Envelope, ErrorCode, Request, Server, Service, ServiceMetrics,
    TelemetryConfig, TenantRegistry,
};

/// A served catalog of one tiny dataset, four tenants that make every
/// admission outcome reachable on demand, and one client connection.
struct Mix {
    service: Service,
    server: Server,
    client: Client,
}

impl Mix {
    fn start() -> Mix {
        let mut catalog = Catalog::new();
        catalog
            .register_xml("d", "<r><a/><a/><b><a/></b></r>")
            .expect("dataset parses");
        let mut tenants = TenantRegistry::new();
        tenants.register("public", Envelope::slots(8));
        // No slot: every submission is rejected `overloaded`.
        tenants.register("cap0", Envelope::slots(0));
        // No quota: every submission is rejected `rate_limited`.
        tenants.register("limited", Envelope::slots(8).with_requests_per_sec(0));
        // One match: any query with two results trips its budget.
        tenants.register(
            "strict",
            Envelope::slots(4).with_per_query(Budget::unlimited().with_max_matches(1)),
        );
        let service = Service::builder()
            .workers(2)
            .catalog(catalog)
            .tenants(tenants)
            // Threshold zero: every reply qualifies for the slow log, so the
            // budget trip's capture does not depend on timing.
            .telemetry(TelemetryConfig::default().with_slow_threshold_us(0))
            .build();
        let server = Server::bind("127.0.0.1:0", service.handle()).expect("bind");
        let client = Client::connect(server.addr()).expect("connect");
        Mix {
            service,
            server,
            client,
        }
    }

    /// One round of the mix; every reply is the outcome its request asks for.
    fn round(&mut self) {
        let query = |tenant, dataset, query| Request::new(tenant, dataset, "xpath", query);
        let retried = query("public", "d", "//b/a").with_request_id("mix-1");
        let traffic = [
            (query("public", "d", "//a"), None),
            (query("public", "d", "//b"), None),
            (
                query("public", "nope", "//a"),
                Some(ErrorCode::UnknownDataset),
            ),
            (query("ghost", "d", "//a"), Some(ErrorCode::UnknownTenant)),
            (query("cap0", "d", "//a"), Some(ErrorCode::Overloaded)),
            (query("limited", "d", "//a"), Some(ErrorCode::RateLimited)),
            (query("strict", "d", "//a"), Some(ErrorCode::Budget)),
            // The first round runs it once and replays it once; later rounds
            // replay both.
            (retried.clone(), None),
            (retried, None),
        ];
        for (request, expect) in traffic {
            let reply = self
                .client
                .roundtrip(&encode_request(&request))
                .expect("roundtrip");
            let response = decode_response(&reply).expect("a query reply");
            assert_eq!(response.error_code(), expect, "{request:?}: {response:?}");
        }
    }

    /// The `metrics` op's reply member for one view.
    fn view(&mut self, view: &str, member: &str) -> Value {
        let request = Value::Obj(vec![
            ("op".into(), Value::str("metrics")),
            ("view".into(), Value::str(view)),
        ]);
        let reply = self.client.roundtrip(&request).expect("roundtrip");
        reply
            .get(member)
            .unwrap_or_else(|| panic!("no `{member}` in {}", reply.render()))
            .clone()
    }

    fn scrape(&mut self) -> Scrape {
        let text = self.view("prometheus", "prometheus");
        Scrape::parse(text.as_str().expect("the exposition is one string"))
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// A sample's label set, sorted, so two spellings of it are one series.
type Labels = BTreeMap<String, String>;

/// One sample line: `name{label="value",…} number`.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Labels,
    value: f64,
}

impl Sample {
    /// The family a `# TYPE` line declares this sample under.
    fn family(&self) -> &str {
        ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| self.name.strip_suffix(suffix))
            .unwrap_or(&self.name)
    }
}

/// One parsed exposition. Parsing is the grammar check: a line a Prometheus
/// server would refuse panics here with the line.
struct Scrape {
    /// Family → `counter` | `gauge` | `histogram`.
    types: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

fn is_name(s: &str, extra: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || extra.contains(c))
        && chars.all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes in values.
fn parse_labels(body: &str, line: &str) -> Labels {
    let mut labels = Labels::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after) = rest
            .split_once("=\"")
            .unwrap_or_else(|| panic!("label without a quoted value: {line}"));
        assert!(
            is_name(key, "_") && !key.starts_with("__"),
            "label name: {line}"
        );
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next() {
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c @ ('\\' | '"'))) => value.push(c),
                    _ => panic!("bad escape in a label value: {line}"),
                },
                Some((_, c)) => value.push(c),
                None => panic!("unterminated label value: {line}"),
            }
        };
        assert!(
            labels.insert(key.to_string(), value).is_none(),
            "label given twice: {line}"
        );
        rest = &after[end + 1..];
        if !rest.is_empty() {
            rest = rest
                .strip_prefix(',')
                .unwrap_or_else(|| panic!("labels not comma-separated: {line}"));
            assert!(!rest.is_empty(), "trailing comma: {line}");
        }
    }
    labels
}

impl Scrape {
    fn parse(text: &str) -> Scrape {
        let mut types = BTreeMap::new();
        let mut samples: Vec<Sample> = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let words: Vec<&str> = rest.split(' ').collect();
                assert!(
                    matches!(words[..], [family, "counter" | "gauge" | "histogram"] if is_name(family, "_:")),
                    "malformed TYPE line: {line}"
                );
                assert!(
                    types
                        .insert(words[0].to_string(), words[1].to_string())
                        .is_none(),
                    "family declared twice: {line}"
                );
                continue;
            }
            assert!(
                !line.starts_with('#'),
                "only TYPE comments are emitted: {line}"
            );
            let (series, value) = line.rsplit_once(' ').expect("`series value`");
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    (name, parse_labels(body, line))
                }
                None => (series, Labels::new()),
            };
            assert!(is_name(name, "_:"), "metric name: {line}");
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("value: {line}"));
            assert!(value.is_finite() && value >= 0.0, "unusable value: {line}");
            let sample = Sample {
                name: name.to_string(),
                labels,
                value,
            };
            assert!(
                types.contains_key(sample.family()),
                "sample before its # TYPE: {line}"
            );
            assert!(
                !samples
                    .iter()
                    .any(|s| s.name == sample.name && s.labels == sample.labels),
                "duplicate sample: {line}"
            );
            samples.push(sample);
        }
        assert!(!samples.is_empty(), "no samples at all");
        Scrape { types, samples }
    }

    /// `class` → value of one request-counter family, for one tenant or for
    /// the service.
    fn classes(&self, family: &str, tenant: Option<&str>) -> BTreeMap<String, u64> {
        self.samples
            .iter()
            .filter(|s| s.name == family && s.labels.get("tenant").map(String::as_str) == tenant)
            .map(|s| (s.labels["class"].clone(), s.value as u64))
            .collect()
    }

    /// Every `_bucket` series is cumulative in `le` order, ends in exactly
    /// one `+Inf` bucket equal to the series' `_count`, and has a `_sum`.
    fn check_histograms(&self) {
        let mut series: BTreeMap<(&str, Labels), Vec<(f64, f64)>> = BTreeMap::new();
        for s in self.samples.iter().filter(|s| s.name.ends_with("_bucket")) {
            let mut rest = s.labels.clone();
            let le = rest.remove("le").expect("a bucket has an `le` label");
            let le = match le.as_str() {
                "+Inf" => f64::INFINITY,
                bound => bound.parse().expect("numeric `le`"),
            };
            series
                .entry((s.family(), rest))
                .or_default()
                .push((le, s.value));
        }
        assert!(!series.is_empty(), "no histogram buckets at all");
        for ((family, labels), mut buckets) in series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(
                buckets
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
                "{family}{labels:?} is not cumulative: {buckets:?}"
            );
            let partner = |suffix: &str| {
                self.samples
                    .iter()
                    .find(|s| s.name == format!("{family}{suffix}") && s.labels == labels)
                    .map(|s| s.value)
            };
            let (last_le, last) = *buckets.last().expect("non-empty");
            assert_eq!(last_le, f64::INFINITY, "{family}{labels:?} has no +Inf");
            assert_eq!(Some(last), partner("_count"), "{family}{labels:?}");
            assert!(partner("_sum").is_some(), "{family}{labels:?} has no _sum");
        }
    }

    /// The laws as the exposition prints them: four terms for the service
    /// (an idempotent retry is absorbed before its tenant is resolved),
    /// three per tenant, quota rejections a subset of rejections.
    fn check_conservation(&self) {
        let service = self.classes("gql_requests_total", None);
        assert_eq!(
            service["admitted"] + service["rejected"] + service["refused"] + service["deduped"],
            service["submitted"],
            "{service:?}"
        );
        assert!(
            service["rate_limited"] <= service["rejected"],
            "{service:?}"
        );
        let tenants: BTreeSet<&str> = self
            .samples
            .iter()
            .filter(|s| s.name == "gql_tenant_requests_total")
            .map(|s| s.labels["tenant"].as_str())
            .collect();
        assert!(!tenants.is_empty(), "no per-tenant request counters");
        for tenant in tenants {
            let t = self.classes("gql_tenant_requests_total", Some(tenant));
            assert_eq!(
                t["admitted"] + t["rejected"] + t["refused"],
                t["submitted"],
                "{tenant}: {t:?}"
            );
            assert!(t["rate_limited"] <= t["rejected"], "{tenant}: {t:?}");
        }
    }
}

/// The members of a counters-view object that are request classes: every
/// number except the cache-event tallies (`gql_cache_events_total` in the
/// exposition) and the high-water marks.
fn request_classes(counters: &Value) -> BTreeMap<String, u64> {
    let Value::Obj(members) = counters else {
        panic!("not an object: {}", counters.render());
    };
    members
        .iter()
        .filter(|(name, _)| {
            !["prepared_", "plan_", "index_", "peak_"]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
        .collect()
}

/// Every view of the telemetry plane prints `ServiceMetrics::to_value()`:
/// the counters view is it, the report embeds it, and each class of
/// `gql_requests_total` / `gql_tenant_requests_total` is its same-named
/// member — equal values and equal class sets, for the service and for every
/// tenant.
#[test]
fn views_agree() {
    let mut mix = Mix::start();
    mix.round();
    mix.round();
    let counters = mix.view("counters", "metrics");
    assert_eq!(counters, mix.service.handle().metrics().to_value());
    let scrape = mix.scrape();
    let report = mix.view("report", "report");
    assert_eq!(report.get("counters"), Some(&counters));

    assert_eq!(
        scrape.classes("gql_requests_total", None),
        request_classes(&counters)
    );
    let tenants = counters.get("tenants").and_then(Value::as_arr).unwrap();
    assert_eq!(tenants.len(), 4);
    for tenant in tenants {
        let name = tenant.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(
            scrape.classes("gql_tenant_requests_total", Some(name)),
            request_classes(tenant),
            "tenant {name}"
        );
    }
    // The mix makes the class the exposition used to omit non-zero.
    let limited = scrape.classes("gql_tenant_requests_total", Some("limited"));
    assert_eq!(limited["rate_limited"], 2);

    // The single-valued counters are members of the report.
    for (family, section, member) in [
        ("gql_events_appended_total", "events", "appended"),
        ("gql_events_dropped_total", "events", "dropped"),
        ("gql_slow_queries_total", "slow", "captured"),
    ] {
        let sample = scrape.samples.iter().find(|s| s.name == family);
        let reported = report.get(section).and_then(|s| s.get(member));
        assert_eq!(
            sample.map(|s| s.value as u64),
            reported.and_then(Value::as_u64),
            "{family} against report.{section}.{member}"
        );
    }
    mix.shutdown();
}

/// Two scrapes with traffic between them: each is well formed and conserved,
/// they declare the same families, and no counter moves backwards.
#[test]
fn exposition_is_well_formed_conserved_and_monotone_across_scrapes() {
    const COUNTER_FAMILIES: [&str; 6] = [
        "gql_requests_total",
        "gql_tenant_requests_total",
        "gql_cache_events_total",
        "gql_events_appended_total",
        "gql_events_dropped_total",
        "gql_slow_queries_total",
    ];
    let mut mix = Mix::start();
    mix.round();
    let first = mix.scrape();
    mix.round();
    mix.round();
    let second = mix.scrape();

    assert_eq!(first.types, second.types);
    for family in COUNTER_FAMILIES {
        assert_eq!(first.types.get(family).map(String::as_str), Some("counter"));
    }
    for scrape in [&first, &second] {
        scrape.check_histograms();
        scrape.check_conservation();
    }
    for before in &first.samples {
        if first.types[before.family()] != "counter" {
            continue;
        }
        let after = second
            .samples
            .iter()
            .find(|s| s.name == before.name && s.labels == before.labels)
            .unwrap_or_else(|| panic!("{before:?} vanished between scrapes"));
        assert!(
            after.value >= before.value,
            "{before:?} moved back to {after:?}"
        );
    }
    // 9 requests a round; the retried id runs once, ever.
    let (was, now) = (
        first.classes("gql_requests_total", None),
        second.classes("gql_requests_total", None),
    );
    assert_eq!((was["submitted"], now["submitted"]), (9, 27));
    assert_eq!((was["deduped"], now["deduped"]), (1, 5));
    for class in [
        "admitted",
        "rejected",
        "refused",
        "budget_tripped",
        "completed",
    ] {
        assert!(was[class] >= 1, "the mix never produced a {class} request");
    }
    mix.shutdown();
}

/// The typed counters obey the laws the exposition prints, and the report
/// accounts for every request it saw.
#[test]
fn report_orders_percentiles_and_accounts_for_every_event() {
    let mut mix = Mix::start();
    mix.round();
    let ServiceMetrics {
        submitted,
        admitted,
        rejected,
        rate_limited,
        refused,
        deduped,
        completed,
        budget_tripped,
        ..
    } = mix.service.handle().metrics();
    assert_eq!(admitted + rejected + refused + deduped, submitted);
    assert_eq!(
        (
            submitted,
            admitted,
            rejected,
            rate_limited,
            refused,
            deduped
        ),
        (9, 4, 2, 1, 2, 1)
    );
    assert_eq!((completed, budget_tripped), (3, 1));

    let report = mix.view("report", "report");
    let member = |path: &[&str]| {
        let found = path.iter().try_fold(&report, |v, key| v.get(key));
        found
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no integer at {path:?} in {}", report.render()))
    };
    // One latency sample per admitted request, percentiles in order.
    assert_eq!(member(&["latency_all", "count"]), admitted);
    assert!(member(&["latency_all", "p50_us"]) <= member(&["latency_all", "p95_us"]));
    assert!(member(&["latency_all", "p95_us"]) <= member(&["latency_all", "p99_us"]));
    // Admit, dequeue, start and reply per admitted request, and the trip.
    assert_eq!(
        member(&["events", "appended"]),
        4 * admitted + budget_tripped
    );
    assert_eq!(
        member(&["events", "retained"]) + member(&["events", "dropped"]),
        member(&["events", "appended"])
    );
    assert!(report.get("windows").is_some() && report.get("latency").is_some());
    mix.shutdown();
}
