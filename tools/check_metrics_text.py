#!/usr/bin/env python3
"""Validate the Prometheus exposition printed by `gql-serve smoke-metrics`.

The smoke-metrics run drives a deterministic traffic mix — successes,
unknown-dataset and unknown-tenant refusals, a zero-slot rejection, a
budget trip and a retried request id — through a real server, then
prints **two** scrapes of the `{"op":"metrics","view":"prometheus"}` wire
op separated by a marker line. CI pipes that output through this script, which checks what a real
Prometheus server would choke on (or silently mis-graph):

* grammar — every sample line is `name{labels} value` with metric and
  label names matching the exposition charset, every name under a
  preceding `# TYPE`, values finite and non-negative, no duplicate
  sample (same name + label set) within one scrape;
* histogram shape — `_bucket` series cumulative in `le` order, ending
  with an `+Inf` bucket equal to the matching `_count`;
* conservation — `admitted + rejected + refused + deduped == submitted`
  holds for the service and `admitted + rejected + refused == submitted`
  for every tenant (an idempotent retry is absorbed before its tenant is
  resolved), `rate_limited <= rejected`, in both scrapes;
* monotonicity — no counter family moves backwards between the first and
  second scrape, and the traffic between them must have moved
  `gql_requests_total{class="submitted"}` forward.

Usage:
    check_metrics_text.py FILE   ("-" reads stdin)

Exit status: 0 on success, 1 with a diagnostic on the first violation.
"""

import math
import re
import sys

MARKER = "=== scrape ==="
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

COUNTER_FAMILIES = {
    "gql_requests_total",
    "gql_tenant_requests_total",
    "gql_cache_events_total",
    "gql_events_appended_total",
    "gql_events_dropped_total",
    "gql_slow_queries_total",
}


def fail(msg):
    print(f"check_metrics_text: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_scrape(text, which):
    """Parse one exposition into {(name, frozen-labels): value} + types."""
    samples = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"scrape {which} line {lineno}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"{where}: malformed TYPE line {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"{where}: unparseable sample {line!r}")
        name, rawlabels, rawvalue = m.groups()
        if not NAME_RE.match(name):
            fail(f"{where}: bad metric name {name!r}")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in types and name not in types:
            fail(f"{where}: sample {name!r} has no preceding # TYPE")
        labels = []
        if rawlabels:
            body = rawlabels[1:-1]
            labels = LABEL_RE.findall(body)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in labels)
            if rebuilt != body:
                fail(f"{where}: malformed label set {rawlabels!r}")
            for k, _ in labels:
                if not NAME_RE.match(k) or k.startswith("__"):
                    fail(f"{where}: bad label name {k!r}")
        try:
            value = float(rawvalue)
        except ValueError:
            fail(f"{where}: non-numeric value {rawvalue!r}")
        if math.isnan(value) or math.isinf(value) or value < 0:
            fail(f"{where}: {name} has unusable value {rawvalue}")
        key = (name, frozenset(labels))
        if key in samples:
            fail(f"{where}: duplicate sample {name}{rawlabels or ''}")
        samples[key] = value
    if not samples:
        fail(f"scrape {which}: no samples at all")
    return samples, types


def get(samples, name, **labels):
    want = frozenset(labels.items())
    for (n, ls), v in samples.items():
        if n == name and want <= ls:
            return v
    fail(f"missing sample {name} {dict(labels)}")


def check_histograms(samples, which):
    """Every (_bucket series, label-set-minus-le) must be cumulative and
    agree with its _count and _sum partners."""
    series = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        le = dict(labels).get("le")
        if le is None:
            fail(f"scrape {which}: {name} bucket without le label")
        rest = frozenset(kv for kv in labels if kv[0] != "le")
        series.setdefault((name[: -len("_bucket")], rest), []).append((le, value))
    if not series:
        fail(f"scrape {which}: no histogram buckets at all")
    for (base, rest), buckets in series.items():
        finite = sorted(
            ((float(le), v) for le, v in buckets if le != "+Inf"), key=lambda p: p[0]
        )
        inf = [v for le, v in buckets if le == "+Inf"]
        if len(inf) != 1:
            fail(f"scrape {which}: {base}{dict(rest)} needs exactly one +Inf bucket")
        cum = [v for _, v in finite] + inf
        if any(a > b for a, b in zip(cum, cum[1:])):
            fail(f"scrape {which}: {base}{dict(rest)} buckets are not cumulative: {cum}")
        count = samples.get((base + "_count", rest))
        if count is None or inf[0] != count:
            fail(
                f"scrape {which}: {base}{dict(rest)} +Inf bucket {inf[0]} != _count {count}"
            )
        if (base + "_sum", rest) not in samples:
            fail(f"scrape {which}: {base}{dict(rest)} has no _sum")


def check_conservation(samples, which):
    def req(klass):
        return get(samples, "gql_requests_total", **{"class": klass})

    lhs = req("admitted") + req("rejected") + req("refused") + req("deduped")
    if lhs != req("submitted"):
        fail(f"scrape {which}: service conservation broken ({lhs} != {req('submitted')})")
    if req("rate_limited") > req("rejected"):
        fail(
            f"scrape {which}: rate_limited {req('rate_limited')} exceeds rejected {req('rejected')}"
        )
    tenants = {
        dict(ls)["tenant"]
        for (n, ls) in samples
        if n == "gql_tenant_requests_total"
    }
    if not tenants:
        fail(f"scrape {which}: no per-tenant request counters")
    for t in sorted(tenants):
        def treq(klass):
            return get(samples, "gql_tenant_requests_total", tenant=t, **{"class": klass})

        lhs = treq("admitted") + treq("rejected") + treq("refused")
        if lhs != treq("submitted"):
            fail(f"scrape {which}: tenant {t} conservation broken ({lhs} != {treq('submitted')})")


def main(argv):
    if len(argv) != 2:
        fail("usage: check_metrics_text.py FILE")
    source = argv[1]
    text = sys.stdin.read() if source == "-" else open(source, encoding="utf-8").read()
    if MARKER not in text:
        fail(f"no {MARKER!r} line separating the two scrapes")
    first_text, second_text = text.split(MARKER, 1)
    first, types1 = parse_scrape(first_text, 1)
    second, types2 = parse_scrape(second_text, 2)
    if types1 != types2:
        fail("the two scrapes declare different metric families")
    for family in COUNTER_FAMILIES:
        if types1.get(family) != "counter":
            fail(f"{family} must be declared as a counter, got {types1.get(family)!r}")

    for which, samples in ((1, first), (2, second)):
        check_histograms(samples, which)
        check_conservation(samples, which)

    # Counters only move forward; the traffic between scrapes moved them.
    for key, before in first.items():
        name, _ = key
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if types1.get(base) == "counter" or types1.get(name) == "counter":
            after = second.get(key)
            if after is None:
                fail(f"counter {key} vanished between scrapes")
            if after < before:
                fail(f"counter {key} moved backwards: {before} -> {after}")
    moved = get(second, "gql_requests_total", **{"class": "submitted"}) - get(
        first, "gql_requests_total", **{"class": "submitted"}
    )
    if moved <= 0:
        fail("traffic between scrapes did not move gql_requests_total{class=submitted}")
    # The mix exercised every outcome class at least once.
    for klass in ("admitted", "rejected", "refused", "deduped", "budget_tripped"):
        if get(second, "gql_requests_total", **{"class": klass}) <= 0:
            fail(f"the smoke mix never produced a {klass} request")
    if get(second, "gql_slow_queries_total") <= 0:
        fail("the zero-threshold smoke run captured no slow queries")

    print(f"ok: 2 scrapes, {len(first)} and {len(second)} samples, counters monotone")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
