#!/usr/bin/env python3
"""Validate the JSON lines printed by `gql-serve smoke`.

The smoke run drives a real server over a real socket — ping, a 3-query
batch across two datasets and all three languages, a deliberately-unknown
dataset, a hot reload plus a query against the swapped epoch, a reload
nested past the XML reader's bound followed by a ping on the same
connection (a reader that recurses on depth overflows the connection
thread's stack there and aborts the process), a rate-limited tenant, and
every metrics view (counters, the full telemetry report, the Prometheus
exposition, plus a deliberately-unknown view) — and prints each response
as one JSON line. CI pipes that output through this script so a protocol
schema drift (a renamed field, a dropped error code, a metrics regression)
breaks the build rather than downstream clients.

Expected stream (order-independent except ping-first):

    {"ok":true,"pong":true}
    {"ok":true,"batch":[RESPONSE, RESPONSE, RESPONSE]}
    {"ok":false,"code":"unknown-dataset","message":...}
    {"ok":true,"reload":{"dataset":str,"epoch":int,"draining":int}}
    RESPONSE(ok with "epoch" >= 2)
    {"ok":false,"code":"bad-request","message":"... nested deeper than N levels ..."}
    {"ok":true,"pong":true}
    {"ok":false,"code":"rate_limited","message":...,"retry_after_ms":int}
    {"ok":true,"metrics":{...}}
    {"ok":true,"report":{...}}
    {"ok":true,"prometheus":"# TYPE ..."}
    {"ok":false,"code":"bad-request","message":...}

    RESPONSE(ok)  = {"ok":true,"xml":str,"result_count":int,"eval_us":int,
                     "plan":str,"plan_cache":str,"index_cache":str,
                     "epoch":int,...}
    RESPONSE(err) = {"ok":false,"code":str,"message":str
                     [,"report":str][,"retry_after_ms":int]}

Usage:
    check_serve_json.py FILE [--batch-ok N]

    FILE            smoke output ("-" reads stdin)
    --batch-ok N    assert the batch holds exactly N responses, all ok
                    with non-empty results (default 3)

Exit status: 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import sys

OK_KEYS = {"ok", "xml", "result_count", "eval_us", "plan", "plan_cache", "index_cache", "epoch"}
OK_OPTIONAL = {"profile", "shape"}
ERR_KEYS = {"ok", "code", "message"}
ERR_OPTIONAL = {"report", "retry_after_ms"}
CACHE_STATES = {"hit", "miss", "replan", "cold", "bypass", ""}


def fail(msg):
    print(f"check_serve_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check_query_response(resp, path):
    if not isinstance(resp, dict) or not isinstance(resp.get("ok"), bool):
        fail(f"{path}: not a response object with boolean `ok`")
    if resp["ok"]:
        missing = OK_KEYS - set(resp)
        extra = set(resp) - OK_KEYS - OK_OPTIONAL
        if missing or extra:
            fail(f"{path}: bad ok-response keys (missing {sorted(missing)}, extra {sorted(extra)})")
        if not isinstance(resp["result_count"], int) or resp["result_count"] < 0:
            fail(f"{path}: result_count must be a non-negative integer")
        for cache in ("plan_cache", "index_cache"):
            if resp[cache] not in CACHE_STATES:
                fail(f"{path}: unknown {cache} state {resp[cache]!r}")
        if not isinstance(resp["epoch"], int) or resp["epoch"] < 1:
            fail(f"{path}: epoch must be a positive integer (1-based catalog epoch)")
    else:
        missing = ERR_KEYS - set(resp)
        extra = set(resp) - ERR_KEYS - ERR_OPTIONAL
        if missing or extra:
            fail(f"{path}: bad error keys (missing {sorted(missing)}, extra {sorted(extra)})")
        if not isinstance(resp["code"], str) or not resp["code"]:
            fail(f"{path}: error code must be a non-empty string")
        if "retry_after_ms" in resp:
            if resp["code"] != "rate_limited":
                fail(f"{path}: retry_after_ms only accompanies rate_limited, not {resp['code']!r}")
            if not isinstance(resp["retry_after_ms"], int) or not 1 <= resp["retry_after_ms"] <= 1000:
                fail(f"{path}: retry_after_ms must be an integer in 1..=1000")


def main(argv):
    args = argv[1:]
    if not args:
        fail("usage: check_serve_json.py FILE [--batch-ok N]")
    source = args.pop(0)
    batch_ok = 3
    while args:
        flag = args.pop(0)
        if flag == "--batch-ok" and args:
            try:
                batch_ok = int(args.pop(0))
            except ValueError:
                fail("--batch-ok needs an integer")
        else:
            fail(f"unknown or incomplete argument {flag!r}")

    text = sys.stdin.read() if source == "-" else open(source, encoding="utf-8").read()
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) < 4:
        fail(f"expected at least 4 response lines, got {len(lines)}")
    responses = []
    for i, line in enumerate(lines):
        try:
            responses.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(f"line {i + 1} is not valid JSON: {e}")

    if responses[0].get("pong") is not True:
        fail("first response must be the ping ({'ok':true,'pong':true})")

    batches = [r for r in responses if "batch" in r]
    if len(batches) != 1:
        fail(f"expected exactly one batch response, got {len(batches)}")
    items = batches[0]["batch"]
    if not isinstance(items, list) or len(items) != batch_ok:
        fail(f"batch must hold exactly {batch_ok} responses")
    for i, item in enumerate(items):
        check_query_response(item, f"batch[{i}]")
        if not item.get("ok"):
            fail(f"batch[{i}] failed: {json.dumps(item)}")
        if item["result_count"] < 1:
            fail(f"batch[{i}] returned no results: {json.dumps(item)}")

    errors = [r for r in responses if r.get("ok") is False]
    if not any(r.get("code") == "unknown-dataset" for r in errors):
        fail("no structured unknown-dataset error in the stream")
    for i, r in enumerate(errors):
        check_query_response(r, f"error[{i}]")

    rate_limited = [r for r in errors if r.get("code") == "rate_limited"]
    if len(rate_limited) != 1:
        fail(f"expected exactly one rate_limited rejection, got {len(rate_limited)}")
    if "retry_after_ms" not in rate_limited[0]:
        fail("rate_limited rejection carries no retry_after_ms hint")

    reloads = [r for r in responses if r.get("ok") is True and "reload" in r]
    if len(reloads) != 1:
        fail(f"expected exactly one reload acknowledgement, got {len(reloads)}")
    rl = reloads[0]["reload"]
    if not isinstance(rl.get("dataset"), str) or not rl["dataset"]:
        fail("reload.dataset must be a non-empty string")
    if not isinstance(rl.get("epoch"), int) or rl["epoch"] < 2:
        fail(f"reload.epoch must be >= 2 after a swap, got {rl.get('epoch')!r}")
    if not isinstance(rl.get("draining"), int) or rl["draining"] < 0:
        fail("reload.draining must be a non-negative integer")

    # Standalone ok query lines (outside the batch): schema-check them and
    # require the post-reload query to answer from the swapped epoch.
    singles = [r for r in responses if r.get("ok") is True and "xml" in r]
    for i, r in enumerate(singles):
        check_query_response(r, f"query[{i}]")
    if not any(r["epoch"] >= 2 for r in singles):
        fail("no query answered from a reloaded epoch (epoch >= 2)")

    metrics = [r for r in responses if "metrics" in r]
    if len(metrics) != 1:
        fail(f"expected exactly one metrics response, got {len(metrics)}")
    m = metrics[0]["metrics"]
    for key in ("submitted", "admitted", "rejected", "refused", "completed", "rate_limited", "deduped"):
        if not isinstance(m.get(key), int) or m[key] < 0:
            fail(f"metrics.{key} must be a non-negative integer")
    if m["admitted"] + m["rejected"] + m["refused"] + m["deduped"] != m["submitted"]:
        fail(
            "metrics conservation violated: "
            f"admitted {m['admitted']} + rejected {m['rejected']} + refused {m['refused']}"
            f" + deduped {m['deduped']} != submitted {m['submitted']}"
        )
    if m["rate_limited"] > m["rejected"]:
        fail(f"rate_limited {m['rate_limited']} exceeds rejected {m['rejected']}")
    if m["rate_limited"] < 1:
        fail("the limited tenant's quota rejection never reached the counters")
    if m["completed"] < batch_ok:
        fail(f"metrics.completed {m['completed']} below the {batch_ok} batch queries")

    reports = [r for r in responses if r.get("ok") is True and "report" in r]
    if len(reports) != 1:
        fail(f"expected exactly one telemetry-report response, got {len(reports)}")
    rep = reports[0]["report"]
    for key in ("counters", "latency", "latency_all", "windows", "events", "slow"):
        if key not in rep:
            fail(f"report is missing the {key!r} section")
    if rep["counters"] != m:
        fail("report.counters disagree with the counters view of the same service")
    lat = rep["latency_all"]
    if lat.get("count", 0) < batch_ok:
        fail(f"latency_all.count {lat.get('count')} below the {batch_ok} batch queries")
    if not (lat.get("p50_us", 0) <= lat.get("p95_us", 0) <= lat.get("p99_us", 0)):
        fail(f"latency percentiles out of order: {json.dumps(lat)}")
    events = rep["events"]
    if events.get("retained", -1) + events.get("dropped", -1) != events.get("appended", 0):
        fail(f"event-ring accounting broken: {json.dumps(events)}")

    proms = [r for r in responses if r.get("ok") is True and "prometheus" in r]
    if len(proms) != 1:
        fail(f"expected exactly one prometheus response, got {len(proms)}")
    text = proms[0]["prometheus"]
    for family in ("gql_requests_total", "gql_service_time_us", "gql_events_appended_total"):
        if family not in text:
            fail(f"prometheus exposition is missing {family}")

    # Two bad-requests: the over-deep reload, whose message names the nesting
    # bound and which a pong must follow (the server survived it), and the
    # unknown metrics view.
    def over_deep(r):
        return r.get("code") == "bad-request" and "nested deeper than" in r.get("message", "")

    refusals = [i for i, r in enumerate(responses) if over_deep(r)]
    if len(refusals) != 1:
        fail(f"expected exactly one bad-request naming the XML nesting bound, got {len(refusals)}")
    if not any(r.get("pong") is True for r in responses[refusals[0] + 1:]):
        fail("no pong after the over-deep reload: the server did not survive it")
    if not any(r.get("code") == "bad-request" and not over_deep(r) for r in errors):
        fail("no structured bad-request error for the unknown metrics view")

    print(f"ok: {len(responses)} responses, batch of {batch_ok} served")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
