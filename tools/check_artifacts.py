#!/usr/bin/env python3
"""Validate the artifacts a bench binary writes under --json / --metrics /
--trace / --chrome-trace, plus the canonical perf artifacts volcal_bench
writes (BENCH_<family>.json, BENCH_SUMMARY.json).

CI runs a small bench with all four flags and then this script; a schema
drift in any exporter (bench JsonReport, obs SweepMetrics, trace JSONL,
Chrome trace_event, perf BenchArtifact) fails the job.  Internal
cross-checks go beyond JSON well-formedness: every histogram (one encoding,
obs::Histogram) has ordered buckets summing to its count, metrics totals
must be self-consistent with the histograms, every trace query line must
belong to a declared sweep/exec, and bench-family n-sweeps must be strictly
monotone with finite non-negative costs.

Usage:
  check_artifacts.py --json b.json --metrics m.json --trace t.jsonl \
                     --chrome-trace c.json \
                     --bench-family BENCH_leaf-coloring.json \
                     --bench-summary BENCH_SUMMARY.json
All flags optional; at least one must be given.  --bench-family may be
repeated once per family artifact.  --serve-report validates a
volcal_serve / volcal_load artifact, whose schema-v2 'serve' block
(admission counters + latency percentiles) is mandatory; repeatable.

Live-observability artifacts: --stats-jsonl validates a volcal_serve
--stats-log stream (every counter monotone across lines, percentiles
ordered within each), --stats-snapshot a single captured Stats poll, and
--against-serve reconciles both with the end-of-run serve artifact — no
snapshot may exceed the final totals, and the last JSONL line (written
after drain) must equal them exactly, percentiles included.
"""

import argparse
import json
import math
import sys

ARTIFACT_SCHEMA_VERSION = 2
CACHE_POLICIES = ("off", "shared")
CACHE_COUNTERS = ("hits", "misses", "evictions", "served_nodes",
                  "inserted_bytes")
BACKENDS = ("basic", "batched")
SERVE_COUNTERS = ("accepted", "completed", "shed", "invalid", "swaps",
                  "latency_samples")
SERVE_GAUGES = ("p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns", "qps",
                "wall_seconds")
BATCH_COUNTERS = ("batched_sweeps", "batches", "batched_starts", "waves",
                  "expanded_nodes")
MUTATE_COUNTERS = ("updates", "applied", "rejected", "cache_evicted",
                   "cache_retained", "flushes")
MUTATE_GAUGES = ("update_p50_ns", "update_p95_ns", "update_p99_ns",
                 "apply_p50_ns")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
    return ok


def require_keys(obj, keys, where):
    for k in keys:
        check(k in obj, f"{where}: missing key '{k}'")


def check_histogram(hist, where):
    """The one histogram encoding (obs::Histogram::append_json): count, min,
    max, sum, and sparse buckets keyed by inclusive "lo-hi" value ranges in
    ascending order, summing to count."""
    if not check(isinstance(hist, dict), f"{where}: histogram is not an object"):
        return
    require_keys(hist, ["count", "min", "max", "sum", "buckets"], where)
    buckets = hist.get("buckets")
    if not check(isinstance(buckets, dict), f"{where}: 'buckets' is not an object"):
        return
    prev_hi = -1
    for key, n in buckets.items():
        lo, _, hi = key.partition("-")
        if not check(lo.isdigit() and hi.isdigit() and int(lo) <= int(hi),
                     f"{where}: bad bucket key {key!r}"):
            return
        check(int(lo) > prev_hi, f"{where}: bucket {key!r} out of order")
        check(isinstance(n, int) and n > 0,
              f"{where}: bucket {key!r} count must be a positive integer")
        prev_hi = int(hi)
    count = hist.get("count")
    check(sum(buckets.values()) == count,
          f"{where}: buckets sum {sum(buckets.values())} != count {count}")
    check(hist.get("min", 0) <= hist.get("max", 0),
          f"{where}: min {hist.get('min')} > max {hist.get('max')}")


def check_schema_version(doc, where):
    v = doc.get("schema_version")
    check(isinstance(v, int) and v == ARTIFACT_SCHEMA_VERSION,
          f"{where}: schema_version {v!r} != {ARTIFACT_SCHEMA_VERSION}")


def check_cache_block(doc, where):
    """Schema v2: the answer-reuse counters between 'phases' and 'alloc'."""
    cache = doc.get("cache")
    if not check(isinstance(cache, dict), f"{where}: missing 'cache' block"):
        return
    require_keys(cache, ("policy",) + CACHE_COUNTERS, f"{where} cache")
    check(cache.get("policy") in CACHE_POLICIES,
          f"{where} cache: unknown policy {cache.get('policy')!r}")
    for k in CACHE_COUNTERS:
        v = cache.get(k, -1)
        check(isinstance(v, int) and v >= 0,
              f"{where} cache: {k} must be a non-negative integer, got {v!r}")


def check_serve_block(doc, where):
    """Schema v2 optional block: volcal_serve / volcal_load query-service
    counters and latency percentiles.  Required only under --serve-report."""
    serve = doc.get("serve")
    if not check(isinstance(serve, dict), f"{where}: missing 'serve' block"):
        return
    require_keys(serve, SERVE_COUNTERS + SERVE_GAUGES, f"{where} serve")
    for k in SERVE_COUNTERS:
        v = serve.get(k, -1)
        check(isinstance(v, int) and v >= 0,
              f"{where} serve: {k} must be a non-negative integer, got {v!r}")
    for k in SERVE_GAUGES:
        v = serve.get(k, -1.0)
        check(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0,
              f"{where} serve: {k} must be finite and >= 0, got {v!r}")
    check(serve.get("completed", 0) <= serve.get("accepted", 0),
          f"{where} serve: completed {serve.get('completed')} exceeds "
          f"accepted {serve.get('accepted')}")
    p50, p95, p99 = (serve.get("p50_ns", 0), serve.get("p95_ns", 0),
                     serve.get("p99_ns", 0))
    check(p50 <= p95 <= p99,
          f"{where} serve: percentiles not monotone "
          f"(p50 {p50}, p95 {p95}, p99 {p99})")
    check(p99 <= serve.get("max_ns", 0),
          f"{where} serve: p99 {p99} exceeds max {serve.get('max_ns')}")
    if serve.get("latency_samples", 0) > 0:
        check(serve.get("completed", 0) > 0,
              f"{where} serve: latency samples without completed requests")
    # Optional shed-accounting fields (volcal_load --retry-sheds); absent in
    # older artifacts, defaulting to zero.
    sp50, sp95, sp99 = (serve.get("shed_p50_ns", 0),
                        serve.get("shed_p95_ns", 0),
                        serve.get("shed_p99_ns", 0))
    check(sp50 <= sp95 <= sp99,
          f"{where} serve: shed percentiles not monotone "
          f"(p50 {sp50}, p95 {sp95}, p99 {sp99})")
    check(serve.get("shed_latency_samples", 0) <= serve.get("shed", 0),
          f"{where} serve: more shed latency samples "
          f"({serve.get('shed_latency_samples')}) than shed responses "
          f"({serve.get('shed')})")
    check(serve.get("retry_compliant", 0) <= serve.get("retries", 0),
          f"{where} serve: retry_compliant {serve.get('retry_compliant')} "
          f"exceeds retries {serve.get('retries')}")


def check_mutate_block(doc, where, required=False):
    """Schema v2 optional block: volcal_load --update-rate mutation tallies.
    Validated whenever present; `required` (--expect-mutate) additionally
    demands the block exists and records applied updates."""
    mutate = doc.get("mutate")
    if mutate is None:
        check(not required, f"{where}: missing 'mutate' block "
                            f"(--expect-mutate)")
        return
    if not check(isinstance(mutate, dict), f"{where}: 'mutate' is not an object"):
        return
    require_keys(mutate, MUTATE_COUNTERS + MUTATE_GAUGES, f"{where} mutate")
    for k in MUTATE_COUNTERS:
        v = mutate.get(k, -1)
        check(isinstance(v, int) and v >= 0,
              f"{where} mutate: {k} must be a non-negative integer, got {v!r}")
    for k in MUTATE_GAUGES:
        v = mutate.get(k, -1.0)
        check(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0,
              f"{where} mutate: {k} must be finite and >= 0, got {v!r}")
    updates = mutate.get("updates", 0)
    applied = mutate.get("applied", 0)
    rejected = mutate.get("rejected", 0)
    check(applied + rejected <= updates,
          f"{where} mutate: applied {applied} + rejected {rejected} "
          f"exceeds updates {updates}")
    check(mutate.get("flushes", 0) <= applied,
          f"{where} mutate: flushes {mutate.get('flushes')} exceeds "
          f"applied {applied}")
    p50, p95, p99 = (mutate.get("update_p50_ns", 0),
                     mutate.get("update_p95_ns", 0),
                     mutate.get("update_p99_ns", 0))
    check(p50 <= p95 <= p99,
          f"{where} mutate: update percentiles not monotone "
          f"(p50 {p50}, p95 {p95}, p99 {p99})")
    if required:
        check(applied > 0, f"{where} mutate: no applied updates "
                           f"(--expect-mutate)")


def check_artifact_body(doc, where, kind, monotone_n):
    """Shared checks for the canonical perf artifact (schema v2).

    `monotone_n` enforces a strictly increasing n-sweep per curve — required
    for bench-family artifacts (volcal_bench's doubling sweep), but not for
    bench-report curves, whose abscissa may be a budget multiplier or a
    tuning constant rather than n.
    """
    require_keys(doc, ["schema_version", "kind", "tool", "env", "curves",
                       "phases", "alloc", "rss_high_water_kb",
                       "total_wall_seconds"], where)
    check_schema_version(doc, where)
    check_cache_block(doc, where)
    check(doc.get("kind") == kind,
          f"{where}: kind {doc.get('kind')!r} != {kind!r}")
    require_keys(doc.get("env", {}),
                 ["git_sha", "compiler", "flags", "build_type", "os",
                  "threads", "backend"], f"{where} env")
    check(doc.get("env", {}).get("backend") in BACKENDS,
          f"{where} env: unknown backend {doc.get('env', {}).get('backend')!r}")
    check(isinstance(doc.get("curves"), list) and doc["curves"],
          f"{where}: 'curves' must be a non-empty list")
    for curve in doc.get("curves", []):
        cwhere = f"{where} curve {curve.get('name', '?')!r}"
        require_keys(curve, ["name", "claim", "fitted", "exponent",
                             "r_squared", "points"], cwhere)
        prev_n = None
        for pt in curve.get("points", []):
            require_keys(pt, ["n", "cost", "wall_seconds"], f"{cwhere} point")
            n, cost = pt.get("n", 0), pt.get("cost", -1)
            check(n > 0, f"{cwhere}: point with n <= 0")
            check(math.isfinite(cost) and cost >= 0,
                  f"{cwhere}: cost must be finite and >= 0, got {cost}")
            if monotone_n and prev_n is not None:
                check(n > prev_n,
                      f"{cwhere}: n-sweep not strictly monotone "
                      f"({prev_n} then {n})")
            prev_n = n
    require_keys(doc.get("alloc", {}),
                 ["instrumented", "allocs", "frees", "bytes", "peak_bytes"],
                 f"{where} alloc")
    for ph in doc.get("phases", []):
        require_keys(ph, ["name", "wall_seconds"], f"{where} phase")
        check(bool(ph.get("name")), f"{where}: phase with an empty name")
        wall = ph.get("wall_seconds")
        check(isinstance(wall, (int, float)) and math.isfinite(wall) and wall >= 0,
              f"{where} phase {ph.get('name', '?')!r}: wall_seconds must be "
              f"finite and >= 0, got {wall}")


def check_expected_phases(doc, where, expect_phases):
    """--expect-phase: the artifact must have spent wall time in each named
    phase (how CI asserts a --snapshot-dir bench actually took the mmap-load
    path rather than silently regenerating)."""
    present = {ph.get("name"): ph.get("wall_seconds", 0)
               for ph in doc.get("phases", [])}
    for name in expect_phases:
        check(name in present,
              f"{where}: expected phase {name!r}, have {sorted(present)}")
        if name in present:
            check(present[name] > 0,
                  f"{where}: phase {name!r} recorded no wall time")


def check_bench_json(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    check_artifact_body(doc, path, kind="bench-report", monotone_n=False)
    print(f"ok  {path}: {len(doc.get('curves', []))} curves")


def check_serve_report(path, expect_mutate=False):
    """A bench-report artifact from volcal_serve or volcal_load: the usual
    body checks plus a mandatory, internally consistent 'serve' block.  The
    optional 'mutate' block (volcal_load --update-rate) is validated when
    present and required under --expect-mutate."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    check_artifact_body(doc, path, kind="bench-report", monotone_n=False)
    check_serve_block(doc, path)
    check_mutate_block(doc, path, required=expect_mutate)
    serve = doc.get("serve", {}) if isinstance(doc.get("serve"), dict) else {}
    mutate = doc.get("mutate", {}) if isinstance(doc.get("mutate"), dict) else {}
    extra = (f", {mutate.get('applied', 0)} updates applied"
             if mutate else "")
    print(f"ok  {path}: serve block, {serve.get('completed', 0)} completed, "
          f"{serve.get('shed', 0)} shed, qps {serve.get('qps', 0.0):.1f}"
          f"{extra}")


def check_bench_family(path, expect_phases=()):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    check_artifact_body(doc, path, kind="bench-family", monotone_n=True)
    require_keys(doc, ["family", "title", "theta", "algorithm"], path)
    check(bool(doc.get("family")), f"{path}: empty family name")
    check_expected_phases(doc, path, expect_phases)
    print(f"ok  {path}: family {doc.get('family', '?')!r}, "
          f"{len(doc.get('curves', []))} curves")


def check_bench_summary(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require_keys(doc, ["schema_version", "kind", "tool", "env", "families",
                       "total_wall_seconds"], path)
    check_schema_version(doc, path)
    check(doc.get("kind") == "bench-summary",
          f"{path}: kind {doc.get('kind')!r} != 'bench-summary'")
    families = doc.get("families", [])
    check(isinstance(families, list) and families,
          f"{path}: 'families' must be a non-empty list")
    for fam in families:
        fwhere = f"{path} family {fam.get('family', '?')!r}"
        check_artifact_body(fam, fwhere, kind="bench-family", monotone_n=True)
        require_keys(fam, ["family", "title", "theta", "algorithm"], fwhere)
    print(f"ok  {path}: {len(families)} families")


def check_metrics_json(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require_keys(doc, ["tool", "sweeps", "totals", "tape_max_bits",
                       "volume", "distance", "queries", "workers", "cache",
                       "batch"], path)
    check_cache_block(doc, path)
    batch = doc.get("batch", {})
    if check(isinstance(batch, dict), f"{path}: 'batch' must be an object"):
        require_keys(batch, BATCH_COUNTERS, f"{path} batch")
        for k in BATCH_COUNTERS:
            v = batch.get(k, -1)
            check(isinstance(v, int) and v >= 0,
                  f"{path} batch: {k} must be a non-negative integer, got {v!r}")
        check(batch.get("batched_sweeps", 0) <= doc.get("sweeps", 0),
              f"{path}: batched_sweeps {batch.get('batched_sweeps')} exceeds "
              f"sweeps {doc.get('sweeps')}")
    workers = doc.get("workers", [])
    worker_batches = 0
    worker_waves = 0
    for w in workers:
        wwhere = f"{path} worker {w.get('worker', '?')}"
        require_keys(w, ["worker", "starts", "busy_ns", "batches",
                         "batched_starts", "waves", "batch_occupancy"], wwhere)
        waves = w.get("waves", 0)
        expected = w.get("batched_starts", 0) / waves if waves > 0 else 0.0
        # batch_occupancy (starts per wave) is emitted with %.3f precision.
        check(abs(w.get("batch_occupancy", -1.0) - expected) < 2e-3,
              f"{wwhere}: batch_occupancy {w.get('batch_occupancy')} != "
              f"batched_starts/waves {expected:.3f}")
        worker_batches += w.get("batches", 0)
        worker_waves += w.get("waves", 0)
    # Per-worker columns fold only profiled sweeps; the batch block folds all.
    check(worker_batches <= batch.get("batches", 0),
          f"{path}: worker batches {worker_batches} exceed batch total "
          f"{batch.get('batches')}")
    check(worker_waves <= batch.get("waves", 0),
          f"{path}: worker waves {worker_waves} exceed batch total "
          f"{batch.get('waves')}")
    totals = doc.get("totals", {})
    require_keys(totals, ["starts", "max_volume", "max_distance",
                          "total_queries", "total_volume", "truncated",
                          "wall_seconds"], f"{path} totals")
    check(doc.get("sweeps", 0) > 0, f"{path}: no sweeps recorded")
    check(totals.get("starts", 0) > 0, f"{path}: no starts recorded")
    for name in ("volume", "distance", "queries", "start_wall_us"):
        if name in doc:
            check_histogram(doc[name], f"{path} {name} histogram")
    for name in ("volume", "distance", "queries"):
        hist = doc.get(name, {})
        # One histogram sample per start, every sweep.
        check(hist.get("count") == totals.get("starts"),
              f"{path}: {name} count {hist.get('count')} != starts {totals.get('starts')}")
    check(doc["volume"].get("sum") == totals.get("total_volume"),
          f"{path}: volume sum != totals.total_volume")
    check(doc["volume"].get("max") == totals.get("max_volume"),
          f"{path}: volume max != totals.max_volume")
    check(doc["queries"].get("sum") == totals.get("total_queries"),
          f"{path}: queries sum != totals.total_queries")
    print(f"ok  {path}: {doc['sweeps']} sweeps, {totals['starts']} starts")


def check_trace_jsonl(path):
    sweeps = {}      # seq -> declared start count
    execs = {}       # (sweep, start) -> declared query count
    queries = {}     # (sweep, start) -> seen query lines
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            where = f"{path}:{lineno}"
            t = rec.get("type")
            if t == "sweep":
                require_keys(rec, ["seq", "label", "n", "plan", "starts"],
                             where)
                sweeps[rec["seq"]] = rec["starts"]
            elif t == "exec":
                require_keys(rec, ["sweep", "start", "volume", "distance",
                                   "queries", "truncated"], where)
                check(rec["sweep"] in sweeps,
                      f"{where}: exec before its sweep header")
                execs[(rec["sweep"], rec["start"])] = rec["queries"]
            elif t == "query":
                require_keys(rec, ["sweep", "start", "seq", "queried", "port",
                                   "found", "found_id", "found_degree",
                                   "layer", "volume"], where)
                key = (rec["sweep"], rec["start"])
                check(key in execs, f"{where}: query before its exec line")
                queries[key] = queries.get(key, 0) + 1
                check(rec["port"] >= 1, f"{where}: port must be 1-based")
                check(rec["volume"] >= 1, f"{where}: running volume must be >= 1")
            else:
                check(False, f"{where}: unknown line type {t!r}")
    check(bool(sweeps), f"{path}: no sweep headers")
    check(bool(execs), f"{path}: no exec lines")
    declared = sum(sweeps.values())
    check(len(execs) == declared,
          f"{path}: {len(execs)} exec lines but sweeps declare {declared} starts")
    for key, declared_q in execs.items():
        seen = queries.get(key, 0)
        # Truncated execs have one more query (the one that blew the budget)
        # than recorded events; completed execs match exactly.
        check(seen in (declared_q, declared_q - 1),
              f"{path}: sweep {key[0]} start {key[1]}: {seen} query lines "
              f"vs declared queries {declared_q}")
    print(f"ok  {path}: {len(sweeps)} sweeps, {len(execs)} execs, "
          f"{sum(queries.values())} queries")


STATS_MONOTONE = ("accepted", "completed", "shed", "invalid", "swaps",
                  "slow_queries")


def check_stats_line(doc, where):
    """One serve-stats JSON object (a --stats-log line, a Stats frame
    payload, or volcal_top --raw output)."""
    require_keys(doc, ["kind", "schema_version", "uptime_seconds",
                       "queue_depth", "in_flight", "latency", "window",
                       "cache", "batch", "metrics"] + list(STATS_MONOTONE),
                 where)
    check(doc.get("kind") == "serve-stats",
          f"{where}: kind {doc.get('kind')!r} != 'serve-stats'")
    for k in STATS_MONOTONE + ("queue_depth", "in_flight"):
        v = doc.get(k, -1)
        check(isinstance(v, int) and v >= 0,
              f"{where}: {k} must be a non-negative integer, got {v!r}")
    check(doc.get("completed", 0) <= doc.get("accepted", 0),
          f"{where}: completed {doc.get('completed')} exceeds accepted "
          f"{doc.get('accepted')}")
    for lat, lwhere in ((doc.get("latency"), f"{where} latency"),
                        (doc.get("window", {}).get("latency"),
                         f"{where} window latency")):
        if not check(isinstance(lat, dict), f"{lwhere}: missing"):
            continue
        check_histogram(lat, lwhere)
        p50, p95, p99 = (lat.get("p50_ns", 0), lat.get("p95_ns", 0),
                         lat.get("p99_ns", 0))
        check(p50 <= p95 <= p99,
              f"{lwhere}: percentiles not monotone "
              f"(p50 {p50}, p95 {p95}, p99 {p99})")
    hists = doc.get("metrics", {}).get("histograms", {})
    if check(isinstance(hists, dict), f"{where}: metrics.histograms missing"):
        for name, hist in hists.items():
            check_histogram(hist, f"{where} metrics histogram {name!r}")
    # The window is a subset of history: it can never hold more samples than
    # ever completed.
    win = doc.get("window", {}).get("latency", {})
    check(win.get("count", 0) <= doc.get("latency", {}).get("count", 0),
          f"{where}: window holds more samples than exist since start")


def stats_vs_serve_block(doc, serve, where, final):
    """Counters of one stats snapshot against an end-of-run artifact's serve
    block: <= mid-run (counters only grow), == for the final snapshot."""
    for k in ("accepted", "completed", "shed", "invalid", "swaps"):
        snap, total = doc.get(k, 0), serve.get(k, 0)
        if final:
            check(snap == total,
                  f"{where}: final {k} {snap} != artifact total {total}")
        else:
            check(snap <= total,
                  f"{where}: mid-run {k} {snap} exceeds artifact total {total}")
    if final:
        lat = doc.get("latency", {})
        check(lat.get("count", 0) == serve.get("latency_samples", 0),
              f"{where}: final latency count {lat.get('count')} != artifact "
              f"latency_samples {serve.get('latency_samples')}")
        for k in ("p50_ns", "p95_ns", "p99_ns"):
            check(lat.get(k) == serve.get(k),
                  f"{where}: final latency {k} {lat.get(k)} != artifact "
                  f"{serve.get(k)}")
        check(doc.get("queue_depth", -1) == 0 and doc.get("in_flight", -1) == 0,
              f"{where}: final snapshot not quiescent (queue "
              f"{doc.get('queue_depth')}, in-flight {doc.get('in_flight')})")


def load_serve_block(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    serve = doc.get("serve")
    if not check(isinstance(serve, dict),
                 f"{path}: missing 'serve' block for stats reconciliation"):
        return {}
    return serve


def check_stats_jsonl(path, against=None):
    """A --stats-interval JSONL: every line well-formed, every counter
    monotone non-decreasing across lines, uptime strictly advancing; with
    --against-serve, the final (post-drain) line must equal the artifact's
    serve totals and earlier lines must never exceed them."""
    lines = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            where = f"{path}:{lineno}"
            check_stats_line(doc, where)
            lines.append((where, doc))
    if not check(bool(lines), f"{path}: no stats lines"):
        return
    prev_where, prev = lines[0]
    for where, doc in lines[1:]:
        for k in STATS_MONOTONE:
            check(doc.get(k, 0) >= prev.get(k, 0),
                  f"{where}: {k} went backwards "
                  f"({prev.get(k)} at {prev_where} then {doc.get(k)})")
        check(doc.get("uptime_seconds", 0) > prev.get("uptime_seconds", 0),
              f"{where}: uptime did not advance")
        prev_where, prev = where, doc
    if against is not None:
        serve = load_serve_block(against)
        if serve:
            for where, doc in lines[:-1]:
                stats_vs_serve_block(doc, serve, where, final=False)
            stats_vs_serve_block(lines[-1][1], serve, lines[-1][0], final=True)
    print(f"ok  {path}: {len(lines)} stats lines, "
          f"{lines[-1][1].get('completed', 0)} completed at shutdown")


def check_stats_snapshot(path, against=None):
    """A single mid-load stats snapshot (volcal_top --once --raw): live
    values, each counter bounded by the end-of-run artifact totals."""
    with open(path, encoding="utf-8") as f:
        doc = json.loads(f.read().strip())
    check_stats_line(doc, path)
    if against is not None:
        serve = load_serve_block(against)
        if serve:
            stats_vs_serve_block(doc, serve, path, final=False)
    print(f"ok  {path}: snapshot at uptime "
          f"{doc.get('uptime_seconds', 0.0):.2f}s, "
          f"{doc.get('completed', 0)} completed")


def check_chrome_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require_keys(doc, ["traceEvents", "displayTimeUnit"], path)
    events = doc.get("traceEvents", [])
    check(isinstance(events, list) and events,
          f"{path}: 'traceEvents' must be a non-empty list")
    for ev in events:
        require_keys(ev, ["name", "cat", "ph", "ts", "dur", "pid", "tid",
                          "args"], f"{path} event")
        check(ev.get("ph") == "X", f"{path}: expected complete ('X') events")
        check(ev.get("dur", -1) >= 0, f"{path}: negative duration")
        require_keys(ev.get("args", {}),
                     ["volume", "distance", "queries", "truncated"],
                     f"{path} event args")
    print(f"ok  {path}: {len(events)} trace events")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="bench curve report")
    parser.add_argument("--metrics", help="SweepMetrics JSON")
    parser.add_argument("--trace", help="query trace JSONL")
    parser.add_argument("--chrome-trace", dest="chrome_trace",
                        help="Chrome trace_event JSON")
    parser.add_argument("--serve-report", dest="serve_report",
                        action="append", default=[],
                        help="volcal_serve / volcal_load artifact whose "
                             "'serve' block is mandatory (repeatable)")
    parser.add_argument("--expect-mutate", dest="expect_mutate",
                        action="append", default=[],
                        help="volcal_load artifact that must carry a "
                             "'mutate' block with applied updates "
                             "(repeatable; also run it as --serve-report)")
    parser.add_argument("--stats-jsonl", dest="stats_jsonl",
                        help="volcal_serve --stats-log JSONL (periodic live "
                             "snapshots; counters must be monotone)")
    parser.add_argument("--stats-snapshot", dest="stats_snapshot",
                        action="append", default=[],
                        help="single mid-load stats snapshot, e.g. captured "
                             "volcal_top --once --raw output (repeatable)")
    parser.add_argument("--against-serve", dest="against_serve",
                        help="volcal_serve artifact to reconcile "
                             "--stats-jsonl / --stats-snapshot against: "
                             "snapshots never exceed its serve totals and "
                             "the final JSONL line equals them")
    parser.add_argument("--bench-family", dest="bench_family",
                        action="append", default=[],
                        help="volcal_bench BENCH_<family>.json (repeatable)")
    parser.add_argument("--bench-summary", dest="bench_summary",
                        help="volcal_bench BENCH_SUMMARY.json")
    parser.add_argument("--expect-phase", dest="expect_phase",
                        action="append", default=[],
                        help="require each --bench-family artifact to have "
                             "spent wall time in this phase (repeatable)")
    opts = parser.parse_args()
    if not any([opts.json, opts.metrics, opts.trace, opts.chrome_trace,
                opts.bench_family, opts.bench_summary, opts.serve_report,
                opts.expect_mutate, opts.stats_jsonl, opts.stats_snapshot]):
        parser.error("give at least one artifact to check")
    if opts.json:
        check_bench_json(opts.json)
    for path in opts.serve_report:
        check_serve_report(path, expect_mutate=path in opts.expect_mutate)
    for path in opts.expect_mutate:
        if path not in opts.serve_report:
            check_serve_report(path, expect_mutate=True)
    if opts.metrics:
        check_metrics_json(opts.metrics)
    if opts.trace:
        check_trace_jsonl(opts.trace)
    if opts.chrome_trace:
        check_chrome_trace(opts.chrome_trace)
    if opts.stats_jsonl:
        check_stats_jsonl(opts.stats_jsonl, against=opts.against_serve)
    for path in opts.stats_snapshot:
        check_stats_snapshot(path, against=opts.against_serve)
    for path in opts.bench_family:
        check_bench_family(path, expect_phases=opts.expect_phase)
    if opts.bench_summary:
        check_bench_summary(opts.bench_summary)
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
