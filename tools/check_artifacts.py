#!/usr/bin/env python3
"""Validate the artifacts the bench, tool and serve binaries write.

Each artifact kind has one declarative schema, walked by conform().  What a
schema cannot state follows as invariants: histogram buckets against counts,
metrics totals against histograms, trace line order, stats counters monotone
across lines and, with --against-serve, stats never above the serve
artifact's totals and the last --stats-jsonl line (written after drain)
equal to them.  Every artifact flag repeats; give at least one.

  check_artifacts.py --bench-family BENCH_ball-4.json --expect-phase load
"""

import argparse
import json
import math
import sys

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
    return bool(ok)


def conform(v, spec, where):
    """Walks `v` against `spec`; returns whether it conforms.  A spec is None
    (any value), a callable (v, where) -> bool, [item] (a list of items), or
    {key: spec} (an object).  In an object spec a key ending in '?' is
    optional, '*' applies to every member, and '<=' lists key chains whose
    values must be ordered (absent keys read as 0)."""
    if spec is None:
        return True
    if callable(spec):
        return spec(v, where)
    if isinstance(spec, list):
        return check(isinstance(v, list), f"{where}: must be a list") and all(
            [conform(x, spec[0], f"{where}[{i}]") for i, x in enumerate(v)])
    if not check(isinstance(v, dict), f"{where}: must be an object"):
        return False
    ok = True
    for key, sub in spec.items():
        name = key.rstrip("?")
        if key == "*":
            ok &= all([conform(x, sub, f"{where} {k}") for k, x in v.items()])
        elif name in v:
            ok &= conform(v[name], sub, f"{where} {name}")
        elif key != "<=":
            ok &= check(key.endswith("?"), f"{where}: missing key '{name}'")
    for keys in spec.get("<=", ()) if ok else ():
        vals = [v.get(k, 0) for k in keys]
        ok &= check(vals == sorted(vals), f"{where}: want {' <= '.join(keys)}, got {vals}")
    return ok


def pred(what, ok):
    return lambda v, where: check(ok(v), f"{where}: must be {what}, got {v!r}")


def one_of(*vals):
    return pred(f"one of {list(vals)}", lambda v: any(type(v) is type(x) and v == x for x in vals))


def some(item):
    return lambda v, where: check(isinstance(v, list) and v, f"{where}: must be a "
                                  f"non-empty list") and conform(v, [item], where)


NAT = pred("a non-negative integer", lambda v: isinstance(v, int) and v >= 0)
REAL = pred("finite and >= 0",
            lambda v: isinstance(v, (int, float)) and math.isfinite(v) and v >= 0)
POSITIVE = pred("> 0", lambda v: isinstance(v, (int, float)) and v > 0)
TEXT = pred("a non-empty string", lambda v: isinstance(v, str) and v != "")
PERCENTILES = ("p50_ns", "p95_ns", "p99_ns")


def histogram(h, where):
    """obs::Histogram::append_json: count, min, max, sum and sparse buckets
    keyed by inclusive "lo-hi" ranges, ascending and summing to count; a
    latency summary adds ordered percentiles."""
    shape = dict.fromkeys(("count", "min", "max", "sum")) | {
        "buckets": {}, "<=": [("min", "max"), PERCENTILES]}
    if not conform(h, shape, where):
        return False
    prev_hi = -1
    for key, n in h["buckets"].items():
        lo, _, hi = key.partition("-")
        if not check(lo.isdigit() and hi.isdigit() and int(lo) <= int(hi),
                     f"{where}: bad bucket key {key!r}"):
            return False
        check(int(lo) > prev_hi, f"{where}: bucket {key!r} out of order")
        check(isinstance(n, int) and n > 0,
              f"{where}: bucket {key!r} count must be a positive integer")
        prev_hi = int(hi)
    total = sum(h["buckets"].values())
    return check(total == h["count"], f"{where}: buckets sum {total} != count {h['count']}")


SERVE_TOTALS = ("accepted", "completed", "shed", "invalid", "swaps")
CACHE = {"policy": one_of("off", "shared")} | dict.fromkeys(
    ("hits", "misses", "evictions", "served_nodes", "inserted_bytes"), NAT)
SERVE = dict.fromkeys(SERVE_TOTALS + ("latency_samples",), NAT) | dict.fromkeys(
    PERCENTILES + ("mean_ns", "max_ns", "qps", "wall_seconds"), REAL) | {
    "shed_latency_samples?": NAT, "shed_p50_ns?": REAL, "shed_p95_ns?": REAL,
    "shed_p99_ns?": REAL,
    "<=": [("completed", "accepted"), PERCENTILES + ("max_ns",),
           ("shed_p50_ns", "shed_p95_ns", "shed_p99_ns"), ("shed_latency_samples", "shed")]}
MUTATE = dict.fromkeys(("updates", "applied", "rejected", "cache_evicted",
                        "cache_retained", "flushes"), NAT) | dict.fromkeys(
    ("update_p50_ns", "update_p95_ns", "update_p99_ns", "apply_p50_ns"), REAL) | {
    "<=": [("flushes", "applied"), ("update_p50_ns", "update_p95_ns", "update_p99_ns")]}
REPORT = {  # perf::BenchArtifact, schema v2 (src/perf/artifact.hpp)
    "schema_version": one_of(2), "kind": one_of("bench-report"), "tool": None,
    "env": dict.fromkeys(("git_sha", "compiler", "flags", "build_type", "os", "threads")) | {
        "backend": one_of("basic", "batched")},
    "curves": some(dict.fromkeys(("name", "claim", "fitted", "exponent", "r_squared")) | {
        "points": [{"n": POSITIVE, "cost": REAL, "wall_seconds": None}]}),
    "phases": [{"name": TEXT, "wall_seconds": REAL}], "cache": CACHE,
    "alloc": dict.fromkeys(("instrumented", "allocs", "frees", "bytes", "peak_bytes")),
    "rss_high_water_kb": None, "total_wall_seconds": None}
FAMILY = REPORT | {"kind": one_of("bench-family"), "family": TEXT, "title": None,
                   "theta": None, "algorithm": None}
SERVE_REPORT = REPORT | {"serve": SERVE, "mutate?": MUTATE}
METRICS = {"tool": None, "sweeps": POSITIVE, "tape_max_bits": None,
           "totals": {"starts": POSITIVE} | dict.fromkeys(("max_volume", "max_distance",
               "total_queries", "total_volume", "truncated", "wall_seconds")),
           "volume": histogram, "distance": histogram, "queries": histogram,
           "start_wall_us?": histogram,
           "workers": [dict.fromkeys(("worker", "starts", "busy_ns", "batches",
                                      "batched_starts", "waves", "batch_occupancy"))],
           "batch": dict.fromkeys(("batched_sweeps", "batches", "batched_starts", "waves",
                                   "expanded_nodes"), NAT)}
TRACE = some({"type": one_of("sweep", "exec", "query")})
TRACE_LINES = {
    "sweep": dict.fromkeys(("seq", "label", "n", "plan", "starts")),
    "exec": dict.fromkeys(("sweep", "start", "volume", "distance", "queries", "truncated")),
    "query": dict.fromkeys(("sweep", "start", "seq", "queried", "found", "found_id",
                            "found_degree", "layer")) | {"port": POSITIVE, "volume": POSITIVE}}
CHROME = {"displayTimeUnit": None, "traceEvents": some(
    dict.fromkeys(("name", "cat", "ts", "pid", "tid")) | {
        "ph": one_of("X"), "dur": REAL,
        "args": dict.fromkeys(("volume", "distance", "queries", "truncated"))})}
STATS_COUNTERS = SERVE_TOTALS + ("slow_queries",)
STATS = {"kind": one_of("serve-stats"), "schema_version": None, "uptime_seconds": None,
         "queue_depth": NAT, "in_flight": NAT, "latency": histogram,
         "window": {"latency": histogram}, "cache": None, "batch": None,
         "metrics": {"histograms?": {"*": histogram}},
         "<=": [("completed", "accepted")]} | dict.fromkeys(STATS_COUNTERS, NAT)


def stats_line(doc, where):
    """A --stats-log line, a Stats frame payload or volcal_top --raw output."""
    return conform(doc, STATS, where) and check(
        doc["window"]["latency"]["count"] <= doc["latency"]["count"],
        f"{where}: window holds more samples than exist since start")


def family(doc, path, opts):
    for c in doc["curves"]:
        ns = [p["n"] for p in c["points"]]
        check(all(a < b for a, b in zip(ns, ns[1:])),
              f"{path} curve {c['name']!r}: n-sweep not strictly monotone {ns}")
    # --expect-phase is how CI asserts a --snapshot-dir run took the load path.
    phases = {p["name"]: p["wall_seconds"] for p in doc["phases"]}
    for name in opts.expect_phase:
        if check(name in phases, f"{path}: expected phase {name!r}, have {sorted(phases)}"):
            check(phases[name] > 0, f"{path}: phase {name!r} recorded no wall time")


def serve_report(doc, path, opts):
    s = doc["serve"]
    check(s["latency_samples"] == 0 or s["completed"] > 0,
          f"{path} serve: latency samples without completed requests")
    if "mutate" in doc:
        m = doc["mutate"]
        check(m["applied"] + m["rejected"] <= m["updates"], f"{path} mutate: applied "
              f"{m['applied']} + rejected {m['rejected']} exceeds updates {m['updates']}")


def metrics(doc, path, opts):
    totals, batch = doc["totals"], doc["batch"]
    check(batch["batched_sweeps"] <= doc["sweeps"],
          f"{path}: batched_sweeps {batch['batched_sweeps']} exceeds sweeps {doc['sweeps']}")
    for w in doc["workers"]:
        # batch_occupancy (batched starts per wave) is emitted with %.3f precision.
        want = w["batched_starts"] / w["waves"] if w["waves"] > 0 else 0.0
        check(abs(w["batch_occupancy"] - want) < 2e-3, f"{path} worker {w['worker']}: "
              f"batch_occupancy {w['batch_occupancy']} != batched_starts/waves {want:.3f}")
    for k in ("batches", "waves"):  # workers fold only profiled sweeps, batch all
        folded = sum(w[k] for w in doc["workers"])
        check(folded <= batch[k], f"{path}: worker {k} {folded} exceed batch total {batch[k]}")
    # One histogram sample per start; sums and maxima match the totals.
    for name, field, total in (("volume", "count", "starts"), ("distance", "count", "starts"),
                               ("queries", "count", "starts"), ("volume", "sum", "total_volume"),
                               ("volume", "max", "max_volume"),
                               ("queries", "sum", "total_queries")):
        check(doc[name][field] == totals[total], f"{path}: {name} {field} "
              f"{doc[name][field]} != totals.{total} {totals[total]}")


def trace(lines, path, opts):
    sweeps, execs, queries = {}, {}, {}  # declared starts, declared queries, seen
    for i, rec in enumerate(lines):
        key = (rec.get("sweep"), rec.get("start"))
        if not conform(rec, TRACE_LINES[rec["type"]], f"{path}[{i}]"):
            continue
        if rec["type"] == "sweep":
            sweeps[rec["seq"]] = rec["starts"]
        elif rec["type"] == "exec":
            check(rec["sweep"] in sweeps, f"{path}[{i}]: exec before its sweep header")
            execs[key] = rec["queries"]
        else:
            check(key in execs, f"{path}[{i}]: query before its exec line")
            queries[key] = queries.get(key, 0) + 1
    check(sweeps, f"{path}: no sweep headers")
    check(execs, f"{path}: no exec lines")
    declared = sum(sweeps.values())
    check(len(execs) == declared,
          f"{path}: {len(execs)} exec lines but sweeps declare {declared} starts")
    for (sweep, start), want in execs.items():
        # A truncated exec has one query more (the one over budget) than lines.
        seen = queries.get((sweep, start), 0)
        check(seen in (want, want - 1), f"{path}: sweep {sweep} start {start}: "
              f"{seen} query lines vs declared queries {want}")


def stats(lines, path, opts, drained=True):
    """Counters monotone and uptime advancing across lines; with
    --against-serve, no line above the serve artifact's totals and, when
    `drained`, the last line (written after drain) equal to them."""
    for i in range(1, len(lines)):
        prev, doc, where = lines[i - 1], lines[i], f"{path}[{i}]"
        for k in STATS_COUNTERS:
            check(doc[k] >= prev[k], f"{where}: {k} went backwards ({prev[k]} then {doc[k]})")
        check(doc["uptime_seconds"] > prev["uptime_seconds"], f"{where}: uptime did not advance")
    if not opts.against_serve:
        return
    with open(opts.against_serve, encoding="utf-8") as f:
        serve = json.load(f).get("serve")
    if not check(isinstance(serve, dict), f"{opts.against_serve}: missing 'serve' block"):
        return
    for i, doc in enumerate(lines):
        over = {k: (doc[k], serve.get(k, 0)) for k in SERVE_TOTALS if doc[k] > serve.get(k, 0)}
        check(not over, f"{path}[{i}]: counters above the artifact totals: {over}")
    if drained:
        doc, lat = lines[-1], lines[-1]["latency"]
        got = {k: doc[k] for k in SERVE_TOTALS + ("queue_depth", "in_flight")} | {
            k: lat.get(k) for k in PERCENTILES} | {"latency_samples": lat["count"]}
        want = {k: serve.get(k) for k in got} | {"queue_depth": 0, "in_flight": 0}
        diff = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
        check(not diff, f"{path}[{len(lines) - 1}]: final stats != artifact: {diff}")


CHECKS = {  # artifact flag: (schema, invariants or None, help)
    "--json": (REPORT, None, "bench curve report"),
    "--bench-family": (FAMILY, family, "volcal_bench BENCH_<family>.json"),
    "--serve-report": (SERVE_REPORT, serve_report, "volcal_serve / volcal_load artifact"),
    "--expect-mutate": (SERVE_REPORT | {"mutate": MUTATE | {"applied": POSITIVE}},
                        serve_report, "volcal_load artifact with applied updates"),
    "--metrics": (METRICS, metrics, "SweepMetrics JSON"),
    "--trace": (TRACE, trace, "query trace JSONL"),
    "--chrome-trace": (CHROME, None, "Chrome trace_event JSON"),
    "--stats-jsonl": (some(stats_line), stats, "volcal_serve --stats-log JSONL"),
    "--stats-snapshot": (stats_line, lambda doc, path, opts: stats([doc], path, opts, False),
                         "one Stats poll, e.g. volcal_top --once --raw output"),
}
JSONL = ("--trace", "--stats-jsonl")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    for flag, (_, _, what) in CHECKS.items():
        parser.add_argument(flag, action="append", default=[], help=what)
    parser.add_argument("--expect-phase", action="append", default=[],
                        help="phase each --bench-family artifact must spend wall time in")
    parser.add_argument("--against-serve",
                        help="volcal_serve artifact to reconcile the stats artifacts with")
    opts = parser.parse_args()
    todo = [(flag, path) for flag in CHECKS for path in getattr(opts, flag[2:].replace("-", "_"))]
    if not todo:
        parser.error("give at least one artifact to check")
    for flag, path in todo:
        schema, invariants, _ = CHECKS[flag]
        with open(path, encoding="utf-8") as f:
            doc = [json.loads(ln) for ln in f if ln.strip()] if flag in JSONL else json.load(f)
        before = len(failures)
        if conform(doc, schema, path) and invariants:
            invariants(doc, path, opts)
        print(f"{'ok ' if len(failures) == before else 'BAD'} {flag} {path}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
