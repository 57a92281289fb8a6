#!/usr/bin/env python3
"""tools/check_artifacts.py: every committed baseline and a small document of
every other artifact kind pass, and each check rejects one malformed
document with its own failure message.

Run directly (python3 tests/check_artifacts_test.py) or through ctest as
check_artifacts_test.
"""

import copy
import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "tools", "check_artifacts.py")
BASELINES = sorted(glob.glob(os.path.join(ROOT, "bench", "baselines*", "BENCH_*.json")))

HIST = {"count": 3, "min": 1, "max": 5, "sum": 9, "buckets": {"1-1": 1, "3-3": 1, "5-5": 1}}
LATENCY = HIST | {"p50_ns": 100, "p95_ns": 200, "p99_ns": 300}
CACHE = {"policy": "off", "hits": 0, "misses": 0, "evictions": 0, "served_nodes": 0,
         "inserted_bytes": 0}
REPORT = {
    "schema_version": 2, "kind": "bench-report", "tool": "test",
    "env": {"git_sha": "0", "compiler": "gcc", "flags": "", "build_type": "Release",
            "os": "linux", "threads": 1, "backend": "basic"},
    "curves": [{"name": "volume", "claim": "", "fitted": "n", "exponent": 1, "r_squared": 1,
                "points": [{"n": 256, "cost": 256, "wall_seconds": 0.1},
                           {"n": 512, "cost": 512, "wall_seconds": 0.2}]}],
    "phases": [{"name": "sweep", "wall_seconds": 0.3}], "cache": CACHE,
    "alloc": {"instrumented": False, "allocs": 0, "frees": 0, "bytes": 0, "peak_bytes": 0},
    "rss_high_water_kb": 1024, "total_wall_seconds": 0.3}
with open(os.path.join(ROOT, "bench", "baselines", "BENCH_ball-4.json"), encoding="utf-8") as f:
    FAMILY = json.load(f)
SERVE_REPORT = REPORT | {"serve": {
    "accepted": 3, "completed": 3, "shed": 0, "invalid": 0, "swaps": 0, "latency_samples": 3,
    "p50_ns": 100, "p95_ns": 200, "p99_ns": 300, "mean_ns": 150.5, "max_ns": 400,
    "qps": 10.0, "wall_seconds": 0.3}}
LOAD_REPORT = SERVE_REPORT | {"mutate": {
    "updates": 4, "applied": 3, "rejected": 1, "cache_evicted": 5, "cache_retained": 7,
    "flushes": 0, "update_p50_ns": 10, "update_p95_ns": 20, "update_p99_ns": 30,
    "apply_p50_ns": 5}}
METRICS = {
    "tool": "test", "sweeps": 1, "tape_max_bits": 0,
    "totals": {"starts": 3, "max_volume": 5, "max_distance": 5, "total_queries": 9,
               "total_volume": 9, "truncated": 0, "wall_seconds": 0.1},
    "volume": HIST, "distance": HIST, "queries": HIST, "start_wall_us": HIST,
    "workers": [{"worker": 0, "starts": 3, "busy_ns": 10}]}
TRACE = [
    {"type": "sweep", "seq": 0, "label": "s", "n": 3, "plan": "independent-starts", "starts": 1},
    {"type": "exec", "sweep": 0, "start": 0, "volume": 2, "distance": 1, "queries": 1,
     "truncated": False},
    {"type": "query", "sweep": 0, "start": 0, "seq": 0, "queried": 0, "port": 1, "found": 1,
     "found_id": 2, "found_degree": 1, "layer": 1, "volume": 2}]
CHROME = {"displayTimeUnit": "ms", "traceEvents": [
    {"name": "start 0", "cat": "s", "ph": "X", "ts": 0.5, "dur": 1.5, "pid": 0, "tid": 0,
     "args": {"volume": 2, "distance": 1, "queries": 1, "truncated": False}}]}
STATS = {"kind": "serve-stats", "schema_version": 1, "uptime_seconds": 1.0, "queue_depth": 0,
         "in_flight": 0, "accepted": 3, "completed": 3, "shed": 0, "invalid": 0, "swaps": 0,
         "slow_queries": 0, "latency": LATENCY, "window": {"seconds": 10.0, "latency": LATENCY},
         "cache": {}, "batch": {}, "metrics": {"histograms": {"serve.exec_ns": HIST}}}
STREAM = [STATS | {"uptime_seconds": 0.5, "accepted": 1, "completed": 1}, STATS]

DEL = object()


def put(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is DEL:
        del doc[last]
    else:
        doc[last] = value


def edit(base, *changes):
    """A deep copy of `base` with each (path, value) change applied."""
    doc = copy.deepcopy(base)
    for path, value in changes:
        put(doc, path, value)
    return doc


# (check, checker arguments, the document named DOC, expected failure).  SERVE, STATS
# and STATS1 name the valid SERVE_REPORT, STREAM and STATS fixtures.
P = ("serve",)
M = ("mutate",)
C0 = ("curves", 0)
CASES = [
    # Histograms (one helper for every histogram in every artifact).
    ("histogram: not an object", "--metrics DOC", edit(METRICS, (("volume",), [])),
     "doc.json volume: must be an object"),
    ("histogram: missing key", "--metrics DOC", edit(METRICS, (("volume", "sum"), DEL)),
     "doc.json volume: missing key 'sum'"),
    ("histogram: buckets not an object", "--metrics DOC",
     edit(METRICS, (("volume", "buckets"), [])), "doc.json volume buckets: must be an object"),
    ("histogram: bad bucket key", "--metrics DOC",
     edit(METRICS, (("volume", "buckets"), {"x-1": 3})), "doc.json volume: bad bucket key 'x-1'"),
    ("histogram: bucket order", "--metrics DOC",
     edit(METRICS, (("volume", "buckets"), {"3-3": 1, "1-1": 1, "5-5": 1})),
     "doc.json volume: bucket '1-1' out of order"),
    ("histogram: bucket count", "--metrics DOC",
     edit(METRICS, (("volume", "buckets"), {"1-1": 0, "3-3": 2, "5-5": 1})),
     "doc.json volume: bucket '1-1' count must be a positive integer"),
    ("histogram: buckets sum to count", "--metrics DOC", edit(METRICS, (("volume", "count"), 4)),
     "doc.json volume: buckets sum 3 != count 4"),
    ("histogram: min <= max", "--metrics DOC", edit(METRICS, (("volume", "min"), 6)),
     "doc.json volume: want min <= max, got [6, 5]"),
    ("histogram: optional start_wall_us checked", "--metrics DOC",
     edit(METRICS, (("start_wall_us", "sum"), DEL)), "doc.json start_wall_us: missing key 'sum'"),
    # Artifact body, shared by --json, --serve-report and --bench-family.
    ("body: required key", "--json DOC", edit(REPORT, (("rss_high_water_kb",), DEL)),
     "doc.json: missing key 'rss_high_water_kb'"),
    ("body: schema_version", "--json DOC", edit(REPORT, (("schema_version",), 1)),
     "doc.json schema_version: must be one of [2], got 1"),
    ("body: kind", "--json DOC", edit(REPORT, (("kind",), "bench-family")),
     "doc.json kind: must be one of ['bench-report'], got 'bench-family'"),
    ("body: env key", "--json DOC", edit(REPORT, (("env", "os"), DEL)),
     "doc.json env: missing key 'os'"),
    ("body: env backend", "--json DOC", edit(REPORT, (("env", "backend"), "fast")),
     "doc.json env backend: must be one of ['basic', 'batched'], got 'fast'"),
    ("body: curves non-empty", "--json DOC", edit(REPORT, (("curves",), [])),
     "doc.json curves: must be a non-empty list"),
    ("body: curve key", "--json DOC", edit(REPORT, (C0 + ("fitted",), DEL)),
     "doc.json curves[0]: missing key 'fitted'"),
    ("body: point key", "--json DOC", edit(REPORT, (C0 + ("points", 0, "cost"), DEL)),
     "doc.json curves[0] points[0]: missing key 'cost'"),
    ("body: point n > 0", "--json DOC", edit(REPORT, (C0 + ("points", 0, "n"), 0)),
     "doc.json curves[0] points[0] n: must be > 0, got 0"),
    ("body: point cost finite >= 0", "--json DOC", edit(REPORT, (C0 + ("points", 0, "cost"), -1)),
     "doc.json curves[0] points[0] cost: must be finite and >= 0, got -1"),
    ("body: alloc key", "--json DOC", edit(REPORT, (("alloc", "peak_bytes"), DEL)),
     "doc.json alloc: missing key 'peak_bytes'"),
    ("body: phase key", "--json DOC", edit(REPORT, (("phases", 0, "wall_seconds"), DEL)),
     "doc.json phases[0]: missing key 'wall_seconds'"),
    ("body: phase name", "--json DOC", edit(REPORT, (("phases", 0, "name"), "")),
     "doc.json phases[0] name: must be a non-empty string, got ''"),
    ("body: phase wall", "--json DOC", edit(REPORT, (("phases", 0, "wall_seconds"), -0.5)),
     "doc.json phases[0] wall_seconds: must be finite and >= 0, got -0.5"),
    ("cache: block present", "--json DOC", edit(REPORT, (("cache",), DEL)),
     "doc.json: missing key 'cache'"),
    ("cache: counter key", "--json DOC", edit(REPORT, (("cache", "hits"), DEL)),
     "doc.json cache: missing key 'hits'"),
    ("cache: policy", "--json DOC", edit(REPORT, (("cache", "policy"), "sharde")),
     "doc.json cache policy: must be one of ['off', 'shared'], got 'sharde'"),
    ("cache: counter value", "--json DOC", edit(REPORT, (("cache", "hits"), -1)),
     "doc.json cache hits: must be a non-negative integer, got -1"),
    # Bench-family artifacts and --expect-phase.
    ("family: metadata key", "--bench-family DOC", edit(FAMILY, (("theta",), DEL)),
     "doc.json: missing key 'theta'"),
    ("family: name", "--bench-family DOC", edit(FAMILY, (("family",), "")),
     "doc.json family: must be a non-empty string, got ''"),
    ("family: kind", "--bench-family DOC", edit(FAMILY, (("kind",), "bench-report")),
     "doc.json kind: must be one of ['bench-family'], got 'bench-report'"),
    ("family: strictly monotone n", "--bench-family DOC",
     edit(FAMILY, (C0 + ("points", 1, "n"), 255)),
     "doc.json curve 'volume': n-sweep not strictly monotone [255, 255, 1023, 2047, 4095]"),
    ("expect-phase: present", "--bench-family DOC --expect-phase load", FAMILY,
     "doc.json: expected phase 'load', have ['fit', 'generate', 'sweep', 'verify']"),
    ("expect-phase: wall time", "--bench-family DOC --expect-phase fit",
     edit(FAMILY, (("phases", 3, "wall_seconds"), 0)),
     "doc.json: phase 'fit' recorded no wall time"),
    # Serve reports.
    ("serve: block present", "--serve-report DOC", REPORT, "doc.json: missing key 'serve'"),
    ("serve: key", "--serve-report DOC", edit(SERVE_REPORT, (P + ("qps",), DEL)),
     "doc.json serve: missing key 'qps'"),
    ("serve: counter", "--serve-report DOC", edit(SERVE_REPORT, (P + ("shed",), 1.5)),
     "doc.json serve shed: must be a non-negative integer, got 1.5"),
    ("serve: gauge", "--serve-report DOC", edit(SERVE_REPORT, (P + ("qps",), -1.0)),
     "doc.json serve qps: must be finite and >= 0, got -1.0"),
    ("serve: completed <= accepted", "--serve-report DOC",
     edit(SERVE_REPORT, (P + ("completed",), 4)),
     "doc.json serve: want completed <= accepted, got [4, 3]"),
    ("serve: percentiles ordered", "--serve-report DOC",
     edit(SERVE_REPORT, (P + ("p50_ns",), 250)),
     "doc.json serve: want p50_ns <= p95_ns <= p99_ns <= max_ns, got [250, 200, 300, 400]"),
    ("serve: p99 <= max", "--serve-report DOC", edit(SERVE_REPORT, (P + ("max_ns",), 250)),
     "doc.json serve: want p50_ns <= p95_ns <= p99_ns <= max_ns, got [100, 200, 300, 250]"),
    ("serve: samples need completions", "--serve-report DOC",
     edit(SERVE_REPORT, (P + ("completed",), 0)),
     "doc.json serve: latency samples without completed requests"),
    ("serve: shed percentiles ordered", "--serve-report DOC",
     edit(SERVE_REPORT, (P + ("shed_p50_ns",), 5), (P + ("shed_p95_ns",), 2)),
     "doc.json serve: want shed_p50_ns <= shed_p95_ns <= shed_p99_ns, got [5, 2, 0]"),
    ("serve: shed samples <= shed", "--serve-report DOC",
     edit(SERVE_REPORT, (P + ("shed_latency_samples",), 2)),
     "doc.json serve: want shed_latency_samples <= shed, got [2, 0]"),
    # Mutate blocks: checked whenever present, required under --expect-mutate.
    ("mutate: required", "--expect-mutate DOC", SERVE_REPORT, "doc.json: missing key 'mutate'"),
    ("mutate: applied updates", "--expect-mutate DOC", edit(LOAD_REPORT, (M + ("applied",), 0)),
     "doc.json mutate applied: must be > 0, got 0"),
    ("mutate: object", "--serve-report DOC", edit(LOAD_REPORT, (M, [])),
     "doc.json mutate: must be an object"),
    ("mutate: key", "--serve-report DOC", edit(LOAD_REPORT, (M + ("flushes",), DEL)),
     "doc.json mutate: missing key 'flushes'"),
    ("mutate: counter", "--serve-report DOC", edit(LOAD_REPORT, (M + ("applied",), -1)),
     "doc.json mutate applied: must be a non-negative integer, got -1"),
    ("mutate: gauge", "--serve-report DOC", edit(LOAD_REPORT, (M + ("update_p50_ns",), -1)),
     "doc.json mutate update_p50_ns: must be finite and >= 0, got -1"),
    ("mutate: applied + rejected <= updates", "--serve-report DOC",
     edit(LOAD_REPORT, (M + ("updates",), 3)),
     "doc.json mutate: applied 3 + rejected 1 exceeds updates 3"),
    ("mutate: flushes <= applied", "--serve-report DOC", edit(LOAD_REPORT, (M + ("flushes",), 4)),
     "doc.json mutate: want flushes <= applied, got [4, 3]"),
    ("mutate: percentiles ordered", "--serve-report DOC",
     edit(LOAD_REPORT, (M + ("update_p50_ns",), 25)),
     "doc.json mutate: want update_p50_ns <= update_p95_ns <= update_p99_ns, got [25, 20, 30]"),
    # Sweep metrics.
    ("metrics: key", "--metrics DOC", edit(METRICS, (("tape_max_bits",), DEL)),
     "doc.json: missing key 'tape_max_bits'"),
    ("metrics: worker key", "--metrics DOC", edit(METRICS, (("workers", 0, "busy_ns"), DEL)),
     "doc.json workers[0]: missing key 'busy_ns'"),
    ("metrics: totals key", "--metrics DOC", edit(METRICS, (("totals", "truncated"), DEL)),
     "doc.json totals: missing key 'truncated'"),
    ("metrics: sweeps recorded", "--metrics DOC", edit(METRICS, (("sweeps",), 0)),
     "doc.json sweeps: must be > 0, got 0"),
    ("metrics: starts recorded", "--metrics DOC", edit(METRICS, (("totals", "starts"), 0)),
     "doc.json totals starts: must be > 0, got 0"),
    ("metrics: histogram count == starts", "--metrics DOC",
     edit(METRICS, (("distance",), {"count": 2, "min": 1, "max": 1, "sum": 2,
                                    "buckets": {"1-1": 2}})),
     "doc.json: distance count 2 != totals.starts 3"),
    ("metrics: volume sum", "--metrics DOC", edit(METRICS, (("totals", "total_volume"), 10)),
     "doc.json: volume sum 9 != totals.total_volume 10"),
    ("metrics: volume max", "--metrics DOC", edit(METRICS, (("totals", "max_volume"), 4)),
     "doc.json: volume max 5 != totals.max_volume 4"),
    ("metrics: queries sum", "--metrics DOC", edit(METRICS, (("totals", "total_queries"), 8)),
     "doc.json: queries sum 9 != totals.total_queries 8"),
    # Query trace JSONL.
    ("trace: sweep key", "--trace DOC", edit(TRACE, ((0, "plan"), DEL)),
     "doc.jsonl[0]: missing key 'plan'"),
    ("trace: exec key", "--trace DOC", edit(TRACE, ((1, "truncated"), DEL)),
     "doc.jsonl[1]: missing key 'truncated'"),
    ("trace: query key", "--trace DOC", edit(TRACE, ((2, "layer"), DEL)),
     "doc.jsonl[2]: missing key 'layer'"),
    ("trace: exec after its sweep", "--trace DOC", [TRACE[1], TRACE[0], TRACE[2]],
     "doc.jsonl[0]: exec before its sweep header"),
    ("trace: query after its exec", "--trace DOC", [TRACE[0], TRACE[2], TRACE[1]],
     "doc.jsonl[1]: query before its exec line"),
    ("trace: 1-based port", "--trace DOC", edit(TRACE, ((2, "port"), 0)),
     "doc.jsonl[2] port: must be > 0, got 0"),
    ("trace: running volume", "--trace DOC", edit(TRACE, ((2, "volume"), 0)),
     "doc.jsonl[2] volume: must be > 0, got 0"),
    ("trace: line type", "--trace DOC", edit(TRACE, ((2, "type"), "bogus")),
     "doc.jsonl[2] type: must be one of ['sweep', 'exec', 'query'], got 'bogus'"),
    ("trace: sweep headers", "--trace DOC", TRACE[1:], "doc.jsonl: no sweep headers"),
    ("trace: exec lines", "--trace DOC", [edit(TRACE[0], (("starts",), 0))],
     "doc.jsonl: no exec lines"),
    ("trace: execs == declared starts", "--trace DOC", edit(TRACE, ((0, "starts"), 2)),
     "doc.jsonl: 1 exec lines but sweeps declare 2 starts"),
    ("trace: query lines == declared queries", "--trace DOC", edit(TRACE, ((1, "queries"), 3)),
     "doc.jsonl: sweep 0 start 0: 1 query lines vs declared queries 3"),
    # Chrome trace_event JSON.
    ("chrome: key", "--chrome-trace DOC", edit(CHROME, (("displayTimeUnit",), DEL)),
     "doc.json: missing key 'displayTimeUnit'"),
    ("chrome: events non-empty", "--chrome-trace DOC", edit(CHROME, (("traceEvents",), [])),
     "doc.json traceEvents: must be a non-empty list"),
    ("chrome: event key", "--chrome-trace DOC", edit(CHROME, (("traceEvents", 0, "pid"), DEL)),
     "doc.json traceEvents[0]: missing key 'pid'"),
    ("chrome: complete events", "--chrome-trace DOC",
     edit(CHROME, (("traceEvents", 0, "ph"), "B")),
     "doc.json traceEvents[0] ph: must be one of ['X'], got 'B'"),
    ("chrome: duration", "--chrome-trace DOC", edit(CHROME, (("traceEvents", 0, "dur"), -1)),
     "doc.json traceEvents[0] dur: must be finite and >= 0, got -1"),
    ("chrome: args key", "--chrome-trace DOC",
     edit(CHROME, (("traceEvents", 0, "args", "truncated"), DEL)),
     "doc.json traceEvents[0] args: missing key 'truncated'"),
    # Serve Stats lines (--stats-snapshot and every --stats-jsonl line).
    ("stats: key", "--stats-snapshot DOC", edit(STATS, (("slow_queries",), DEL)),
     "doc.json: missing key 'slow_queries'"),
    ("stats: kind", "--stats-snapshot DOC", edit(STATS, (("kind",), "serve-stat")),
     "doc.json kind: must be one of ['serve-stats'], got 'serve-stat'"),
    ("stats: counter", "--stats-snapshot DOC", edit(STATS, (("queue_depth",), -1)),
     "doc.json queue_depth: must be a non-negative integer, got -1"),
    ("stats: completed <= accepted", "--stats-snapshot DOC", edit(STATS, (("completed",), 4)),
     "doc.json: want completed <= accepted, got [4, 3]"),
    ("stats: latency present", "--stats-snapshot DOC", edit(STATS, (("latency",), None)),
     "doc.json latency: must be an object"),
    ("stats: window latency present", "--stats-snapshot DOC",
     edit(STATS, (("window", "latency"), DEL)), "doc.json window: missing key 'latency'"),
    ("stats: latency histogram", "--stats-snapshot DOC", edit(STATS, (("latency", "count"), 2)),
     "doc.json latency: buckets sum 3 != count 2"),
    ("stats: latency percentiles", "--stats-snapshot DOC",
     edit(STATS, (("latency", "p50_ns"), 250)),
     "doc.json latency: want p50_ns <= p95_ns <= p99_ns, got [250, 200, 300]"),
    ("stats: window percentiles", "--stats-snapshot DOC",
     edit(STATS, (("window", "latency", "p99_ns"), 150)),
     "doc.json window latency: want p50_ns <= p95_ns <= p99_ns, got [100, 200, 150]"),
    ("stats: metrics histograms object", "--stats-snapshot DOC",
     edit(STATS, (("metrics", "histograms"), [])),
     "doc.json metrics histograms: must be an object"),
    ("stats: metrics histogram", "--stats-snapshot DOC",
     edit(STATS, (("metrics", "histograms", "serve.exec_ns", "count"), 4)),
     "doc.json metrics histograms serve.exec_ns: buckets sum 3 != count 4"),
    ("stats: window within history", "--stats-snapshot DOC",
     edit(STATS, (("window", "latency"), LATENCY | {"count": 4, "sum": 10,
                                                    "buckets": {"1-1": 2, "3-3": 1, "5-5": 1}})),
     "doc.json: window holds more samples than exist since start"),
    ("stats stream: lines present", "--stats-jsonl DOC", [], "doc.jsonl: must be a non-empty list"),
    ("stats stream: counters monotone", "--stats-jsonl DOC",
     [STATS, edit(STATS, (("completed",), 2), (("uptime_seconds",), 2.0))],
     "doc.jsonl[1]: completed went backwards (3 then 2)"),
    ("stats stream: uptime advances", "--stats-jsonl DOC", [STATS, STATS],
     "doc.jsonl[1]: uptime did not advance"),
    # --against-serve reconciliation.
    ("against: serve block", "--stats-jsonl STATS --against-serve DOC", REPORT,
     "doc.json: missing 'serve' block"),
    ("against: mid-run <= totals", "--stats-snapshot STATS1 --against-serve DOC",
     edit(SERVE_REPORT, (P + ("completed",), 2)),
     "stats1.json[0]: counters above the artifact totals: {'completed': (3, 2)}"),
    ("against: final == totals", "--stats-jsonl STATS --against-serve DOC",
     edit(SERVE_REPORT, (P + ("completed",), 4), (P + ("accepted",), 4)),
     "stats.jsonl[1]: final stats != artifact: {'accepted': (3, 4), 'completed': (3, 4)}"),
    ("against: final latency count", "--stats-jsonl STATS --against-serve DOC",
     edit(SERVE_REPORT, (P + ("latency_samples",), 4)),
     "stats.jsonl[1]: final stats != artifact: {'latency_samples': (3, 4)}"),
    ("against: final percentiles", "--stats-jsonl STATS --against-serve DOC",
     edit(SERVE_REPORT, (P + ("p50_ns",), 110)),
     "stats.jsonl[1]: final stats != artifact: {'p50_ns': (100, 110)}"),
    ("against: final quiescent", "--stats-jsonl DOC --against-serve SERVE",
     edit(STREAM, ((1, "queue_depth"), 1)),
     "doc.jsonl[1]: final stats != artifact: {'queue_depth': (1, 0)}"),
]


def run_checker(args, doc=None, checker=CHECKER):
    """Runs the checker on `args` (a list, or a string split at spaces), where DOC
    names `doc` (written as JSONL when it is a list) and SERVE / STATS / STATS1
    the valid serve fixtures.  Returns (exit status, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, value, lines=False):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write("".join(json.dumps(v) + "\n" for v in value) if lines
                        else json.dumps(value))
            return path
        names = {"SERVE": write("serve.json", SERVE_REPORT),
                 "STATS": write("stats.jsonl", STREAM, lines=True),
                 "STATS1": write("stats1.json", STATS)}
        if doc is not None:
            names["DOC"] = write("doc.jsonl" if isinstance(doc, list) else "doc.json", doc,
                                 lines=isinstance(doc, list))
        argv = [names.get(a, a) for a in (args.split() if isinstance(args, str) else args)]
        proc = subprocess.run([sys.executable, checker] + argv, capture_output=True, text=True)
        return proc.returncode, proc.stderr


class CheckArtifactsTest(unittest.TestCase):
    def test_committed_baselines_pass(self):
        self.assertGreaterEqual(len(BASELINES), 8)  # 7 families + the extended ball-4
        args = [arg for path in BASELINES for arg in ("--bench-family", path)]
        self.assertEqual(run_checker(args), (0, ""))

    def test_every_kind_passes_when_well_formed(self):
        for args, doc in (("--json DOC", REPORT), ("--metrics DOC", METRICS),
                          ("--trace DOC", TRACE), ("--chrome-trace DOC", CHROME),
                          ("--serve-report DOC", LOAD_REPORT),
                          ("--serve-report DOC --expect-mutate DOC", LOAD_REPORT),
                          ("--stats-jsonl STATS --stats-snapshot STATS1 --against-serve DOC",
                           SERVE_REPORT)):
            with self.subTest(args=args):
                self.assertEqual(run_checker(args, doc), (0, ""))

    def test_each_check_rejects_its_malformed_document(self):
        for check, args, doc, failure in CASES:
            with self.subTest(check=check):
                status, stderr = run_checker(args, doc)
                self.assertEqual(status, 1, stderr)
                self.assertIn(failure, stderr)

    def test_no_artifact_is_a_usage_error(self):
        self.assertEqual(run_checker("")[0], 2)


if __name__ == "__main__":
    unittest.main()
