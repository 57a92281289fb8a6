#include "perf/artifact.hpp"

#include <cinttypes>
#include <cstdio>

#include "runtime/sweep_stats.hpp"
#include "util/text_file.hpp"

namespace volcal::perf {

void ArtifactCurve::refit() {
  fitted = "(n/a)";
  exponent = 0.0;
  r_squared = 0.0;
  if (points.size() < 3) return;
  std::vector<double> ns, costs;
  ns.reserve(points.size());
  costs.reserve(points.size());
  for (const CurvePoint& p : points) {
    if (p.n <= 0.0 || p.cost <= 0.0) return;  // classify_growth precondition
    ns.push_back(p.n);
    costs.push_back(p.cost);
  }
  for (std::size_t i = 1; i < ns.size(); ++i) {
    if (ns[i] <= ns[i - 1]) return;  // strictly increasing n required
  }
  const stats::GrowthFit fit = stats::classify_growth(ns, costs);
  fitted = fit.label;
  exponent = fit.exponent;
  r_squared = fit.r_squared;
}

void ServeStatsBlock::set_latency(const obs::Histogram& latency_ns) {
  latency_samples = latency_ns.count;
  p50_ns = static_cast<double>(latency_ns.quantile(0.50));
  p95_ns = static_cast<double>(latency_ns.quantile(0.95));
  p99_ns = static_cast<double>(latency_ns.quantile(0.99));
  mean_ns = latency_ns.mean();
  max_ns = static_cast<double>(latency_ns.max);
}

ArtifactCurve ServeStatsBlock::latency_curve() const {
  ArtifactCurve curve;
  curve.name = "latency-percentiles";
  curve.points = {{50.0, p50_ns, 0.0}, {95.0, p95_ns, 0.0}, {99.0, p99_ns, 0.0}};
  curve.refit();
  return curve;
}

const ArtifactCurve* BenchArtifact::find_curve(const std::string& name) const {
  for (const ArtifactCurve& c : curves) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void BenchArtifact::stamp_probes(int threads, const AllocStats& alloc_base) {
  env = current_env(threads);
  alloc = alloc_snapshot() - alloc_base;
  alloc_instrumented = alloc_hook_active();
  rss_high_water_kb = perf::rss_high_water_kb();
}

namespace {

void append_env(std::string& out, const EnvFingerprint& env) {
  out += "\"env\": {\"git_sha\": \"" + json_escape(env.git_sha) + "\", \"compiler\": \"" +
         json_escape(env.compiler) + "\", \"flags\": \"" + json_escape(env.flags) +
         "\", \"build_type\": \"" + json_escape(env.build_type) + "\", \"os\": \"" +
         json_escape(env.os) + "\", \"threads\": " + std::to_string(env.threads) +
         ", \"backend\": \"" + json_escape(env.backend) + "\"}";
}

void append_curve(std::string& out, const ArtifactCurve& c) {
  char buf[192];
  out += "{\"name\": \"" + json_escape(c.name) + "\", \"claim\": \"" +
         json_escape(c.claim) + "\", \"fitted\": \"" + json_escape(c.fitted) + "\", ";
  std::snprintf(buf, sizeof buf, "\"exponent\": %.17g, \"r_squared\": %.17g, \"points\": [",
                c.exponent, c.r_squared);
  out += buf;
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    const CurvePoint& p = c.points[i];
    std::snprintf(buf, sizeof buf, "%s{\"n\": %.17g, \"cost\": %.17g, \"wall_seconds\": %.6g}",
                  i ? ", " : "", p.n, p.cost, p.wall_seconds);
    out += buf;
  }
  out += "]}";
}

void append_body(std::string& out, const BenchArtifact& a) {
  char buf[256];
  out += "\"schema_version\": " + std::to_string(a.schema_version) + ", \"kind\": \"" +
         json_escape(a.kind) + "\", \"tool\": \"" + json_escape(a.tool) + "\", ";
  if (a.kind == "bench-family") {
    out += "\"family\": \"" + json_escape(a.family) + "\", \"title\": \"" +
           json_escape(a.title) + "\", \"theta\": \"" + json_escape(a.theta) +
           "\", \"algorithm\": \"" + json_escape(a.algorithm) + "\", ";
  }
  append_env(out, a.env);
  out += ", \"curves\": [";
  for (std::size_t i = 0; i < a.curves.size(); ++i) {
    if (i) out += ", ";
    append_curve(out, a.curves[i]);
  }
  out += "], \"phases\": [";
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"name\": \"%s\", \"wall_seconds\": %.6g}",
                  i ? ", " : "", json_escape(a.phases[i].name).c_str(),
                  a.phases[i].wall_seconds);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "], \"cache\": {\"policy\": \"%s\", \"hits\": %" PRId64
                ", \"misses\": %" PRId64 ", \"evictions\": %" PRId64
                ", \"served_nodes\": %" PRId64 ", \"inserted_bytes\": %" PRId64 "}",
                cache_policy_name(a.cache.policy), a.cache.hits, a.cache.misses,
                a.cache.evictions, a.cache.served_nodes, a.cache.inserted_bytes);
  out += buf;
  if (a.serve.has_value()) {
    const ServeStatsBlock& s = *a.serve;
    char sbuf[768];
    std::snprintf(sbuf, sizeof sbuf,
                  ", \"serve\": {\"accepted\": %" PRId64 ", \"completed\": %" PRId64
                  ", \"shed\": %" PRId64 ", \"invalid\": %" PRId64
                  ", \"swaps\": %" PRId64 ", \"latency_samples\": %" PRId64
                  ", \"p50_ns\": %.17g, \"p95_ns\": %.17g, \"p99_ns\": %.17g"
                  ", \"mean_ns\": %.17g, \"max_ns\": %.17g, \"qps\": %.17g"
                  ", \"wall_seconds\": %.6g"
                  ", \"shed_latency_samples\": %" PRId64
                  ", \"shed_p50_ns\": %.17g, \"shed_p95_ns\": %.17g"
                  ", \"shed_p99_ns\": %.17g}",
                  s.accepted, s.completed, s.shed, s.invalid, s.swaps,
                  s.latency_samples, s.p50_ns, s.p95_ns, s.p99_ns, s.mean_ns,
                  s.max_ns, s.qps, s.wall_seconds, s.shed_latency_samples,
                  s.shed_p50_ns, s.shed_p95_ns, s.shed_p99_ns);
    out += sbuf;
  }
  if (a.mutate.has_value()) {
    const MutateStatsBlock& m = *a.mutate;
    char mbuf[512];
    std::snprintf(mbuf, sizeof mbuf,
                  ", \"mutate\": {\"updates\": %" PRId64 ", \"applied\": %" PRId64
                  ", \"rejected\": %" PRId64 ", \"cache_evicted\": %" PRId64
                  ", \"cache_retained\": %" PRId64 ", \"flushes\": %" PRId64
                  ", \"update_p50_ns\": %.17g, \"update_p95_ns\": %.17g"
                  ", \"update_p99_ns\": %.17g, \"apply_p50_ns\": %.17g}",
                  m.updates, m.applied, m.rejected, m.cache_evicted,
                  m.cache_retained, m.flushes, m.update_p50_ns, m.update_p95_ns,
                  m.update_p99_ns, m.apply_p50_ns);
    out += mbuf;
  }
  std::snprintf(buf, sizeof buf,
                ", \"alloc\": {\"instrumented\": %s, \"allocs\": %" PRIu64
                ", \"frees\": %" PRIu64 ", \"bytes\": %" PRIu64 ", \"peak_bytes\": %" PRIu64
                "}, \"rss_high_water_kb\": %" PRId64 ", \"total_wall_seconds\": %.6g",
                a.alloc_instrumented ? "true" : "false", a.alloc.allocs, a.alloc.frees,
                a.alloc.bytes, a.alloc.peak_bytes, a.rss_high_water_kb,
                a.total_wall_seconds);
  out += buf;
}

EnvFingerprint env_from_json(const JsonValue& v) {
  EnvFingerprint env;
  env.git_sha = v.string_at("git_sha");
  env.compiler = v.string_at("compiler");
  env.flags = v.string_at("flags");
  env.build_type = v.string_at("build_type");
  env.os = v.string_at("os");
  env.threads = static_cast<int>(v.int_at("threads", 1));
  env.backend = v.string_at("backend");
  return env;
}

}  // namespace

std::string BenchArtifact::to_json() const {
  std::string out = "{";
  append_body(out, *this);
  out += "}\n";
  return out;
}

bool BenchArtifact::write_file(const std::string& path) const {
  const std::string doc = to_json();
  return write_text_file(path,
                         [&](std::FILE* f) { std::fwrite(doc.data(), 1, doc.size(), f); });
}

std::optional<BenchArtifact> BenchArtifact::from_json(const JsonValue& doc,
                                                      std::string* err) {
  auto fail = [&](const std::string& why) -> std::optional<BenchArtifact> {
    if (err != nullptr) *err = why;
    return std::nullopt;
  };
  if (!doc.is_object()) return fail("artifact is not a JSON object");
  if (!doc.has("schema_version")) return fail("missing schema_version");
  BenchArtifact a;
  a.schema_version = static_cast<int>(doc.int_at("schema_version"));
  if (a.schema_version != kArtifactSchemaVersion) {
    return fail("unsupported schema_version " + std::to_string(a.schema_version));
  }
  a.kind = doc.string_at("kind");
  if (a.kind != "bench-report" && a.kind != "bench-family") {
    return fail("unexpected kind '" + a.kind + "'");
  }
  a.tool = doc.string_at("tool");
  a.family = doc.string_at("family");
  a.title = doc.string_at("title");
  a.theta = doc.string_at("theta");
  a.algorithm = doc.string_at("algorithm");
  if (const JsonValue* env = doc.find("env")) a.env = env_from_json(*env);
  const JsonValue* curves = doc.find("curves");
  if (curves == nullptr || !curves->is_array()) return fail("missing curves array");
  for (const JsonValue& cv : curves->items()) {
    ArtifactCurve c;
    c.name = cv.string_at("name");
    c.claim = cv.string_at("claim");
    c.fitted = cv.string_at("fitted");
    c.exponent = cv.number_at("exponent");
    c.r_squared = cv.number_at("r_squared");
    const JsonValue* pts = cv.find("points");
    if (pts == nullptr || !pts->is_array()) {
      return fail("curve '" + c.name + "' missing points array");
    }
    for (const JsonValue& pv : pts->items()) {
      c.points.push_back(
          {pv.number_at("n"), pv.number_at("cost"), pv.number_at("wall_seconds")});
    }
    a.curves.push_back(std::move(c));
  }
  if (const JsonValue* phases = doc.find("phases"); phases != nullptr && phases->is_array()) {
    for (const JsonValue& pv : phases->items()) {
      a.phases.push_back({pv.string_at("name"), pv.number_at("wall_seconds")});
    }
  }
  if (const JsonValue* cache = doc.find("cache")) {
    CachePolicy policy = CachePolicy::Off;
    CacheConfig::policy_from_name(cache->string_at("policy").c_str(), &policy);
    a.cache.policy = policy;
    a.cache.hits = cache->int_at("hits");
    a.cache.misses = cache->int_at("misses");
    a.cache.evictions = cache->int_at("evictions");
    a.cache.served_nodes = cache->int_at("served_nodes");
    a.cache.inserted_bytes = cache->int_at("inserted_bytes");
  }
  if (const JsonValue* serve = doc.find("serve")) {
    ServeStatsBlock s;
    s.accepted = serve->int_at("accepted");
    s.completed = serve->int_at("completed");
    s.shed = serve->int_at("shed");
    s.invalid = serve->int_at("invalid");
    s.swaps = serve->int_at("swaps");
    s.latency_samples = serve->int_at("latency_samples");
    s.p50_ns = serve->number_at("p50_ns");
    s.p95_ns = serve->number_at("p95_ns");
    s.p99_ns = serve->number_at("p99_ns");
    s.mean_ns = serve->number_at("mean_ns");
    s.max_ns = serve->number_at("max_ns");
    s.qps = serve->number_at("qps");
    s.wall_seconds = serve->number_at("wall_seconds");
    // Additive shed fields (absent in pre-observability artifacts).
    s.shed_latency_samples = serve->int_at("shed_latency_samples");
    s.shed_p50_ns = serve->number_at("shed_p50_ns");
    s.shed_p95_ns = serve->number_at("shed_p95_ns");
    s.shed_p99_ns = serve->number_at("shed_p99_ns");
    a.serve = s;
  }
  if (const JsonValue* mutate = doc.find("mutate")) {
    MutateStatsBlock m;
    m.updates = mutate->int_at("updates");
    m.applied = mutate->int_at("applied");
    m.rejected = mutate->int_at("rejected");
    m.cache_evicted = mutate->int_at("cache_evicted");
    m.cache_retained = mutate->int_at("cache_retained");
    m.flushes = mutate->int_at("flushes");
    m.update_p50_ns = mutate->number_at("update_p50_ns");
    m.update_p95_ns = mutate->number_at("update_p95_ns");
    m.update_p99_ns = mutate->number_at("update_p99_ns");
    m.apply_p50_ns = mutate->number_at("apply_p50_ns");
    a.mutate = m;
  }
  if (const JsonValue* alloc = doc.find("alloc")) {
    a.alloc_instrumented = alloc->find("instrumented") != nullptr &&
                           alloc->find("instrumented")->as_bool();
    a.alloc.allocs = static_cast<std::uint64_t>(alloc->int_at("allocs"));
    a.alloc.frees = static_cast<std::uint64_t>(alloc->int_at("frees"));
    a.alloc.bytes = static_cast<std::uint64_t>(alloc->int_at("bytes"));
    a.alloc.peak_bytes = static_cast<std::uint64_t>(alloc->int_at("peak_bytes"));
  }
  a.rss_high_water_kb = doc.int_at("rss_high_water_kb");
  a.total_wall_seconds = doc.number_at("total_wall_seconds");
  return a;
}

std::optional<BenchArtifact> BenchArtifact::load(const std::string& path,
                                                 std::string* err) {
  std::string parse_err;
  JsonValue doc = parse_json_file(path, &parse_err);
  if (doc.is_null()) {
    if (err != nullptr) *err = parse_err.empty() ? path + ": unreadable" : parse_err;
    return std::nullopt;
  }
  std::string why;
  auto a = from_json(doc, &why);
  if (!a.has_value() && err != nullptr) *err = path + ": " + why;
  return a;
}

}  // namespace volcal::perf
