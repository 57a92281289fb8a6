#include "perf/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace volcal::perf {
namespace {

std::string artifact_key(const BenchArtifact& a) {
  return !a.family.empty() ? a.family : a.tool;
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

void add(DiffResult& out, DiffFinding::Severity sev, const std::string& artifact,
         std::string what) {
  out.findings.push_back({sev, artifact, std::move(what)});
}

void diff_curve(const std::string& key, const ArtifactCurve& base,
                const ArtifactCurve& cand, const DiffOptions& opt, DiffResult& out) {
  using Sev = DiffFinding::Severity;
  const std::string where = "curve '" + base.name + "'";
  if (base.points.size() != cand.points.size()) {
    add(out, Sev::Hard, key,
        fmt("%s: point count changed %zu -> %zu", where.c_str(), base.points.size(),
            cand.points.size()));
    return;
  }
  for (std::size_t i = 0; i < base.points.size(); ++i) {
    const CurvePoint& b = base.points[i];
    const CurvePoint& c = cand.points[i];
    if (b.n != c.n) {
      add(out, Sev::Hard, key,
          fmt("%s point %zu: n changed %.0f -> %.0f (instance shape drift)",
              where.c_str(), i, b.n, c.n));
    } else if (b.cost != c.cost) {
      add(out, Sev::Hard, key,
          fmt("%s at n=%.0f: cost drifted %.17g -> %.17g (%+.2f%%)", where.c_str(), b.n,
              b.cost, c.cost, b.cost != 0.0 ? (c.cost - b.cost) / b.cost * 100.0 : 0.0));
    }
  }
  if (base.fitted != cand.fitted) {
    add(out, Sev::Hard, key,
        fmt("%s: fitted growth class changed '%s' -> '%s'", where.c_str(),
            base.fitted.c_str(), cand.fitted.c_str()));
  }
  if (std::abs(base.exponent - cand.exponent) > opt.fit_epsilon) {
    add(out, Sev::Hard, key,
        fmt("%s: fitted exponent drifted %.6f -> %.6f", where.c_str(), base.exponent,
            cand.exponent));
  }
  if (std::abs(base.r_squared - cand.r_squared) > opt.fit_epsilon) {
    add(out, Sev::Hard, key,
        fmt("%s: fit r^2 drifted %.6f -> %.6f", where.c_str(), base.r_squared,
            cand.r_squared));
  }
}

// Attribution lines for a tripped wall gate: where did the time go?
void attribute_wall(const std::string& key, const BenchArtifact& base,
                    const BenchArtifact& cand, DiffResult& out) {
  using Sev = DiffFinding::Severity;
  struct Delta {
    std::string what;
    double seconds;
  };
  std::vector<Delta> deltas;
  for (const PhaseTimer::Phase& bp : base.phases) {
    for (const PhaseTimer::Phase& cp : cand.phases) {
      if (bp.name == cp.name && cp.wall_seconds > bp.wall_seconds) {
        deltas.push_back({fmt("phase '%s': %.3fs -> %.3fs", bp.name.c_str(),
                              bp.wall_seconds, cp.wall_seconds),
                          cp.wall_seconds - bp.wall_seconds});
      }
    }
  }
  for (const ArtifactCurve& bc : base.curves) {
    const ArtifactCurve* cc = cand.find_curve(bc.name);
    if (cc == nullptr) continue;
    const double bw = bc.wall_seconds();
    const double cw = cc->wall_seconds();
    if (cw > bw) {
      deltas.push_back(
          {fmt("curve '%s': %.3fs -> %.3fs", bc.name.c_str(), bw, cw), cw - bw});
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.seconds > b.seconds; });
  for (std::size_t i = 0; i < deltas.size() && i < 4; ++i) {
    add(out, Sev::Note, key, "  where it went: " + deltas[i].what);
  }
}

}  // namespace

void diff_artifact(const BenchArtifact& base, const BenchArtifact& cand,
                   const DiffOptions& opt, DiffResult& out) {
  using Sev = DiffFinding::Severity;
  const std::string key = artifact_key(base);
  if (base.env.compiler != cand.env.compiler || base.env.build_type != cand.env.build_type) {
    add(out, Sev::Note, key,
        "env differs: " + base.env.compiler + "/" + base.env.build_type + " vs " +
            cand.env.compiler + "/" + cand.env.build_type);
  }
  if (base.env.threads != cand.env.threads) {
    add(out, Sev::Note, key,
        fmt("env differs: %d threads vs %d (cost curves are thread-count invariant)",
            base.env.threads, cand.env.threads));
  }
  if (base.env.backend != cand.env.backend) {
    add(out, Sev::Note, key,
        "env differs: backend '" + base.env.backend + "' vs '" + cand.env.backend +
            "' (cost curves are backend-invariant; wall times not comparable 1:1)");
  }
  // Reuse counters are wall-time bookkeeping (a serving memo's are
  // scheduling-dependent), never gated — but a policy change explains
  // wall-time movement, so say so.
  if (base.cache.policy != cand.cache.policy) {
    add(out, Sev::Note, key,
        fmt("cache policy changed '%s' -> '%s' (wall times not comparable 1:1)",
            cache_policy_name(base.cache.policy), cache_policy_name(cand.cache.policy)));
  } else if (base.cache.hits != cand.cache.hits || base.cache.misses != cand.cache.misses ||
             base.cache.evictions != cand.cache.evictions) {
    add(out, Sev::Note, key,
        fmt("cache counters moved: hits %lld -> %lld, misses %lld -> %lld, "
            "evictions %lld -> %lld",
            static_cast<long long>(base.cache.hits), static_cast<long long>(cand.cache.hits),
            static_cast<long long>(base.cache.misses),
            static_cast<long long>(cand.cache.misses),
            static_cast<long long>(base.cache.evictions),
            static_cast<long long>(cand.cache.evictions)));
  }
  // Deterministic fields: curves matched by name, both directions.
  for (const ArtifactCurve& bc : base.curves) {
    const ArtifactCurve* cc = cand.find_curve(bc.name);
    if (cc == nullptr) {
      add(out, Sev::Hard, key, "curve '" + bc.name + "' disappeared");
      continue;
    }
    diff_curve(key, bc, *cc, opt, out);
  }
  for (const ArtifactCurve& cc : cand.curves) {
    if (base.find_curve(cc.name) == nullptr) {
      add(out, Sev::Note, key, "new curve '" + cc.name + "' (not in baseline)");
    }
  }
  // Wall gate on the artifact total.
  const double bw = base.total_wall_seconds;
  const double cw = cand.total_wall_seconds;
  if (bw > opt.wall_floor_seconds && cw > bw * (1.0 + opt.wall_tolerance)) {
    add(out, Sev::Wall, key,
        fmt("wall time regressed %.3fs -> %.3fs (%+.1f%%, tolerance %.0f%%)", bw, cw,
            (cw - bw) / bw * 100.0, opt.wall_tolerance * 100.0));
    attribute_wall(key, base, cand, out);
  } else if (bw > opt.wall_floor_seconds && cw < bw * (1.0 - opt.wall_tolerance)) {
    add(out, Sev::Note, key,
        fmt("wall time improved %.3fs -> %.3fs (%+.1f%%) — consider refreshing the baseline",
            bw, cw, (cw - bw) / bw * 100.0));
  }
}

DiffResult diff_artifact_sets(const std::vector<BenchArtifact>& base,
                              const std::vector<BenchArtifact>& cand,
                              const DiffOptions& opt) {
  using Sev = DiffFinding::Severity;
  DiffResult out;
  out.options = opt;
  for (const BenchArtifact& b : base) {
    const BenchArtifact* match = nullptr;
    for (const BenchArtifact& c : cand) {
      if (artifact_key(c) == artifact_key(b)) {
        match = &c;
        break;
      }
    }
    if (match == nullptr) {
      add(out, Sev::Hard, artifact_key(b), "baseline artifact missing from candidate set");
      continue;
    }
    diff_artifact(b, *match, opt, out);
  }
  for (const BenchArtifact& c : cand) {
    bool known = false;
    for (const BenchArtifact& b : base) known = known || artifact_key(b) == artifact_key(c);
    if (!known) {
      add(out, Sev::Note, artifact_key(c),
          "new artifact (not in baseline — commit it to start tracking)");
    }
  }
  return out;
}

std::string DiffResult::render() const {
  std::string out;
  int hard = 0, wall = 0;
  for (const DiffFinding& f : findings) {
    const char* tag = "note";
    if (f.severity == DiffFinding::Severity::Hard) {
      tag = "FAIL";
      ++hard;
    } else if (f.severity == DiffFinding::Severity::Wall) {
      tag = options.ignore_wall ? "wall" : "WALL";
      if (!options.ignore_wall) ++wall;
    }
    out += std::string(tag) + "  [" + f.artifact + "] " + f.what + "\n";
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %d hard regression(s), %d wall regression(s), %zu finding(s) total\n",
                ok() ? "OK" : "REGRESSION", hard, wall, findings.size());
  out += buf;
  return out;
}

}  // namespace volcal::perf
