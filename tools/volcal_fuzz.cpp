// volcal_fuzz — seeded differential fuzzing and invariant checking across
// the whole problem registry (src/check/).
//
//   volcal_fuzz --seed 1 --iters 500              # the CI smoke invocation
//   volcal_fuzz --family hthc --iters 50          # one family, quick
//   volcal_fuzz --seed 7 --out-dir repros         # write minimized failures
//   volcal_fuzz --replay tests/corpus/x.repro     # re-run a reproducer
//
// Every case, and every replayed reproducer, runs the full predicate
// (check::check_all): the base invariants plus the backend, snapshot and
// mutation differentials.
//
// Exit status: 0 when every case (or replayed reproducer) passes, 1 on any
// failure, 2 on usage errors.  Failures are minimized before reporting; with
// --out-dir each minimized case is also written as a .repro file that
// tests/fuzz_regression_test.cpp can replay once committed to the corpus.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/fuzz.hpp"
#include "check/repro.hpp"

namespace {

void print_help() {
  std::printf(
      "volcal_fuzz — differential fuzzing & invariant checking harness\n\n"
      "  --seed <s>      base seed; a run is a pure function of (seed, iters) [1]\n"
      "  --iters <k>     cases to generate, round-robin over the registry [200]\n"
      "  --family <sub>  restrict to registry families whose name contains <sub>\n"
      "  --max-n <n>     upper bound for generated instance sizes [600]\n"
      "  --out-dir <d>   write minimized reproducers (*.repro) into <d>, creating it\n"
      "  --replay <f>    replay one reproducer file instead of fuzzing\n"
      "  --log           print every generated case\n"
      "  --help          this message\n");
}

int replay_file(const std::string& path) {
  volcal::check::FuzzCase c;
  std::string recorded_error;
  std::string why;
  if (!volcal::check::load_repro_file(path, &c, &recorded_error, &why)) {
    std::fprintf(stderr, "volcal_fuzz: cannot replay %s: %s\n", path.c_str(), why.c_str());
    return 2;
  }
  std::printf("replaying %s\n  %s\n", path.c_str(), volcal::check::describe(c).c_str());
  if (!recorded_error.empty()) {
    std::printf("  originally failed with: %s\n", recorded_error.c_str());
  }
  const volcal::check::CheckResult result = volcal::check::check_all(c);
  if (!result.ok) {
    std::printf("  STILL FAILING: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("  ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  volcal::check::FuzzOptions opts;
  std::vector<std::string> replays;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--seed")) != nullptr) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = value("--iters")) != nullptr) {
      opts.iters = std::atoi(v);
    } else if ((v = value("--family")) != nullptr) {
      opts.family_filter = v;
    } else if ((v = value("--max-n")) != nullptr) {
      opts.max_n = static_cast<volcal::NodeIndex>(std::atoll(v));
    } else if ((v = value("--out-dir")) != nullptr) {
      opts.out_dir = v;
    } else if ((v = value("--replay")) != nullptr) {
      replays.push_back(v);
    } else if (std::strcmp(argv[i], "--log") == 0) {
      opts.log_cases = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_help();
      return 0;
    } else {
      std::fprintf(stderr, "volcal_fuzz: unknown argument %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "volcal_fuzz: cannot create --out-dir %s: %s\n",
                   opts.out_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  if (!replays.empty()) {
    int status = 0;
    for (const std::string& path : replays) {
      status = std::max(status, replay_file(path));
    }
    return status;
  }

  const volcal::check::FuzzReport report = volcal::check::run_fuzz(opts);
  if (report.ok()) {
    std::printf("volcal_fuzz: %d cases ok (seed %llu)\n", report.iters_run,
                static_cast<unsigned long long>(opts.seed));
    return 0;
  }
  std::printf("volcal_fuzz: %zu failure(s) in %d cases (seed %llu)\n",
              report.failures.size(), report.iters_run,
              static_cast<unsigned long long>(opts.seed));
  for (const auto& f : report.failures) {
    std::printf("  %s\n    %s\n", f.error.c_str(),
                volcal::check::describe(f.minimized).c_str());
    if (!f.repro_path.empty()) std::printf("    reproducer: %s\n", f.repro_path.c_str());
  }
  return 1;
}
