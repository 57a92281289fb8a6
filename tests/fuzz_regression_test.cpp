// Replays the committed reproducer corpus (tests/corpus/*.repro) through the
// full invariant checker.  Every file in the corpus was once a minimized
// fuzz failure (or pins a scenario class the fuzzer relies on); each must
// now pass check_all, and must keep passing at any thread count — the
// corpus is the harness's memory of the bugs it has caught.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/repro.hpp"

#ifndef VOLCAL_CORPUS_DIR
#error "build must define VOLCAL_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace volcal::check {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(VOLCAL_CORPUS_DIR)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, HasTheCommittedReproducers) {
  // The corpus ships with at least the three satellite-bug reproducers plus
  // per-family scenario pins; an empty directory means the build is pointing
  // at the wrong place, which would turn the replay test into a silent no-op.
  EXPECT_GE(corpus_files().size(), 12u);
}

TEST(FuzzCorpus, EveryReproducerParsesAndPasses) {
  for (const auto& path : corpus_files()) {
    FuzzCase c;
    std::string recorded_error;
    std::string why;
    ASSERT_TRUE(load_repro_file(path.string(), &c, &recorded_error, &why))
        << path << ": " << why;
    ASSERT_FALSE(c.family.empty()) << path;
    // The same predicate volcal_fuzz runs on every case and every replay.
    const CheckResult result = check_all(c);
    EXPECT_TRUE(result.ok) << path << "\n  case: " << describe(c)
                           << "\n  originally: " << recorded_error
                           << "\n  now: " << result.error;
  }
}

TEST(FuzzCorpus, CoversTheSatelliteBugs) {
  // The three bugs this harness was built around must stay pinned by name.
  std::vector<std::string> names;
  for (const auto& path : corpus_files()) names.push_back(path.filename().string());
  for (const char* expected : {"sampled-starts-count1.repro", "tape-word-bit-aliasing.repro",
                               "stats-median-even-count.repro",
                               "stats-p95-nearest-rank.repro",
                               "batched-ball-exhausted-component.repro",
                               "batched-shared-cache-batch-boundary.repro"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "corpus lost " << expected;
  }
}

}  // namespace
}  // namespace volcal::check
