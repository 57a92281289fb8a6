// volcal_gen — snapshot generator: build every registry family over a
// doubling n-sweep and write each instance as a versioned binary snapshot
// (io/snapshot.hpp) named <family>-t<target>-s<seed>.vsnap.
//
// The point is to decouple instance *generation* from instance *use*: large
// instances are generated once (possibly on a bigger machine or overnight)
// and volcal_bench / volcal_fuzz mmap-load them, which is what lets doubling
// sweeps extend decades past n = 2^20 without paying generator wall time or
// generator RAM per run.  File names embed the sweep target (not the
// realized n) so loaders can look up snapshots by the same doubling schedule
// they would have generated with.
//
// Usage: volcal_gen [--out-dir DIR] [--seed S] [--max-n N] [--min-n N]
//                   [--filter S] [--validate]
//   --out-dir DIR  destination directory (default ".", created if missing)
//   --seed S       generator seed (default 7, the bench default)
//   --max-n N      largest sweep target (default 4096)
//   --min-n N      smallest sweep target (default 256)
//   --filter S     only families whose name contains S
//   --validate     mmap-load each written snapshot back, save the loaded
//                  instance again and fail unless the two files are
//                  byte-identical (every section, labels included)
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "volcal/io.hpp"
#include "util/env.hpp"
#include "volcal/problems.hpp"

namespace volcal {
namespace {

// Loads `path` back and saves the loaded instance beside it; the two files
// must be byte-identical.  The writer serializes every section straight from
// memory, so this holds only if the loader reproduced the CSR, the IDs and
// every label column exactly.
bool validate_roundtrip(const ErasedInstance& inst, const std::string& path) {
  const std::string resaved = path + ".resave";
  std::string problem;
  try {
    const ErasedInstance loaded = io::load_instance(path);
    if (loaded.family() != inst.family() || loaded.node_count() != inst.node_count()) {
      problem = "family/size did not round-trip";
    } else {
      loaded.save_snapshot(resaved);
      const auto a = io::MappedFile::map(path);
      const auto b = io::MappedFile::map(resaved);
      if (a->size() != b->size() || std::memcmp(a->data(), b->data(), a->size()) != 0) {
        problem = "re-saving the loaded instance changed its bytes";
      }
    }
  } catch (const std::exception& e) {
    problem = std::string("validation failed: ") + e.what();
  }
  std::error_code ignored;
  std::filesystem::remove(resaved, ignored);  // also after a partial write
  if (!problem.empty()) {
    std::fprintf(stderr, "volcal_gen: %s: %s\n", path.c_str(), problem.c_str());
  }
  return problem.empty();
}

constexpr const char* kTool = "volcal_gen";
constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxN = std::numeric_limits<std::int32_t>::max();

int run(int argc, char** argv) {
  std::string out_dir = ".";
  std::string filter;
  std::uint64_t seed = 7;
  std::int64_t max_n = 4096;
  std::int64_t min_n = 256;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) { return env::flag_value(argc, argv, &i, name); };
    if (const char* v = value_of("--out-dir")) {
      out_dir = v;
    } else if (const char* v = value_of("--seed")) {
      seed = static_cast<std::uint64_t>(env::int_flag(kTool, "--seed", v, 0, kMaxSeed));
    } else if (const char* v = value_of("--max-n")) {
      max_n = env::int_flag(kTool, "--max-n", v, 1, kMaxN);
    } else if (const char* v = value_of("--min-n")) {
      min_n = env::int_flag(kTool, "--min-n", v, 1, kMaxN);
    } else if (const char* v = value_of("--filter")) {
      filter = v;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_gen — write registry instances as binary snapshots\n\n"
          "  --out-dir <d>  destination directory [.]\n"
          "  --seed <s>     generator seed, 0 to 2^63-1 [7]\n"
          "  --max-n <n>    largest sweep target, 1 to 2^31-1 [4096]\n"
          "  --min-n <n>    smallest sweep target, 1 to 2^31-1 [256]\n"
          "  --filter <s>   only families whose name contains <s>\n"
          "  --validate     mmap-load each snapshot back, re-save it, compare bytes\n");
      return 0;
    } else {
      std::fprintf(stderr, "volcal_gen: unknown argument '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (max_n < min_n) {
    std::fprintf(stderr, "volcal_gen: bad sweep range [%lld, %lld]\n",
                 static_cast<long long>(min_n), static_cast<long long>(max_n));
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "volcal_gen: cannot create --out-dir %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  const auto entries = ProblemRegistry::global().match(filter);
  if (entries.empty()) {
    std::fprintf(stderr, "volcal_gen: no registry entries match filter '%s'\n",
                 filter.c_str());
    return 2;
  }

  int written = 0;
  for (const RegistryEntry* entry : entries) {
    std::int64_t last_node_count = -1;
    for (std::int64_t target = min_n; target <= max_n; target *= 2) {
      const ErasedInstance inst = entry->make(static_cast<NodeIndex>(target), seed);
      const auto n = static_cast<std::int64_t>(inst.node_count());
      // Same dedup rule as the bench sweep: families map n_target onto their
      // natural size parameter, so successive small targets can collapse onto
      // one instance.  Skipped targets have no file; loaders fall back to
      // generating (and would skip the duplicate point anyway).
      if (n == last_node_count) continue;
      last_node_count = n;
      const std::string path = out_dir + "/" + entry->name + "-t" +
                               std::to_string(target) + "-s" + std::to_string(seed) +
                               ".vsnap";
      try {
        inst.save_snapshot(path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "volcal_gen: cannot write %s: %s\n", path.c_str(), e.what());
        return 1;
      }
      if (validate && !validate_roundtrip(inst, path)) return 1;
      std::printf("%s  n=%lld%s\n", path.c_str(), static_cast<long long>(n),
                  validate ? "  [validated]" : "");
      ++written;
    }
  }
  std::printf("volcal_gen: %d snapshot(s) written to %s\n", written, out_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace volcal

int main(int argc, char** argv) { return volcal::run(argc, argv); }
