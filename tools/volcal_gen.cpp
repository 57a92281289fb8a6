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
//   --validate     mmap-load each written snapshot back and fail unless the
//                  CSR/ID arrays are bit-identical to the in-RAM instance
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "volcal/io.hpp"
#include "volcal/problems.hpp"

namespace volcal {
namespace {

bool validate_roundtrip(const ErasedInstance& inst, const std::string& path) {
  ErasedInstance loaded = io::load_instance(path);
  if (loaded.family() != inst.family() || loaded.node_count() != inst.node_count()) {
    std::fprintf(stderr, "volcal_gen: %s: family/size did not round-trip\n", path.c_str());
    return false;
  }
  const GraphView a = inst.graph();
  const GraphView b = loaded.graph();
  const auto n = static_cast<std::size_t>(a.node_count());
  if (a.max_degree() != b.max_degree() || a.edge_count() != b.edge_count() ||
      std::memcmp(a.offsets_data(), b.offsets_data(), sizeof(std::size_t) * (n + 1)) != 0 ||
      (a.edge_count() > 0 &&
       std::memcmp(a.adjacency_data(), b.adjacency_data(),
                   sizeof(NodeIndex) * static_cast<std::size_t>(2 * a.edge_count())) != 0)) {
    std::fprintf(stderr, "volcal_gen: %s: CSR arrays are not bit-identical\n", path.c_str());
    return false;
  }
  for (NodeIndex v = 0; v < a.node_count(); ++v) {
    if (inst.ids().id_of(v) != loaded.ids().id_of(v)) {
      std::fprintf(stderr, "volcal_gen: %s: ID table diverged at node %lld\n", path.c_str(),
                   static_cast<long long>(v));
      return false;
    }
  }
  return true;
}

int run(int argc, char** argv) {
  std::string out_dir = ".";
  std::string filter;
  std::uint64_t seed = 7;
  std::int64_t max_n = 4096;
  std::int64_t min_n = 256;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value_of("--out-dir")) {
      out_dir = v;
    } else if (const char* v = value_of("--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--max-n")) {
      max_n = std::atoll(v);
    } else if (const char* v = value_of("--min-n")) {
      min_n = std::atoll(v);
    } else if (const char* v = value_of("--filter")) {
      filter = v;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_gen — write registry instances as binary snapshots\n\n"
          "  --out-dir <d>  destination directory [.]\n"
          "  --seed <s>     generator seed [7]\n"
          "  --max-n <n>    largest sweep target [4096]\n"
          "  --min-n <n>    smallest sweep target [256]\n"
          "  --filter <s>   only families whose name contains <s>\n"
          "  --validate     mmap-load each snapshot back and compare\n");
      return 0;
    } else {
      std::fprintf(stderr, "volcal_gen: unknown argument '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (min_n < 1 || max_n < min_n) {
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
