// Snapshot format + zero-copy GraphView pins (io/snapshot.hpp, volcal/io.hpp).
//
// The contract under test: an instance written as a binary snapshot and
// mmap-loaded back is *the same instance* as far as the engine can tell —
// bit-identical outputs and model costs for every registry family, on both
// execution backends, at any thread count.  Plus the format pins that make
// snapshots durable artifacts: corruption is rejected with a pinpointed
// error, the header layout is little-endian at fixed offsets, sections
// stay 8-byte aligned so the mmap'd arrays are directly addressable, and the
// payload checksum is XXH64 as published.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "labels/generators.hpp"
#include "util/hash.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("volcal-snapshot-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os) << path;
}

void expect_load_error(const std::string& path, const std::string& needle) {
  try {
    (void)io::Snapshot::load(path);
    FAIL() << path << ": expected SnapshotError containing '" << needle << "'";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);
  return v;  // the test target is pinned little-endian by snapshot.cpp
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

// File offset of the section tagged `tag` (section table: 32-byte entries
// after the 104-byte header; section count u32 at 68, entry offset u64 at +24).
std::size_t section_offset(const std::vector<std::uint8_t>& b, const std::string& tag) {
  const std::uint32_t count = b[68] | (std::uint32_t{b[69]} << 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t e = 104 + 32 * static_cast<std::size_t>(i);
    const char* name = reinterpret_cast<const char*>(b.data() + e);
    if (tag == std::string(name, ::strnlen(name, 8))) return u64_at(b, e + 24);
  }
  ADD_FAILURE() << "no section " << tag;
  return 0;
}

// Rewrites the header checksum (u64 at 88) over the payload region.
void recompute_checksum(std::vector<std::uint8_t>& b) {
  const std::uint64_t payload_offset = u64_at(b, 72);
  const std::uint64_t payload_bytes = u64_at(b, 80);
  const std::uint64_t h = io::snapshot_checksum(
      std::span<const std::uint8_t>(b).subspan(payload_offset, payload_bytes));
  std::memcpy(b.data() + 88, &h, 8);
}

// --- the tentpole contract: write -> mmap -> execute, bit-identical ---------

TEST_F(SnapshotTest, EveryFamilyRoundTripsBitIdenticallyOnBothBackends) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    const ErasedInstance inst = entry.make(300, 7);
    const std::string file = path(entry.name + ".vsnap");
    inst.save_snapshot(file);
    const ErasedInstance loaded = io::load_instance(file);

    ASSERT_EQ(loaded.family(), entry.name);
    const NodeIndex n = inst.node_count();
    ASSERT_EQ(loaded.node_count(), n);

    // The loaded CSR is a different allocation (in fact a file mapping)
    // with identical bytes.
    const GraphView a = inst.graph();
    const GraphView b = loaded.graph();
    EXPECT_NE(a.offsets_data(), b.offsets_data());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    ASSERT_EQ(a.max_degree(), b.max_degree());
    EXPECT_TRUE(std::equal(a.offsets_data(), a.offsets_data() + n + 1, b.offsets_data()));
    EXPECT_TRUE(std::equal(a.adjacency_data(), a.adjacency_data() + 2 * a.edge_count(),
                           b.adjacency_data()));

    // Whole-graph sweeps: Basic and the family's planned backend, serial and
    // 8-thread, all bit-identical between the in-RAM and mmap instances.
    auto solve_a = [&](auto& exec) { return inst.solve(exec); };
    auto solve_b = [&](auto& exec) { return loaded.solve(exec); };
    const auto base = run_at_all_nodes(a, inst.ids(), solve_a);
    for (const int threads : {1, 8}) {
      for (const ExecBackend backend : {ExecBackend::Basic, ExecBackend::Batched}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, backend " +
                     std::to_string(static_cast<int>(backend)));
        std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
        for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
        ParallelRunner runner(threads);
        runner.set_backend(backend);
        const auto run = runner.run_planned(b, loaded.ids(), starts, entry.plan, solve_b);
        EXPECT_EQ(base.output, run.output);
        EXPECT_EQ(base.volume, run.volume);
        EXPECT_EQ(base.distance, run.distance);
        EXPECT_EQ(base.queries, run.queries);
      }
    }

    // And the loaded instance's outputs satisfy its own verifier.
    const VerifyResult verdict = loaded.verify(base.output);
    EXPECT_TRUE(verdict.ok) << verdict.violations << " violations";
  }
}

// --- corruption rejection ----------------------------------------------------

TEST_F(SnapshotTest, RejectsCorruptHeadersAndPayloads) {
  const ErasedInstance inst = ProblemRegistry::global().find("leaf-coloring")->make(64, 3);
  const std::string file = path("victim.vsnap");
  inst.save_snapshot(file);
  const std::vector<std::uint8_t> good = read_file(file);
  ASSERT_GT(good.size(), 104u);

  {  // not even a full header
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + 40);
    write_file(file, bad);
    expect_load_error(file, "truncated header");
  }
  {  // wrong magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0x20;
    write_file(file, bad);
    expect_load_error(file, "bad magic");
  }
  {  // unknown version
    std::vector<std::uint8_t> bad = good;
    bad[8] = 99;
    write_file(file, bad);
    expect_load_error(file, "unsupported version");
  }
  {  // a version-2 header (64-bit CSR, 32-bit port claims) is refused by its version
    std::vector<std::uint8_t> bad = good;
    bad[8] = 2;
    write_file(file, bad);
    expect_load_error(file, "unsupported version 2 (reader knows 3)");
  }
  // The size caps are read from the header, before any section is touched,
  // so a header-only edit is enough to test them (nothing that large is
  // ever allocated).
  {  // node_count past kMaxNodes
    std::vector<std::uint8_t> bad = good;
    const std::uint64_t n = std::uint64_t{1} << 31;
    std::memcpy(bad.data() + 48, &n, 8);
    write_file(file, bad);
    expect_load_error(file, "node count 2147483648 exceeds the cap of 2147483647");
  }
  {  // adjacency_count past kMaxAdjacency
    std::vector<std::uint8_t> bad = good;
    const std::uint64_t m = std::uint64_t{1} << 32;
    std::memcpy(bad.data() + 56, &m, 8);
    write_file(file, bad);
    expect_load_error(file, "adjacency count 4294967296 exceeds the cap of 4294967295");
  }
  {  // truncated payload
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + good.size() / 2);
    write_file(file, bad);
    expect_load_error(file, "out of bounds");
  }
  {  // one flipped bit (bit i mod 8) in each payload byte i, one file per byte
    const std::uint64_t begin = u64_at(good, 72);
    const std::uint64_t end = begin + u64_at(good, 80);
    ASSERT_EQ(end, good.size());
    for (std::uint64_t i = begin; i < end && !HasFailure(); ++i) {
      SCOPED_TRACE("payload byte " + std::to_string(i));
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      write_file(file, bad);
      expect_load_error(file, "checksum mismatch");
    }
  }
  // A re-checksummed payload with a broken CSR passes the checksum; the
  // structural pass must reject it before the engine indexes through it.
  {  // adjacency entry outside [0, n): the largest a u32 entry can hold
    std::vector<std::uint8_t> bad = good;
    const std::uint32_t far = 0xffffffffu;
    std::memcpy(bad.data() + section_offset(bad, "adj"), &far, 4);
    recompute_checksum(bad);
    write_file(file, bad);
    expect_load_error(file, "adjacency entry 0 (4294967295) outside [0, 63)");
  }
  {  // offsets[2] < offsets[1]
    std::vector<std::uint8_t> bad = good;
    const std::size_t off = section_offset(bad, "offsets");
    const std::uint32_t lowered = u32_at(bad, off + 4) - 1;
    std::memcpy(bad.data() + off + 8, &lowered, 4);
    recompute_checksum(bad);
    write_file(file, bad);
    expect_load_error(file, "CSR offsets decrease at node 1");
  }
  // Label domains: values a u16 or a byte can hold but no label takes.
  // Without these checks each file loads, and a solver answers with them.
  {  // a port claim above 0x7fff
    std::vector<std::uint8_t> bad = good;
    const std::uint16_t claim = 0x8000;
    std::memcpy(bad.data() + section_offset(bad, "left") + 2 * 5, &claim, 2);
    recompute_checksum(bad);
    write_file(file, bad);
    expect_load_error(file, "section left holds 32768 at node 5, outside [0, 32767]");
  }
  {  // a color byte outside {0, 1}, at a leaf (node 62)
    std::vector<std::uint8_t> bad = good;
    bad[section_offset(bad, "color") + 62] = 2;
    recompute_checksum(bad);
    write_file(file, bad);
    expect_load_error(file, "section color holds 2 at node 62, outside {0, 1}");
  }
  {  // header max_degree below the largest degree
    std::vector<std::uint8_t> bad = good;
    bad[64] -= 1;
    write_file(file, bad);
    expect_load_error(file, "above max_degree");
  }
  {  // header max_degree with the sign bit set
    std::vector<std::uint8_t> bad = good;
    bad[67] = 0x80;
    write_file(file, bad);
    expect_load_error(file, "negative max_degree");
  }
  {  // intact bytes still load (the victim file was not the problem)
    write_file(file, good);
    EXPECT_NO_THROW((void)io::Snapshot::load(file));
  }

  // hh-2-3 carries the side and levelin sections.
  const std::string hh_file = path("hh.vsnap");
  ProblemRegistry::global().find("hh-2-3")->make(64, 3).save_snapshot(hh_file);
  const std::vector<std::uint8_t> hh = read_file(hh_file);
  {  // a side byte outside {0, 1}
    std::vector<std::uint8_t> bad = hh;
    bad[section_offset(bad, "side") + 7] = 0xff;
    recompute_checksum(bad);
    write_file(hh_file, bad);
    expect_load_error(hh_file, "section side holds 255 at node 7, outside {0, 1}");
  }
  {  // a negative level claim
    std::vector<std::uint8_t> bad = hh;
    const std::int32_t level = -1;
    std::memcpy(bad.data() + section_offset(bad, "levelin") + 4 * 9, &level, 4);
    recompute_checksum(bad);
    write_file(hh_file, bad);
    expect_load_error(hh_file, "section levelin holds -1 at node 9, outside [0, 2^31)");
  }
  {
    write_file(hh_file, hh);
    EXPECT_NO_THROW((void)io::Snapshot::load(hh_file));
  }
}

// MappedFile::map must say *what kind* of wrong target it was handed — a
// directory, an empty file, and a sub-header file each get their own
// diagnostic instead of a generic mmap/size error.
TEST_F(SnapshotTest, MappedFileEdgeDiagnostics) {
  {  // directory target (opens fine on Linux; used to die inside mmap)
    expect_load_error(dir_.string(), "is a directory");
  }
  {  // zero-size file
    const std::string file = path("empty.vsnap");
    write_file(file, {});
    expect_load_error(file, "empty file");
  }
  {  // nonexistent path
    expect_load_error(path("does-not-exist.vsnap"), "cannot open");
  }
  {  // present but smaller than the 104-byte header
    const std::string file = path("stub.vsnap");
    write_file(file, std::vector<std::uint8_t>(16, 0x56));
    expect_load_error(file, "truncated header");
  }
}

// --- mutating a loaded instance ----------------------------------------------

// A loaded instance's ID table is adopted from the mapping.  Its first
// mutated generation owns a copy and the second shares that copy; neither
// needs the loaded instance, its mapping or the file to stay alive.
TEST_F(SnapshotTest, FirstMutationCopiesAdoptedIdsAndLaterGenerationsShareThem) {
  const ErasedInstance inst = ProblemRegistry::global().find("ball-4")->make(300, 7);
  const std::string file = path("ids.vsnap");
  inst.save_snapshot(file);
  const auto ids = inst.ids().span();
  const std::vector<NodeId> expect(ids.begin(), ids.end());
  std::optional<ErasedInstance> second;
  {
    const ErasedInstance loaded = io::load_instance(file);
    ASSERT_TRUE(loaded.ids().adopted());
    const ErasedInstance first = loaded.mutated(loaded.propose_mutation(1, 2, 2));
    EXPECT_FALSE(first.ids().adopted());
    EXPECT_NE(first.ids().span().data(), loaded.ids().span().data());
    second.emplace(first.mutated(first.propose_mutation(2, 2, 2)));
    EXPECT_EQ(second->ids().span().data(), first.ids().span().data());
  }
  fs::remove(file);
  const auto got = second->ids().span();
  EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), expect);
}

// Loading does not check IDs for duplicates.  A snapshot whose ID section
// repeats an ID (checksum recomputed, so it passes every load-time check) is
// refused at its first mutation, where the adopted table is copied through
// IdAssignment's validating constructor.
TEST_F(SnapshotTest, DuplicateIdsFailTheFirstMutationOfALoadedInstance) {
  const ErasedInstance inst = ProblemRegistry::global().find("leaf-coloring")->make(64, 3);
  const std::string file = path("dup.vsnap");
  inst.save_snapshot(file);
  std::vector<std::uint8_t> b = read_file(file);
  const std::size_t ids = section_offset(b, "ids");
  std::memcpy(b.data() + ids + 8, b.data() + ids, 8);  // ids[1] = ids[0]
  recompute_checksum(b);
  write_file(file, b);

  const ErasedInstance loaded = io::load_instance(file);
  ASSERT_EQ(loaded.ids().id_of(1), loaded.ids().id_of(0));
  EXPECT_THROW((void)loaded.mutated(loaded.propose_mutation(1, 2, 2)), std::invalid_argument);
}

// --- byte-layout pins --------------------------------------------------------

TEST_F(SnapshotTest, HeaderLayoutIsLittleEndianAtFixedOffsets) {
  // depth-2 complete binary tree: n = 7, 6 edges, max degree 3.
  const LeafColoringInstance inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  const std::string file = path("layout.vsnap");
  io::write_snapshot(file, "leaf-coloring", inst);
  const std::vector<std::uint8_t> b = read_file(file);
  ASSERT_GE(b.size(), 104u);

  EXPECT_EQ(std::memcmp(b.data(), "VOLCSNP1", 8), 0);
  // version u32 little-endian at offset 8: 03 00 00 00.
  EXPECT_EQ(b[8], 3u);
  EXPECT_EQ(b[9], 0u);
  EXPECT_EQ(b[10], 0u);
  EXPECT_EQ(b[11], 0u);
  // header_bytes u32 at 12.
  EXPECT_EQ(b[12], 104u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(b.data() + 16)), "leaf-coloring");
  EXPECT_EQ(u64_at(b, 48), 7u);   // node_count
  EXPECT_EQ(u64_at(b, 56), 12u);  // adjacency_count = 2 * edges
  EXPECT_EQ(b[64], 3u);           // max_degree (low byte)
  const std::uint64_t payload_offset = u64_at(b, 72);
  const std::uint64_t payload_bytes = u64_at(b, 80);
  EXPECT_EQ(payload_offset % 8, 0u);
  EXPECT_EQ(payload_offset + payload_bytes, b.size());

  // Section table: every section 8-aligned inside the payload, and every
  // section carries its pinned element width.
  const std::uint32_t section_count = b[68] | (std::uint32_t{b[69]} << 8);
  ASSERT_EQ(section_count, 7u);
  bool saw_offsets = false, saw_adj = false, saw_ids = false;
  int port_claims = 0, colors = 0;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t e = 104 + 32 * static_cast<std::size_t>(i);
    const std::string tag(reinterpret_cast<const char*>(b.data() + e));
    std::uint32_t elem_bytes = 0;
    std::memcpy(&elem_bytes, b.data() + e + 8, 4);
    const std::uint64_t count = u64_at(b, e + 16);
    const std::uint64_t offset = u64_at(b, e + 24);
    EXPECT_EQ(offset % 8, 0u) << tag;
    EXPECT_GE(offset, payload_offset) << tag;
    EXPECT_LE(offset + elem_bytes * count, b.size()) << tag;
    if (tag == "offsets") {
      saw_offsets = true;
      EXPECT_EQ(elem_bytes, 4u);
      EXPECT_EQ(count, 8u);  // n + 1
      // offsets[0] == 0 in payload bytes, little-endian.
      EXPECT_EQ(u32_at(b, offset), 0u);
      EXPECT_EQ(u32_at(b, offset + 7 * 4), 12u);  // offsets[n] == adjacency_count
    } else if (tag == "adj") {
      saw_adj = true;
      EXPECT_EQ(elem_bytes, 4u);
      EXPECT_EQ(count, 12u);
      EXPECT_EQ(u32_at(b, offset), 1u);  // the root's port-1 neighbor
    } else if (tag == "ids") {
      saw_ids = true;
      EXPECT_EQ(elem_bytes, 8u);
      EXPECT_EQ(count, 7u);
    } else if (tag == "parent" || tag == "left" || tag == "right") {
      ++port_claims;
      EXPECT_EQ(elem_bytes, 2u) << tag;
      EXPECT_EQ(count, 7u) << tag;
    } else if (tag == "color") {
      ++colors;
      EXPECT_EQ(elem_bytes, 1u);
      EXPECT_EQ(count, 7u);
    }
  }
  EXPECT_TRUE(saw_offsets);
  EXPECT_TRUE(saw_adj);
  EXPECT_TRUE(saw_ids);
  EXPECT_EQ(port_claims, 3);
  EXPECT_EQ(colors, 1);
}

// --- the payload checksum ----------------------------------------------------

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// The checksum is XXH64 at seed 0, pinned to the algorithm's published test
// vectors, so files stay readable by any correct XXH64.
TEST(SnapshotChecksum, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(io::snapshot_checksum(bytes_of("")), 0xef46db3751d8e999ull);
  EXPECT_EQ(io::snapshot_checksum(bytes_of("a")), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(io::snapshot_checksum(bytes_of("abc")), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(io::snapshot_checksum(bytes_of("Nobody inspects the spammish repetition")),
            0xfbcea83c8a378bf1ull);
}

// The writer feeds the hasher section by section and the loader hashes the
// mapped payload in one call, so any split must give the one-shot digest.
// Every two-piece split of every length 0..128 crosses the 32-byte stripe
// buffer and the 8-, 4- and 1-byte tails.
TEST(SnapshotChecksum, StreamingInTwoPiecesEqualsOneShot) {
  std::vector<std::uint8_t> data(128);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(splitmix64(i));
  }
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> all(data.data(), len);
    const std::uint64_t one_shot = io::snapshot_checksum(all);
    for (std::size_t split = 0; split <= len; ++split) {
      Xxh64 h;
      h.update(all.first(split));
      h.update(all.subspan(split));
      ASSERT_EQ(h.digest(), one_shot) << "length " << len << ", split at " << split;
    }
  }
}

// --- Graph::adopt / GraphView semantics --------------------------------------

TEST(GraphViewAdopt, AdoptedGraphDelegatesAndThrowsIdentically) {
  const LeafColoringInstance inst = make_complete_binary_tree(3, Color::Red, Color::Blue);
  const Graph& owned = inst.graph;
  const GraphView view = owned;  // implicit conversion
  const Graph adopted = Graph::adopt(view);

  ASSERT_EQ(adopted.node_count(), owned.node_count());
  EXPECT_EQ(adopted.edge_count(), owned.edge_count());
  EXPECT_EQ(adopted.max_degree(), owned.max_degree());
  for (NodeIndex v = 0; v < owned.node_count(); ++v) {
    ASSERT_EQ(adopted.degree(v), owned.degree(v));
    for (Port p = 1; p <= owned.degree(v); ++p) {
      EXPECT_EQ(adopted.neighbor(v, p), owned.neighbor(v, p));
    }
  }
  // An adopted Graph's view borrows the *original* storage: copying the
  // Graph must not re-point it (the adopt contract is pointer-stable).
  EXPECT_EQ(adopted.view().offsets_data(), view.offsets_data());
  EXPECT_EQ(adopted.view().adjacency_data(), view.adjacency_data());
  const Graph copy = adopted;
  EXPECT_EQ(copy.view().offsets_data(), view.offsets_data());
  EXPECT_EQ(copy.view().adjacency_data(), view.adjacency_data());

  // Error wording is shared via the one CSR port-check helper, so engine
  // diagnostics are identical no matter which facade raised them.
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::out_of_range& e) {
      return e.what();
    }
    return "(did not throw)";
  };
  const std::string from_graph = message_of([&] { (void)owned.neighbor(0, 99); });
  const std::string from_view = message_of([&] { (void)view.neighbor(0, 99); });
  const std::string from_adopted = message_of([&] { (void)adopted.neighbor(0, 99); });
  EXPECT_NE(from_graph, "(did not throw)");
  EXPECT_EQ(from_graph, from_view);
  EXPECT_EQ(from_graph, from_adopted);
  EXPECT_EQ(message_of([&] { (void)view.neighbor(-1, 1); }),
            message_of([&] { (void)owned.neighbor(-1, 1); }));
}

// --- io::load_instance: the one entry point for instance files -------------

TEST_F(SnapshotTest, LoadInstanceRejectsJunkAndMissingFiles) {
  const std::string junk = path("junk.bin");
  write_file(junk, {0xde, 0xad, 0xbe, 0xef});
  EXPECT_THROW((void)io::load_instance(junk), io::SnapshotError);
  EXPECT_THROW((void)io::load_instance(path("missing.vsnap")), io::SnapshotError);
}

TEST_F(SnapshotTest, EraseInstanceRejectsUnknownFamilies) {
  LeafColoringInstance inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  EXPECT_THROW((void)erase_instance("no-such-family", std::move(inst)),
               std::invalid_argument);
}

}  // namespace
}  // namespace volcal
