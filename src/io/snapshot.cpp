#include "io/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/hash.hpp"

namespace volcal::io {

// The format is little-endian by definition and the writer/loader below
// reinterpret in-memory arrays directly; refuse to build anywhere that would
// silently produce byte-swapped files.
static_assert(std::endian::native == std::endian::little,
              "volcal snapshots are little-endian; add byte-swapping before "
              "building this translation unit on a big-endian target");
static_assert(sizeof(CsrIndex) == 4, "CSR offsets and adjacency are serialized as u32");
static_assert(sizeof(PortClaim) == 2, "port-claim sections are serialized as u16");
static_assert(sizeof(NodeId) == 8, "ids are serialized as u64");
static_assert(sizeof(Color) == 1, "color sections are serialized as u8");
static_assert(sizeof(int) == 4, "levelin is serialized as i32");

namespace {

constexpr std::uint32_t kHeaderBytes = 104;
constexpr std::uint32_t kSectionEntryBytes = 32;
constexpr std::size_t kFamilyBytes = 32;
constexpr std::size_t kTagBytes = 8;

std::uint64_t align8(std::uint64_t x) { return (x + 7) & ~std::uint64_t{7}; }

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SnapshotError("snapshot " + path + ": " + what);
}

// --- writer -----------------------------------------------------------------

struct PendingSection {
  const char* tag;
  std::uint32_t elem_bytes;
  std::uint64_t count;
  const void* data;

  std::uint64_t byte_size() const { return count * elem_bytes; }
};

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

class FileWriter {
 public:
  FileWriter(std::FILE* f, const std::string& path) : f_(f), path_(path) {}

  void write(const void* data, std::size_t n) {
    if (n != 0 && std::fwrite(data, 1, n, f_) != n) {
      fail(path_, "write failed: " + std::string(std::strerror(errno)));
    }
  }

  void pad_to(std::uint64_t offset, std::uint64_t current) {
    static constexpr std::uint8_t zeros[8] = {};
    write(zeros, static_cast<std::size_t>(offset - current));
  }

 private:
  std::FILE* f_;
  const std::string& path_;
};

void write_snapshot_file(const std::string& path, std::string_view family,
                         GraphView g, std::span<const NodeId> ids,
                         const std::vector<PendingSection>& labels) {
  if (family.size() >= kFamilyBytes) fail(path, "family name too long: " + std::string(family));
  const auto n = static_cast<std::uint64_t>(g.node_count());
  const std::uint64_t adj_count = g.offsets_data()[n];

  std::vector<PendingSection> sections;
  sections.push_back({"offsets", 4, n + 1, g.offsets_data()});
  sections.push_back({"adj", 4, adj_count, g.adjacency_data()});
  sections.push_back({"ids", 8, n, ids.data()});
  for (const PendingSection& s : labels) sections.push_back(s);

  // Lay out the payload: sections in declaration order, each 8-aligned.
  const std::uint64_t payload_offset =
      align8(kHeaderBytes + sections.size() * kSectionEntryBytes);
  std::vector<std::uint64_t> offsets(sections.size());
  std::uint64_t cursor = payload_offset;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = align8(cursor);
    offsets[i] = cursor;
    cursor += sections[i].byte_size();
  }
  const std::uint64_t payload_bytes = cursor - payload_offset;

  // Checksum pass over the payload region exactly as it will land on disk
  // (inter-section zero padding included).
  Xxh64 hasher;
  {
    std::uint64_t pos = payload_offset;
    static constexpr std::uint8_t zeros[8] = {};
    for (std::size_t i = 0; i < sections.size(); ++i) {
      hasher.update({zeros, static_cast<std::size_t>(offsets[i] - pos)});
      hasher.update({static_cast<const std::uint8_t*>(sections[i].data),
                     static_cast<std::size_t>(sections[i].byte_size())});
      pos = offsets[i] + sections[i].byte_size();
    }
  }
  const std::uint64_t checksum = hasher.digest();

  std::uint8_t header[kHeaderBytes] = {};
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(header + 8, kSnapshotVersion);
  put_u32(header + 12, kHeaderBytes);
  std::memcpy(header + 16, family.data(), family.size());
  put_u64(header + 48, n);  // node_count is non-negative; bit pattern == i64
  put_u64(header + 56, adj_count);
  put_u32(header + 64, static_cast<std::uint32_t>(g.max_degree()));
  put_u32(header + 68, static_cast<std::uint32_t>(sections.size()));
  put_u64(header + 72, payload_offset);
  put_u64(header + 80, payload_bytes);
  put_u64(header + 88, checksum);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) fail(path, "cannot open for writing: " + std::string(std::strerror(errno)));
  FileWriter out(f, path);
  out.write(header, kHeaderBytes);
  std::uint64_t pos = kHeaderBytes;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::uint8_t entry[kSectionEntryBytes] = {};
    std::memcpy(entry, sections[i].tag,
                std::min(std::strlen(sections[i].tag), kTagBytes));
    put_u32(entry + 8, sections[i].elem_bytes);
    put_u64(entry + 16, sections[i].count);
    put_u64(entry + 24, offsets[i]);
    out.write(entry, kSectionEntryBytes);
    pos += kSectionEntryBytes;
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out.pad_to(offsets[i], pos);
    out.write(sections[i].data, static_cast<std::size_t>(sections[i].byte_size()));
    pos = offsets[i] + sections[i].byte_size();
  }
  if (std::fclose(f) != 0) fail(path, "close failed: " + std::string(std::strerror(errno)));
}

PendingSection port_section(const char* tag, const std::vector<PortClaim>& v) {
  return {tag, 2, v.size(), v.data()};
}

}  // namespace

std::uint64_t snapshot_checksum(std::span<const std::uint8_t> payload) {
  Xxh64 hasher;
  hasher.update(payload);
  return hasher.digest();
}

// --- MappedFile -------------------------------------------------------------

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open: " + std::string(std::strerror(errno)));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, "stat failed: " + std::string(std::strerror(err)));
  }
  // Distinct diagnostics for the distinct misuses: a directory opens fine on
  // Linux but cannot be mapped, a zero-size file maps to nothing (mmap would
  // return EINVAL), and a file larger than the address space cannot be mapped
  // whole.  Each used to surface as a generic mmap/size error.
  if (S_ISDIR(st.st_mode)) {
    ::close(fd);
    fail(path, "is a directory, not a snapshot file");
  }
  if (st.st_size == 0) {
    ::close(fd);
    fail(path, "empty file (zero bytes; not a snapshot)");
  }
  if (static_cast<std::uint64_t>(st.st_size) >
      std::numeric_limits<std::size_t>::max() / 2) {
    ::close(fd);
    fail(path, "file too large to map (" + std::to_string(st.st_size) + " bytes)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping holds its own reference
  if (addr == MAP_FAILED) fail(path, "mmap failed: " + std::string(std::strerror(err)));
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->data_ = static_cast<const std::uint8_t*>(addr);
  file->size_ = size;
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

// --- Snapshot ---------------------------------------------------------------

namespace {

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Fails the load at the first element of a label column outside [0, max],
// read as unsigned.  Every domain's max is 2^k - 1, so the column is in range
// exactly when the OR of its elements is at most max: one branch-free pass
// the compiler vectorizes, and a second pass only to name the culprit.
template <typename T>
void check_label_column(const std::string& path, std::string_view tag, std::span<const T> col,
                        std::make_unsigned_t<T> max, const char* domain) {
  using U = std::make_unsigned_t<T>;
  U bits = 0;
  for (const T x : col) bits |= static_cast<U>(x);
  if (bits <= max) return;
  for (std::size_t v = 0;; ++v) {
    if (static_cast<U>(col[v]) > max) {
      fail(path, "section " + std::string(tag) + " holds " + std::to_string(col[v]) +
                     " at node " + std::to_string(v) + ", outside " + domain);
    }
  }
}

// Label domains, the ones apply_label_update holds updates to.  A u16 can
// hold claims above kMaxPortClaim and a byte can hold colors outside the
// alphabet, which solvers would otherwise answer with.  Sections a family
// does not carry are absent and skipped; load_snapshot_instance requires the
// ones it reads.
void check_label_domains(const std::string& path, const Snapshot& snap) {
  for (const char* tag : {"parent", "left", "right", "leftnbr", "rightnbr"}) {
    if (!snap.has_section(tag)) continue;
    check_label_column<PortClaim>(path, tag, snap.column<PortClaim>(tag), kMaxPortClaim,
                                  "[0, 32767]");
  }
  for (const char* tag : {"color", "side"}) {
    if (!snap.has_section(tag)) continue;
    check_label_column<std::uint8_t>(path, tag, snap.column<std::uint8_t>(tag), 1, "{0, 1}");
  }
  if (snap.has_section("levelin")) {
    check_label_column<std::int32_t>(path, "levelin", snap.column<std::int32_t>("levelin"),
                                     std::numeric_limits<std::int32_t>::max(), "[0, 2^31)");
  }
}

}  // namespace

Snapshot Snapshot::load(const std::string& path) {
  Snapshot snap;
  snap.path_ = path;
  snap.map_ = MappedFile::map(path);
  const std::uint8_t* base = snap.map_->data();
  const std::uint64_t file_size = snap.map_->size();

  if (file_size < kHeaderBytes) fail(path, "truncated header");
  if (std::memcmp(base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    fail(path, "bad magic (not a volcal snapshot)");
  }
  const std::uint32_t version = get_u32(base + 8);
  if (version != kSnapshotVersion) {
    fail(path, "unsupported version " + std::to_string(version) + " (reader knows " +
                   std::to_string(kSnapshotVersion) + ")");
  }
  if (get_u32(base + 12) != kHeaderBytes) fail(path, "bad header size");

  const char* fam = reinterpret_cast<const char*>(base + 16);
  const std::size_t fam_len = ::strnlen(fam, kFamilyBytes);
  if (fam_len == 0 || fam_len == kFamilyBytes) fail(path, "bad family field");
  snap.family_.assign(fam, fam_len);

  const auto node_count = static_cast<std::int64_t>(get_u64(base + 48));
  if (node_count < 0) fail(path, "negative node count");
  snap.node_count_ = node_count;
  snap.adjacency_count_ = get_u64(base + 56);
  if (node_count > kMaxNodes) {
    fail(path, "node count " + std::to_string(node_count) + " exceeds the cap of " +
                   std::to_string(kMaxNodes));
  }
  if (snap.adjacency_count_ > kMaxAdjacency) {
    fail(path, "adjacency count " + std::to_string(snap.adjacency_count_) +
                   " exceeds the cap of " + std::to_string(kMaxAdjacency));
  }
  snap.max_degree_ = static_cast<int>(get_u32(base + 64));
  if (snap.max_degree_ < 0) fail(path, "negative max_degree");

  const std::uint32_t section_count = get_u32(base + 68);
  const std::uint64_t payload_offset = get_u64(base + 72);
  const std::uint64_t payload_bytes = get_u64(base + 80);
  const std::uint64_t checksum = get_u64(base + 88);
  const std::uint64_t table_end =
      kHeaderBytes + std::uint64_t{section_count} * kSectionEntryBytes;
  if (section_count == 0 || table_end > file_size) fail(path, "bad section table");
  if (payload_offset < table_end || payload_offset > file_size ||
      payload_bytes > file_size - payload_offset) {
    fail(path, "payload out of bounds (truncated file?)");
  }

  snap.sections_.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* e = base + kHeaderBytes + std::uint64_t{i} * kSectionEntryBytes;
    Section s;
    const char* tag = reinterpret_cast<const char*>(e);
    s.tag.assign(tag, ::strnlen(tag, kTagBytes));
    s.elem_bytes = get_u32(e + 8);
    s.count = get_u64(e + 16);
    s.offset = get_u64(e + 24);
    if (s.tag.empty() || s.elem_bytes == 0) fail(path, "bad section entry " + s.tag);
    if (s.offset % 8 != 0) fail(path, "misaligned section " + s.tag);
    const std::uint64_t bytes = s.count * s.elem_bytes;
    if (s.count != 0 && bytes / s.count != s.elem_bytes) fail(path, "section overflow");
    if (s.offset < payload_offset || s.offset > payload_offset + payload_bytes ||
        bytes > payload_offset + payload_bytes - s.offset) {
      fail(path, "section " + s.tag + " out of bounds (truncated file?)");
    }
    snap.sections_.push_back(std::move(s));
  }

  if (snapshot_checksum({base + payload_offset, static_cast<std::size_t>(payload_bytes)}) !=
      checksum) {
    fail(path, "checksum mismatch (corrupt payload)");
  }

  // Structural invariants of the CSR sections, O(n + m).  The checksum only
  // detects accidental corruption; a file written with a bad CSR passes it,
  // and the engine indexes `adj` by these offsets and node arrays by these
  // entries without further checks.  Port symmetry is not checked here.
  const auto n = static_cast<std::uint64_t>(snap.node_count_);
  const Section& offsets = snap.require("offsets", 4, n + 1);
  const Section& adjacency = snap.require("adj", 4, snap.adjacency_count_);
  snap.require("ids", 8, n);
  const auto* off = reinterpret_cast<const CsrIndex*>(base + offsets.offset);
  if (off[0] != 0 || off[n] != snap.adjacency_count_) {
    fail(path, "inconsistent CSR offsets");
  }
  const auto max_degree = static_cast<std::uint64_t>(snap.max_degree_);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (off[v + 1] < off[v]) {
      fail(path, "CSR offsets decrease at node " + std::to_string(v));
    }
    if (off[v + 1] - off[v] > max_degree) {
      fail(path, "node " + std::to_string(v) + " has degree " +
                     std::to_string(off[v + 1] - off[v]) + " above max_degree " +
                     std::to_string(max_degree));
    }
  }
  const auto* adj = reinterpret_cast<const CsrIndex*>(base + adjacency.offset);
  for (std::uint64_t i = 0; i < snap.adjacency_count_; ++i) {
    if (adj[i] >= n) {
      fail(path, "adjacency entry " + std::to_string(i) + " (" + std::to_string(adj[i]) +
                     ") outside [0, " + std::to_string(n) + ")");
    }
  }

  check_label_domains(path, snap);
  return snap;
}

const Snapshot::Section* Snapshot::find(std::string_view tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

const Snapshot::Section& Snapshot::require(std::string_view tag, std::uint32_t elem_bytes,
                                           std::uint64_t count) const {
  const Section* s = find(tag);
  if (s == nullptr) fail(path_, "missing section " + std::string(tag));
  if (s->elem_bytes != elem_bytes || s->count != count) {
    fail(path_, "section " + std::string(tag) + " has unexpected shape");
  }
  return *s;
}

GraphView Snapshot::graph() const {
  const auto n = static_cast<std::uint64_t>(node_count_);
  const Section& off = require("offsets", 4, n + 1);
  const Section& adj = require("adj", 4, adjacency_count_);
  return GraphView(reinterpret_cast<const CsrIndex*>(map_->data() + off.offset),
                   reinterpret_cast<const CsrIndex*>(map_->data() + adj.offset),
                   node_count_, max_degree_);
}

std::span<const NodeId> Snapshot::ids() const {
  const auto n = static_cast<std::uint64_t>(node_count_);
  const Section& s = require("ids", 8, n);
  return {reinterpret_cast<const NodeId*>(map_->data() + s.offset),
          static_cast<std::size_t>(n)};
}

// --- typed writers ----------------------------------------------------------

namespace {

std::vector<PendingSection> tree_sections(const TreeLabeling& t) {
  return {port_section("parent", t.parent), port_section("left", t.left),
          port_section("right", t.right)};
}

PendingSection color_section(const std::vector<Color>& c) {
  return {"color", 1, c.size(), c.data()};
}

}  // namespace

void write_snapshot(const std::string& path, std::string_view family,
                    const LeafColoringInstance& inst) {
  auto sections = tree_sections(inst.labels.tree);
  sections.push_back(color_section(inst.labels.color));
  write_snapshot_file(path, family, inst.graph, inst.ids.span(), sections);
}

void write_snapshot(const std::string& path, std::string_view family,
                    const BalancedTreeInstance& inst) {
  auto sections = tree_sections(inst.labels.tree);
  sections.push_back(port_section("leftnbr", inst.labels.left_nbr));
  sections.push_back(port_section("rightnbr", inst.labels.right_nbr));
  write_snapshot_file(path, family, inst.graph, inst.ids.span(), sections);
}

void write_snapshot(const std::string& path, std::string_view family,
                    const HybridInstance& inst) {
  auto sections = tree_sections(inst.labels.bal.tree);
  sections.push_back(port_section("leftnbr", inst.labels.bal.left_nbr));
  sections.push_back(port_section("rightnbr", inst.labels.bal.right_nbr));
  sections.push_back(color_section(inst.labels.color));
  sections.push_back({"levelin", 4, inst.labels.level_in.size(), inst.labels.level_in.data()});
  write_snapshot_file(path, family, inst.graph, inst.ids.span(), sections);
}

void write_snapshot(const std::string& path, std::string_view family,
                    const HHInstance& inst) {
  const HybridLabeling& h = inst.labels.hybrid;
  auto sections = tree_sections(h.bal.tree);
  sections.push_back(port_section("leftnbr", h.bal.left_nbr));
  sections.push_back(port_section("rightnbr", h.bal.right_nbr));
  sections.push_back(color_section(h.color));
  sections.push_back({"levelin", 4, h.level_in.size(), h.level_in.data()});
  sections.push_back({"side", 1, inst.labels.side.size(), inst.labels.side.data()});
  write_snapshot_file(path, family, inst.graph, inst.ids.span(), sections);
}

}  // namespace volcal::io
