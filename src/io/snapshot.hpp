// Versioned binary instance snapshots + the mmap-backed zero-copy loader.
//
// A snapshot is the on-disk form of one generated Instance: the CSR graph
// (offsets + port-symmetric adjacency), the ID table, and the family's label
// tables, laid out so the engine can execute against the file mapping with
// zero copies for the hot arrays.  volcal_gen writes them once per (family,
// size, seed); volcal_bench / volcal_fuzz load them instead of regenerating,
// which is what lets doubling sweeps leave RAM-resident generator territory
// (n >= 2^26).
//
// File layout (all fields little-endian; the writer and loader refuse to
// build on big-endian targets, see snapshot.cpp):
//
//   Header (104 bytes at offset 0)
//     0   char magic[8]        "VOLCSNP1"
//     8   u32  version         format schema, currently 3
//     12  u32  header_bytes    104 (offset of the section table)
//     16  char family[32]      registry key, NUL-padded ("leaf-coloring"...)
//     48  i64  node_count      n
//     56  u64  adjacency_count 2 * edge_count (== offsets[n])
//     64  i32  max_degree
//     68  u32  section_count
//     72  u64  payload_offset  first byte after the section table, 8-aligned
//     80  u64  payload_bytes   checksummed region [payload_offset, +bytes)
//     88  u64  checksum        XXH64 (seed 0) of the payload region
//     96  u64  reserved        0
//
//   Section table: section_count entries of 32 bytes
//     0   char tag[8]          NUL-padded ("offsets", "adj", "ids", ...)
//     8   u32  elem_bytes
//     12  u32  reserved        0
//     16  u64  count           element count
//     24  u64  offset          absolute file offset, 8-byte aligned
//
//   Payload: the section arrays, 8-byte aligned, zero padding between them
//   (padding is part of the checksummed region, so any flipped byte in the
//   payload fails verification).
//
// Sections by family (n-sized unless noted), each at the width its values
// are held to in memory:
//   always            offsets u32 x (n+1) | adj u32 x adjacency_count |
//                     ids u64
//   tree labelings    parent, left, right        u16 (port claims)
//   colored (+hthc)   color                      u8
//   balanced-tree     leftnbr, rightnbr          u16 (port claims)
//   hybrid            + color, levelin           u8 / i32
//   hh                + side                     u8
//
// Bounds: n <= kMaxNodes (2^31 - 1) and adjacency_count <= kMaxAdjacency
// (2^32 - 1), checked from the header before any section is read; a port
// claim is at most kMaxPortClaim (0x7fff), a color or side byte is 0 or 1,
// and a level claim is non-negative — the domains label updates are held to.
//
// Versioning: readers accept exactly the version they know; any layout
// change bumps `version`.  Version 2 changed the checksum from FNV-1a 64 to
// XXH64.  Version 3 narrowed the CSR sections from 64 to 32 bits and the
// port-claim sections from 32 to 16 bits.  Older files are refused by their
// version (regenerate them with volcal_gen).  Unknown section tags are
// ignored on load, so additive extensions may reuse version 3.
//
// Ownership / lifetime: Snapshot keeps the mapping alive via a shared
// handle.  GraphView / span accessors borrow the mapping; whoever adopts
// them into longer-lived objects (Graph::adopt, IdAssignment::adopt) must
// retain mapping() alongside — load_snapshot_instance (lcl/registry.hpp)
// parks it in the erased instance's keep-alive slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.hpp"
#include "labels/instances.hpp"

namespace volcal::io {

struct SnapshotError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr char kSnapshotMagic[8] = {'V', 'O', 'L', 'C', 'S', 'N', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 3;

// The header checksum (offset 88) of a payload region: what the writer
// records and Snapshot::load recomputes over the mapped payload.
std::uint64_t snapshot_checksum(std::span<const std::uint8_t> payload);

// Read-only mmap of a whole file (RAII).  Kept behind shared_ptr so views
// into the mapping can outlive the Snapshot that produced them.
class MappedFile {
 public:
  static std::shared_ptr<const MappedFile> map(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedFile() = default;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// A loaded, validated snapshot.  Cheap to move; accessors return borrowed
// views into the mapping (see the lifetime contract above).
class Snapshot {
 public:
  // Maps `path` and validates it: header (including the size caps), section
  // table, payload checksum, the CSR's structure (monotone offsets, degrees
  // within max_degree, adjacency entries in [0, n)) and the label domains.
  // Throws SnapshotError naming the first violation, so the CSR of a loaded
  // snapshot never indexes outside itself and no label leaves its domain.
  static Snapshot load(const std::string& path);

  const std::string& path() const { return path_; }
  const std::string& family() const { return family_; }
  NodeIndex node_count() const { return node_count_; }
  std::uint64_t adjacency_count() const { return adjacency_count_; }
  int max_degree() const { return max_degree_; }

  // The CSR graph, zero-copy over the mapping.
  GraphView graph() const;

  // The ID table, zero-copy over the mapping.
  std::span<const NodeId> ids() const;

  bool has_section(std::string_view tag) const { return find(tag) != nullptr; }

  // A label section as n elements of T (PortClaim, Color, std::uint8_t or
  // std::int32_t); throws SnapshotError when the tag is absent or its element
  // width is not sizeof(T).
  template <typename T>
  std::span<const T> column(std::string_view tag) const {
    const Section& s = require(tag, sizeof(T), static_cast<std::uint64_t>(node_count_));
    return {reinterpret_cast<const T*>(map_->data() + s.offset),
            static_cast<std::size_t>(s.count)};
  }

  // Keep-alive handle for adopted views (Graph::adopt / IdAssignment::adopt).
  std::shared_ptr<const void> mapping() const { return map_; }

 private:
  struct Section {
    std::string tag;
    std::uint32_t elem_bytes = 0;
    std::uint64_t count = 0;
    std::uint64_t offset = 0;
  };

  const Section* find(std::string_view tag) const;
  const Section& require(std::string_view tag, std::uint32_t elem_bytes,
                         std::uint64_t count) const;

  std::shared_ptr<const MappedFile> map_;
  std::string path_;
  std::string family_;
  NodeIndex node_count_ = 0;
  std::uint64_t adjacency_count_ = 0;
  int max_degree_ = 0;
  std::vector<Section> sections_;
};

// Writers — one per labeling shape; `family` is the registry key recorded in
// the header (what load_snapshot_instance rehydrates the solver from).
void write_snapshot(const std::string& path, std::string_view family,
                    const LeafColoringInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const BalancedTreeInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const HybridInstance& inst);
void write_snapshot(const std::string& path, std::string_view family,
                    const HHInstance& inst);

}  // namespace volcal::io
