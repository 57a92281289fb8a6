// Unique node identifiers (paper Section 2.1): every node carries a unique ID
// from [n^alpha] for a fixed alpha >= 1.  IDs are the names algorithms see;
// NodeIndex is the internal array index and is never revealed by the query
// model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace volcal {

using NodeId = std::uint64_t;

class IdAssignment {
 public:
  IdAssignment() = default;

  // Takes ownership of `ids`; throws std::invalid_argument on a duplicate.
  // Duplicates are found with a bitmap over [0, max id] when max id <= 64 n,
  // else by sorting a copy.
  explicit IdAssignment(std::vector<NodeId> ids);

  // Borrow an externally owned ID array (e.g. an mmap-ed snapshot section).
  // Same lifetime contract as Graph::adopt: the storage must outlive the
  // assignment and every copy of it.  Nothing checks it for duplicates here.
  static IdAssignment adopt(const NodeId* ids, NodeIndex n) {
    IdAssignment a;
    a.data_ = ids;
    a.count_ = n;
    return a;
  }

  NodeId id_of(NodeIndex v) const { return data_[v]; }
  NodeIndex node_count() const { return count_; }

  // The full assignment as a borrowed span (owned array or adopted mapping);
  // what the snapshot writer serializes.
  std::span<const NodeId> span() const { return {data_, static_cast<std::size_t>(count_)}; }

  // True when the table is borrowed through adopt() rather than owned.
  bool adopted() const { return owned_ == nullptr && data_ != nullptr; }

  // Sequential IDs 1..n (the canonical assignment used in the paper's
  // lower-bound constructions, e.g. Prop. 3.12 where the root has ID 1).
  static IdAssignment sequential(NodeIndex n);

  // A pseudorandom permutation of 1..ceil(n^alpha) restricted to n values;
  // deterministic in `seed`.
  static IdAssignment shuffled(NodeIndex n, std::uint64_t seed, double alpha = 1.0);

 private:
  // An owned table is one immutable array that every copy shares (a graph
  // mutation never changes IDs, so generations of a mutated instance share
  // it too); an adopted table leaves `owned_` null.  Either way every read
  // goes through data_/count_.
  std::shared_ptr<const std::vector<NodeId>> owned_;
  const NodeId* data_ = nullptr;
  NodeIndex count_ = 0;
};

}  // namespace volcal
