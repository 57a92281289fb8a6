#include "labels/ids.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/hash.hpp"

namespace volcal {

IdAssignment::IdAssignment(std::vector<NodeId> ids) {
  std::unordered_set<NodeId> seen;
  seen.reserve(ids.size());
  for (NodeId id : ids) {
    if (!seen.insert(id).second) {
      throw std::invalid_argument("IdAssignment: duplicate node ID");
    }
  }
  owned_ = std::make_shared<const std::vector<NodeId>>(std::move(ids));
  data_ = owned_->data();
  count_ = static_cast<NodeIndex>(owned_->size());
}

IdAssignment IdAssignment::sequential(NodeIndex n) {
  std::vector<NodeId> ids(n);
  for (NodeIndex v = 0; v < n; ++v) ids[v] = static_cast<NodeId>(v) + 1;
  return IdAssignment(std::move(ids));
}

IdAssignment IdAssignment::shuffled(NodeIndex n, std::uint64_t seed, double alpha) {
  if (alpha < 1.0) throw std::invalid_argument("IdAssignment: alpha must be >= 1");
  const auto space = static_cast<NodeId>(std::llround(std::pow(static_cast<double>(n), alpha)));
  const NodeId limit = std::max<NodeId>(space, static_cast<NodeId>(n));
  // Rejection-sample distinct IDs from [1, limit]; deterministic in seed.
  std::vector<NodeId> ids;
  ids.reserve(n);
  std::unordered_set<NodeId> used;
  used.reserve(n);
  std::uint64_t counter = 0;
  while (ids.size() < static_cast<std::size_t>(n)) {
    NodeId candidate = 1 + mix64(seed, 0x1d5u, counter++) % limit;
    if (used.insert(candidate).second) ids.push_back(candidate);
  }
  return IdAssignment(std::move(ids));
}

}  // namespace volcal
