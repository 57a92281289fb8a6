#include "labels/ids.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/hash.hpp"

namespace volcal {

IdAssignment::IdAssignment(std::vector<NodeId> ids) {
  if (!ids.empty()) {
    const NodeId max_id = *std::max_element(ids.begin(), ids.end());
    bool duplicate = false;
    if (max_id <= 64 * static_cast<NodeId>(ids.size())) {
      // Dense range: one bit per value of [0, max_id], at most 8 bytes per
      // node, no more than the IDs themselves.
      std::vector<std::uint64_t> seen(static_cast<std::size_t>(max_id / 64) + 1, 0);
      for (const NodeId id : ids) {
        std::uint64_t& word = seen[static_cast<std::size_t>(id / 64)];
        const std::uint64_t bit = std::uint64_t{1} << (id % 64);
        if ((word & bit) != 0) {
          duplicate = true;
          break;
        }
        word |= bit;
      }
    } else {
      std::vector<NodeId> sorted = ids;
      std::sort(sorted.begin(), sorted.end());
      duplicate = std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    }
    if (duplicate) throw std::invalid_argument("IdAssignment: duplicate node ID");
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
