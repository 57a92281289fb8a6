#include "runtime/batched_execution.hpp"

#include <cassert>

namespace volcal {

void BatchedBallExecutor::bind(GraphView g) {
  g_ = g;
  bound_ = true;
  const auto n = static_cast<std::size_t>(g.node_count());
  if (visited_mask_.size() < n) {
    visited_mask_.resize(n, 0);
    gather_stamp_.resize(n, 0);
    gather_pos_.resize(n, 0);
  }
  slots_.resize(static_cast<std::size_t>(kMaxBatch));
}

void BatchedBallExecutor::run(std::span<const NodeIndex> centers, std::int64_t radius) {
  assert(bound_ && !centers.empty() &&
         centers.size() <= static_cast<std::size_t>(kMaxBatch));
  const GraphView g = g_;
  const int batch = static_cast<int>(centers.size());
  waves_ = 0;
  expanded_nodes_ = 0;

  // Reset the visited masks of the previous batch (touched_ lists exactly the
  // nodes with a nonzero mask) and seed each slot: ball = {center}, level 0.
  for (const NodeIndex v : touched_) visited_mask_[static_cast<std::size_t>(v)] = 0;
  touched_.clear();
  std::uint64_t active = batch == kMaxBatch ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << batch) - 1;
  for (int b = 0; b < batch; ++b) {
    Slot& slot = slots_[static_cast<std::size_t>(b)];
    const NodeIndex center = centers[static_cast<std::size_t>(b)];
    slot.order.assign(1, center);
    slot.level_end.assign(1, 1);
    slot.distance = 0;
    slot.queries = 0;
    auto& mask = visited_mask_[static_cast<std::size_t>(center)];
    if (mask == 0) touched_.push_back(center);
    mask |= std::uint64_t{1} << b;
  }

  for (std::int64_t d = 0; d < radius && active != 0; ++d) {
    ++waves_;
    const auto level = static_cast<std::size_t>(d);

    // Pass 1: gather the union frontier's adjacency, one CSR walk per node
    // regardless of how many slots' frontiers contain it.
    ++stamp_;
    wave_nodes_.clear();
    wave_off_.clear();
    wave_adj_.clear();
    for (int b = 0; b < batch; ++b) {
      if ((active >> b & 1) == 0) continue;
      const Slot& slot = slots_[static_cast<std::size_t>(b)];
      const std::size_t lb = level == 0 ? 0 : slot.level_end[level - 1];
      for (std::size_t head = lb; head < slot.level_end[level]; ++head) {
        const NodeIndex v = slot.order[head];
        const auto vi = static_cast<std::size_t>(v);
        if (gather_stamp_[vi] == stamp_) continue;
        gather_stamp_[vi] = stamp_;
        gather_pos_[vi] = static_cast<std::uint32_t>(wave_nodes_.size());
        wave_nodes_.push_back(v);
        wave_off_.push_back(wave_adj_.size());
        const auto nb = g.neighbors(v);
        wave_adj_.insert(wave_adj_.end(), nb.begin(), nb.end());
      }
    }
    wave_off_.push_back(wave_adj_.size());
    expanded_nodes_ += static_cast<std::int64_t>(wave_nodes_.size());

    // Pass 2: expand each slot in its own canonical order against the
    // gathered buffer.  Freshness is one bit test per discovered neighbor.
    for (int b = 0; b < batch; ++b) {
      if ((active >> b & 1) == 0) continue;
      Slot& slot = slots_[static_cast<std::size_t>(b)];
      const std::size_t lb = level == 0 ? 0 : slot.level_end[level - 1];
      const std::size_t le = slot.level_end[level];
      if (lb == le) {
        // explore_ball stops on an empty frontier: the ball is its whole
        // component and no further level is pushed.
        active &= ~(std::uint64_t{1} << b);
        continue;
      }
      const std::uint64_t bit = std::uint64_t{1} << b;
      for (std::size_t head = lb; head < le; ++head) {
        const auto v = static_cast<std::size_t>(slot.order[head]);
        const std::size_t off = wave_off_[gather_pos_[v]];
        const std::size_t end = wave_off_[gather_pos_[v] + 1];
        // explore_ball queries every port of every frontier node, fresh or
        // not: one query per gathered edge.
        slot.queries += static_cast<std::int64_t>(end - off);
        for (std::size_t i = off; i < end; ++i) {
          const NodeIndex u = wave_adj_[i];
          auto& mask = visited_mask_[static_cast<std::size_t>(u)];
          if ((mask & bit) == 0) {
            if (mask == 0) touched_.push_back(u);
            mask |= bit;
            slot.order.push_back(u);
          }
        }
      }
      slot.level_end.push_back(slot.order.size());
      if (slot.order.size() > le) slot.distance = d + 1;
    }
  }
}

}  // namespace volcal
