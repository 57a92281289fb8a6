#include "runtime/answer_memo.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace volcal {

namespace {

// Holds every stripe lock, taken in index order (the one multi-stripe lock
// order: single-stripe callers never hold a second lock).
template <typename Stripes>
class AllStripes {
 public:
  explicit AllStripes(Stripes& stripes) : stripes_(stripes) {
    for (auto& s : stripes_) s.mu.lock();
  }
  ~AllStripes() {
    for (auto& s : stripes_) s.mu.unlock();
  }
  AllStripes(const AllStripes&) = delete;
  AllStripes& operator=(const AllStripes&) = delete;

 private:
  Stripes& stripes_;
};

bool fits(std::int64_t x) {
  return x >= 0 && x <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

AnswerMemo::AnswerMemo(NodeIndex n)
    : table_(static_cast<std::size_t>(std::max<NodeIndex>(n, 0))) {}

AnswerMemo::Generation AnswerMemo::reset(NodeIndex n) {
  AllStripes lock(stripes_);
  table_.assign(static_cast<std::size_t>(std::max<NodeIndex>(n, 0)), Entry{});
  for (Stripe& s : stripes_) {
    s.live = 0;
    s.max_distance = 0;
  }
  return ++generation_;
}

AnswerMemo::Generation AnswerMemo::generation() const {
  std::lock_guard lock(stripes_[0].mu);
  return generation_;
}

std::optional<Answer> AnswerMemo::lookup(NodeIndex v, Generation g) {
  Stripe& s = stripe_of(std::max<NodeIndex>(v, 0));
  std::lock_guard lock(s.mu);
  if (v >= 0 && static_cast<std::size_t>(v) < table_.size()) {
    const Entry& e = table_[static_cast<std::size_t>(v)];
    if (e.stamp != 0 && e.stamp <= g) {
      ++s.hits;
      s.served_nodes += e.volume;
      return Answer{e.label, e.volume, e.distance, e.queries};
    }
  }
  ++s.misses;
  return std::nullopt;
}

void AnswerMemo::store(NodeIndex v, Generation g, const Answer& a) {
  if (v < 0 || !fits(a.volume) || !fits(a.distance) || !fits(a.queries)) return;
  Stripe& s = stripe_of(v);
  std::lock_guard lock(s.mu);
  if (g != generation_ || static_cast<std::size_t>(v) >= table_.size()) return;
  Entry& e = table_[static_cast<std::size_t>(v)];
  if (e.stamp == 0) ++s.live;
  e = Entry{g, a.label, static_cast<std::uint32_t>(a.volume),
            static_cast<std::uint32_t>(a.distance), static_cast<std::uint32_t>(a.queries)};
  s.max_distance = std::max(s.max_distance, e.distance);
  ++s.stores;
}

AnswerMemo::Eviction AnswerMemo::evict_region(GraphView old_graph,
                                              std::span<const NodeIndex> touched) {
  // One critical section over every stripe: the generation moves and the
  // region is evicted before any racing lookup or store can run again.
  AllStripes lock(stripes_);
  ++generation_;
  std::uint32_t bound = 0;
  for (const Stripe& s : stripes_) bound = std::max(bound, s.max_distance);
  // BFS from the touched set, level by level up to the largest stored
  // distance; a node reached at depth d loses its answer iff distance >= d.
  const NodeIndex n = std::min<NodeIndex>(old_graph.node_count(),
                                          static_cast<NodeIndex>(table_.size()));
  Eviction out;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<NodeIndex> frontier, next;
  for (const NodeIndex v : touched) {
    if (v >= 0 && v < n && seen[static_cast<std::size_t>(v)] == 0) {
      seen[static_cast<std::size_t>(v)] = 1;
      frontier.push_back(v);
    }
  }
  for (std::uint32_t d = 0; !frontier.empty(); ++d) {
    for (const NodeIndex v : frontier) {
      Entry& e = table_[static_cast<std::size_t>(v)];
      if (e.stamp != 0 && e.distance >= d) {
        e.stamp = 0;
        Stripe& s = stripe_of(v);
        --s.live;
        ++s.evictions;
        ++out.evicted;
      }
    }
    if (d == bound) break;
    for (const NodeIndex v : frontier) {
      for (const NodeIndex u : old_graph.neighbors(v)) {
        if (seen[static_cast<std::size_t>(u)] == 0) {
          seen[static_cast<std::size_t>(u)] = 1;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
    next.clear();
  }
  for (const Stripe& s : stripes_) out.retained += s.live;
  return out;
}

bool CacheConfig::policy_from_name(const char* name, CachePolicy* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || name[0] == '\0' || std::strcmp(name, "0") == 0) {
    *out = CachePolicy::Off;
    return true;
  }
  if (std::strcmp(name, "shared") == 0) {
    *out = CachePolicy::Shared;
    return true;
  }
  return false;
}

CacheStats AnswerMemo::stats() const {
  CacheStats out;
  out.policy = CachePolicy::Shared;
  for (Stripe& s : stripes_) {
    std::lock_guard lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.served_nodes += s.served_nodes;
    out.inserted_bytes += s.stores * static_cast<std::int64_t>(kEntryBytes);
  }
  return out;
}

std::size_t AnswerMemo::size() const {
  std::size_t total = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard lock(s.mu);
    total += s.live;
  }
  return total;
}

}  // namespace volcal
