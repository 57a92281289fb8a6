// Per-node random strings (paper Section 2.2 and the discussion in §7.4).
//
// Each node v carries an infinite random string r_v : N -> {0,1}; r_v is part
// of v's *input*, so every execution that queries v sees the same bits.  We
// realize r_v as one stream of 64-bit blocks, block b a deterministic hash of
// (seed, id(v), block-domain, b): reproducible, independent across nodes and
// positions for all statistical purposes here, and trivially shared between
// the many per-node executions of a run.  Bit i is bit (i mod 64) of block
// floor(i/64), and a word read at position i is exactly bits i..i+63 of the
// same stream — so bit and word reads at overlapping positions are consistent
// by construction, and word accounting (64 positions) matches the values
// actually consumed.  (Historically word_value hashed position 0x9000+i on
// the *bit* stream: words aliased far-away bit positions, and words at
// adjacent positions claimed overlapping bit ranges while returning
// independent values.  tests/randomness_correlation_test.cpp pins the
// single-stream semantics.)
//
// Bit-usage accounting: the model (§2.2, footnote 1) assumes bits are read
// sequentially and that the number of accessed bits is bounded whp.  The tape
// records the high-water mark per node so tests can assert the bound.
// Because tape *values* are pure hashes, only this accounting is mutable
// state; it is factored into TapeUsage so the parallel sweep engine can keep
// one usage ledger per worker and merge them (a per-node max, so the merged
// totals are independent of scheduling).  Accounting routes:
//   * inside a ScopedUsage (one per sweep worker): lock-free into the
//     worker-local ledger, merged into the tape when the scope closes;
//   * otherwise: into the tape's own ledger under a mutex — safe from any
//     thread, uncontended in serial code.
//
// Three access disciplines (§7.4):
//   * private  — any execution may read any visited node's tape (the paper's
//                main model),
//   * public   — one global tape, node-independent,
//   * secret   — an execution may only read the tape of its *initiating*
//                node.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/graph.hpp"
#include "labels/ids.hpp"
#include "util/hash.hpp"

namespace volcal {

enum class RandomnessModel : std::uint8_t { Private, Public, Secret };

// High-water marks of accessed tape positions, per node.  Plain data with a
// commutative merge (pointwise max): merging per-worker ledgers in any order
// yields the same totals, which is what makes parallel-sweep bit accounting
// deterministic.
class TapeUsage {
 public:
  void note(NodeIndex v, std::uint64_t position) {
    auto& hw = used_[v];
    hw = std::max(hw, position + 1);
  }

  void merge(const TapeUsage& other) {
    for (const auto& [v, bits] : other.used_) {
      auto& hw = used_[v];
      hw = std::max(hw, bits);
    }
  }

  std::uint64_t bits(NodeIndex v) const {
    auto it = used_.find(v);
    return it == used_.end() ? 0 : it->second;
  }

  std::uint64_t max_bits() const {
    std::uint64_t m = 0;
    for (const auto& [node, bits] : used_) m = std::max(m, bits);
    return m;
  }

  bool empty() const { return used_.empty(); }
  void clear() { used_.clear(); }

 private:
  std::unordered_map<NodeIndex, std::uint64_t> used_;
};

class RandomTape {
 private:
  // Where note_use routes on this thread: a worker-local ledger while a
  // ScopedUsage for this tape is alive, the tape's own mutex-guarded ledger
  // otherwise.
  struct Sink {
    const RandomTape* tape;
    TapeUsage* usage;
  };

 public:
  RandomTape(const IdAssignment& ids, std::uint64_t seed,
             RandomnessModel model = RandomnessModel::Private)
      : ids_(&ids), seed_(seed), model_(model) {}
  // The tape keeps &ids: a temporary ID table would dangle.
  RandomTape(const IdAssignment&&, std::uint64_t,
             RandomnessModel = RandomnessModel::Private) = delete;

  RandomnessModel model() const { return model_; }
  std::uint64_t seed() const { return seed_; }

  // r_v(i): the i-th bit of node v's random string.  `reader` is the node
  // whose execution is asking; the secret model rejects cross-node reads.
  bool bit(NodeIndex reader, NodeIndex v, std::uint64_t i) {
    check_access(reader, v);
    note_use(v, i);
    return bit_value(v, i);
  }

  // A uniform word built from 64 consecutive bits starting at position i
  // (positions i..i+63 count as used).
  std::uint64_t word(NodeIndex reader, NodeIndex v, std::uint64_t i) {
    check_access(reader, v);
    note_use(v, i + 63);
    return word_value(v, i);
  }

  // Uniform double in [0,1) consuming 64 bits at position i.
  double unit(NodeIndex reader, NodeIndex v, std::uint64_t i) {
    return to_unit_double(word(reader, v, i));
  }

  // Pure value functions: no access check, no accounting.  The hash makes
  // them safe from any thread.  Both read the one block stream, so
  // bit j of word_value(v, i) == bit_value(v, i + j) for all j in [0, 64).
  bool bit_value(NodeIndex v, std::uint64_t i) const {
    return ((block_value(v, i >> 6) >> (i & 63)) & 1) != 0;
  }
  std::uint64_t word_value(NodeIndex v, std::uint64_t i) const {
    const std::uint64_t off = i & 63;
    const std::uint64_t lo = block_value(v, i >> 6);
    if (off == 0) return lo;
    return (lo >> off) | (block_value(v, (i >> 6) + 1) << (64 - off));
  }

  // High-water mark of accessed positions on v's string (+1), i.e. the number
  // of consumed bits under sequential access.  0 if untouched.  Usage
  // recorded inside a still-open ScopedUsage becomes visible here only when
  // that scope closes.
  std::uint64_t bits_used(NodeIndex v) const {
    std::lock_guard<std::mutex> lock(usage_mutex_);
    return usage_.bits(v);
  }
  std::uint64_t max_bits_used_anywhere() const {
    std::lock_guard<std::mutex> lock(usage_mutex_);
    return usage_.max_bits();
  }

  void merge_usage(const TapeUsage& other) {
    std::lock_guard<std::mutex> lock(usage_mutex_);
    usage_.merge(other);
  }

  // RAII worker-local accounting: while alive on this thread, every bit read
  // through this tape is noted lock-free in a private ledger; the destructor
  // merges it into the tape.  One per sweep worker keeps the parallel hot
  // path free of the accounting mutex.  Scopes on different tapes nest.
  class ScopedUsage {
   public:
    explicit ScopedUsage(RandomTape& tape) : tape_(&tape), prev_(tls_sink_) {
      tls_sink_ = Sink{tape_, &local_};
    }
    ~ScopedUsage() {
      tls_sink_ = prev_;
      tape_->merge_usage(local_);
    }
    ScopedUsage(const ScopedUsage&) = delete;
    ScopedUsage& operator=(const ScopedUsage&) = delete;

    const TapeUsage& local() const { return local_; }

   private:
    RandomTape* tape_;
    TapeUsage local_;
    Sink prev_;
  };

 private:
  // Domain tag keeps the tape's block stream disjoint from every other use of
  // mix64 keyed by (seed, id) — generators, shuffled IDs — for any seed.
  static constexpr std::uint64_t kBlockDomain = 0x7461706562ull;  // "tapeb"

  std::uint64_t block_value(NodeIndex v, std::uint64_t b) const {
    return mix64(seed_, id_key(v), kBlockDomain, b);
  }

  std::uint64_t id_key(NodeIndex v) const {
    return (model_ == RandomnessModel::Public) ? 0 : ids_->id_of(v);
  }

  void check_access(NodeIndex reader, NodeIndex v) const {
    if (model_ == RandomnessModel::Secret && reader != v) {
      throw std::logic_error("RandomTape: secret-randomness violation: node " +
                             std::to_string(reader) + " read tape of " + std::to_string(v));
    }
  }

  void note_use(NodeIndex v, std::uint64_t i) {
    const NodeIndex key = (model_ == RandomnessModel::Public) ? 0 : v;
    if (tls_sink_.tape == this) {
      tls_sink_.usage->note(key, i);
      return;
    }
    std::lock_guard<std::mutex> lock(usage_mutex_);
    usage_.note(key, i);
  }

  const IdAssignment* ids_;
  std::uint64_t seed_;
  RandomnessModel model_;
  mutable std::mutex usage_mutex_;
  TapeUsage usage_;
  inline static thread_local Sink tls_sink_{nullptr, nullptr};
};

}  // namespace volcal
