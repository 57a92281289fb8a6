// Histogram — the one distribution type of the repo.
//
// Every distribution volcal records is one of these: SweepMetrics' per-start
// volume / distance / queries, the snapshot of a registry histogram, the
// query service's since-start and windowed latency, and volcal_load's
// client-side series.  One bucketing function, one quantile routine and one
// JSON writer serve them all.
//
// Bucketing (log-linear): values 0..15 get a bucket each; above that every
// power-of-two range [2^e, 2^(e+1)) is split into 16 linear sub-buckets of
// width 2^(e-4).  Values <= 0 share bucket 0.  960 buckets cover all of int64,
// so a histogram is a fixed 7.7 KB however many values go in.
//
// Exact fields: count, sum (while it fits int64; it wraps beyond), min and
// max.  quantile(q) is nearest-rank: it finds the bucket holding the
// ceil(q * count)-th smallest value and returns that bucket's midpoint clamped
// to [min, max].  A bucket of width w starts at 16w or above, so the answer is
// within w/2 of the true sample — a relative error of at most 1/32 — and
// exact below 32.
//
// merge() adds bucket-wise and reduces min/max, so any merge order yields the
// same histogram (the 1-vs-8-thread determinism of sweeps and of the sharded
// registry rests on this).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace volcal::obs {

struct Histogram {
  static constexpr int kSubBits = 4;
  static constexpr std::int64_t kSub = std::int64_t{1} << kSubBits;  // 16
  static constexpr std::size_t kBuckets = (64 - kSubBits) * kSub;   // 960

  std::array<std::int64_t, kBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 while empty
  std::int64_t max = 0;

  static std::size_t bucket_of(std::int64_t v) {
    if (v < kSub) return v <= 0 ? 0 : static_cast<std::size_t>(v);
    const int shift = std::bit_width(static_cast<std::uint64_t>(v)) - 1 - kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) & (kSub - 1)));
  }
  // Inclusive value range of bucket b.
  static std::int64_t bucket_lo(std::size_t b) {
    const auto i = static_cast<std::int64_t>(b);
    if (i < kSub) return i;
    return (kSub + i % kSub) << (i / kSub - 1);
  }
  static std::int64_t bucket_hi(std::size_t b) {
    const auto i = static_cast<std::int64_t>(b);
    const std::int64_t width = i < kSub ? 1 : std::int64_t{1} << (i / kSub - 1);
    return bucket_lo(b) + (width - 1);
  }

  void add(std::int64_t v) {
    ++buckets[bucket_of(v)];
    min = count == 0 || v < min ? v : min;
    max = count == 0 || v > max ? v : max;
    ++count;
    sum = wrapping_add(sum, v);
  }
  void merge(const Histogram& other);

  // Nearest-rank quantile, q clamped to [0, 1]; 0 when empty.
  std::int64_t quantile(double q) const;
  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  // {<leading>"count": c, "min": m, "max": M, "sum": s, "buckets": {"lo-hi": n,
  // ...}} — nonzero buckets only, keyed by their inclusive value range in
  // ascending order.  `leading` (already-rendered `"key": value, ` pairs) lets
  // a caller put its own fields in the same object.
  void append_json(std::string& out, std::string_view leading = {}) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

  // Two's-complement addition: a sum past int64 wraps like the registry's
  // atomic sums instead of overflowing.
  static std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  }
};

// One series viewed since start and over a sliding window, each value
// recorded once.  The window is a ring of kSlots histograms, each covering
// window_seconds / kSlots of completion time; a slot that rotates out folds
// into `retired_`.  since_start = retired + every slot and window = the slots
// of the last kSlots ticks, both read under the one lock — so the window is a
// sub-multiset of since_start by construction, to a resolution of one slot.
// Memory is kSlots + 1 histograms whatever the uptime, rate or window length.
class WindowedHistogram {
 public:
  static constexpr int kSlots = 10;

  // Throws std::invalid_argument unless window_seconds is finite and > 0.
  explicit WindowedHistogram(double window_seconds);

  // `now_ns` is the caller's monotonic clock; values stamped older than the
  // slot they would land in are already outside the window and go to retired.
  void add(std::int64_t now_ns, std::int64_t v);

  struct Views {
    Histogram since_start;
    Histogram window;
  };
  Views read(std::int64_t now_ns) const;

 private:
  std::int64_t slot_ns_ = 1;
  mutable std::mutex mu_;
  Histogram retired_;
  std::array<Histogram, kSlots> slots_{};
  std::array<std::int64_t, kSlots> tick_{};  // the tick whose values slots_[i] holds
};

}  // namespace volcal::obs
