// Log-bucketed latency histogram (HdrHistogram-style) for the probe layer.
//
// Values are non-negative 64-bit integers — in dcdl they are always
// picosecond durations. Bucketing is the classic sub-bucketed-octave
// scheme: the first 64 values are exact, and every octave above that is
// split into 32 sub-buckets, so any recorded value lands in a bucket whose
// upper edge is within 1/32 (3.2%) of the value itself. count / sum /
// min / max are exact; percentiles are reported as the covering bucket's
// upper edge, clamped to the exact max — a bounded-relative-error quantile
// with no per-record allocation, no sorting, and a fixed 15 KiB footprint.
//
// record() is O(1) (a count-leading-zeros and two array increments) and is
// cheap enough to sit on trace-hook paths: the probe layer feeds it from
// delivered / hop-wait / PFC observers, which at two or more shards fire on
// the coordinator thread during record replay.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace dcdl::probe {

class LogHistogram {
 public:
  /// Sub-bucket resolution: 2^6 exact low values, 2^5 sub-buckets per
  /// octave above that. Part of the `dcdl.timeseries.v1` bucket layout —
  /// change only with a schema bump.
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;  // 64
  static constexpr std::uint32_t kHalf =
      static_cast<std::uint32_t>(kSub / 2);  // 32 sub-buckets per octave
  /// 64 exact buckets + 58 octaves (uint64 range) of 32 sub-buckets.
  static constexpr std::uint32_t kNumBuckets =
      static_cast<std::uint32_t>(kSub) + 58 * kHalf;

  LogHistogram() : buckets_(kNumBuckets, 0) {}

  /// Bucket index covering `v`. Exact below kSub; one sub-bucketed octave
  /// per power of two above.
  static std::uint32_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits + 1;
    const std::uint64_t sub = v >> shift;  // in [kHalf, kSub)
    return static_cast<std::uint32_t>(kSub) +
           static_cast<std::uint32_t>(shift - 1) * kHalf +
           static_cast<std::uint32_t>(sub - kHalf);
  }

  /// Largest value that lands in bucket `idx` (inclusive upper edge).
  static std::uint64_t upper_edge(std::uint32_t idx) {
    if (idx < kSub) return idx;
    const std::uint32_t rel = idx - static_cast<std::uint32_t>(kSub);
    const int shift = static_cast<int>(rel / kHalf) + 1;
    const std::uint64_t sub = kHalf + rel % kHalf;
    return ((sub + 1) << shift) - 1;
  }

  /// Records one observation. Negative durations (a clock bug upstream)
  /// are clamped to zero rather than dropped, so count stays exact.
  void record(std::int64_t v) {
    const std::uint64_t u = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    ++buckets_[index_of(u)];
    ++count_;
    sum_ += static_cast<std::int64_t>(u);
    if (count_ == 1 || static_cast<std::int64_t>(u) < min_) {
      min_ = static_cast<std::int64_t>(u);
    }
    if (static_cast<std::int64_t>(u) > max_) max_ = static_cast<std::int64_t>(u);
  }

  bool empty() const { return count_ == 0; }
  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Quantile q in [0, 1]: the upper edge of the bucket holding the
  /// ceil(q * count)-th smallest observation, clamped to the exact max.
  /// Relative error is bounded by the sub-bucket width (<= 3.2%); the
  /// extremes are exact (q=0 -> a value <= min's bucket edge, q=1 -> max).
  std::int64_t percentile(double q) const;

  /// Visits non-empty buckets in ascending value order as
  /// f(upper_edge, count) — the export shape.
  template <typename F>
  void for_each_bucket(F&& f) const {
    for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] != 0) f(upper_edge(i), buckets_[i]);
    }
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace dcdl::probe
