// Ring-buffered time series: one shared timestamp column plus one double
// column per registered series, written a whole row ("tick") at a time by
// the IntervalSampler and evicting the oldest row once capacity is hit.
//
// Registration (add) happens at probe setup; after the first tick the
// layout is frozen and every write is an indexed store into preallocated
// storage — the sampler never allocates during a run.
//
// Every series is a pure function of the scenario (queue bytes, pause
// counts, utilization), so exported artifacts are byte-identical across
// --jobs x --shards.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "dcdl/common/units.hpp"

namespace dcdl::probe {

class SeriesStore {
 public:
  /// Retains the newest `capacity` rows (at least one). Every RunProbe
  /// keeps the default.
  explicit SeriesStore(std::size_t capacity = 1u << 12)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Registers a series; must be called before the first begin_tick.
  std::uint32_t add(std::string name) {
    assert(total_ticks_ == 0 && "series layout is frozen after the first tick");
    names_.push_back(std::move(name));
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::size_t num_series() const { return names_.size(); }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Opens the row for time `t` (zero-filled); evicts the oldest row when
  /// the ring is full. First call freezes the series layout.
  void begin_tick(Time t) {
    if (total_ticks_ == 0) {
      times_.resize(capacity_);
      values_.resize(capacity_ * names_.size(), 0.0);
    }
    cur_ = static_cast<std::size_t>(total_ticks_ % capacity_);
    times_[cur_] = t;
    double* row = &values_[cur_ * names_.size()];
    for (std::size_t i = 0; i < names_.size(); ++i) row[i] = 0.0;
    ++total_ticks_;
  }

  /// Writes one value into the currently open row.
  void set(std::uint32_t id, double v) {
    values_[cur_ * names_.size() + id] = v;
  }

  /// Rows currently retained (<= capacity).
  std::size_t ticks() const {
    return total_ticks_ < capacity_ ? static_cast<std::size_t>(total_ticks_)
                                    : capacity_;
  }
  /// Rows ever written (> ticks() once the ring wrapped).
  std::uint64_t total_ticks() const { return total_ticks_; }
  std::uint64_t dropped_ticks() const { return total_ticks_ - ticks(); }
  std::size_t capacity() const { return capacity_; }

  /// k-th retained row, oldest first.
  Time tick_time(std::size_t k) const { return times_[slot(k)]; }
  double value(std::size_t k, std::uint32_t id) const {
    return values_[slot(k) * names_.size() + id];
  }

  double series_max(std::uint32_t id) const {
    double m = 0.0;
    for (std::size_t k = 0; k < ticks(); ++k) {
      const double v = value(k, id);
      if (k == 0 || v > m) m = v;
    }
    return m;
  }
  double series_mean(std::uint32_t id) const {
    if (ticks() == 0) return 0.0;
    double s = 0.0;
    for (std::size_t k = 0; k < ticks(); ++k) s += value(k, id);
    return s / static_cast<double>(ticks());
  }

 private:
  std::size_t slot(std::size_t k) const {
    return static_cast<std::size_t>((total_ticks_ - ticks() + k) % capacity_);
  }

  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<Time> times_;    ///< ring, capacity_ entries
  std::vector<double> values_; ///< ring, capacity_ * num_series entries
  std::size_t cur_ = 0;
  std::uint64_t total_ticks_ = 0;
};

}  // namespace dcdl::probe
