// Flight recorder: a fixed-capacity ring of POD TraceRecords, continuously
// overwritten on the hot path and dumped on demand — most importantly when
// the deadlock detector confirms a stuck cycle, so the exact pause sequence
// that closed the cycle is available post-mortem (DCFIT's point: locating
// the *initial trigger* needs in-network history, not end-state guessing).
//
// Zero-allocation contract: the ring is preallocated at construction and
// record() is an index-masked store. Attaching chains InplaceFn observers
// (capturing one pointer) onto the network's Trace slots; nothing on the
// record path can touch the heap.
#pragma once

#include <cstdint>
#include <vector>

#include "dcdl/device/network.hpp"
#include "dcdl/telemetry/record.hpp"

namespace dcdl::telemetry {

class FlightRecorder {
 public:
  /// Preallocates storage for `capacity` records (rounded up to a power of
  /// two so the ring index is a mask, not a division). Default 64Ki records
  /// = 2 MiB: ~a millisecond of a fully loaded four-switch run.
  explicit FlightRecorder(std::size_t capacity = 1u << 16);

  /// Chains this recorder onto every record-bearing slot of `net`'s trace
  /// hooks: PFC, tx start, delivery, drop, CNP, queue bytes (per packet
  /// admission *and* departure, roughly doubling record volume, because
  /// occupancy is what makes a post-mortem readable), dataplane
  /// milestones and hybrid zoom transitions. May be called for several
  /// networks (a multi-fabric setup shares one timeline). The recorder
  /// must outlive the network's hook dispatches.
  void attach(Network& net);

  /// Hot path: O(1), allocation-free, overwrites the oldest record.
  void record(const TraceRecord& r) {
    ring_[static_cast<std::size_t>(total_) & mask_] = r;
    ++total_;
  }

  std::size_t capacity() const { return ring_.size(); }
  /// Records ever written (monotonic; > capacity() once wrapped).
  std::uint64_t total_recorded() const { return total_; }
  /// Records currently held (== capacity once wrapped).
  std::size_t size() const;

  /// The retained window, oldest record first.
  std::vector<TraceRecord> snapshot() const;
  /// The newest min(n, size()) records, oldest first — the "last N events
  /// before the deadlock" dump.
  std::vector<TraceRecord> last(std::size_t n) const;

  void clear() { total_ = 0; }

 private:
  std::vector<TraceRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace dcdl::telemetry
