// Wall-clock engine self-profiler: scoped span accumulators around the
// simulator's coarse phases (event loop, device pass, barrier wait, trace
// replay, control phase, fluid step, dataplane resolution) so "where does
// simulator time actually go" is answerable without an external profiler.
//
// Design constraints, in order:
//   1. Zero cost when off. Instrumented sites read one thread_local
//      pointer; with no profiler installed that is a load + branch and no
//      clock call. Installation is explicit (--profile) and scoped.
//   2. Thread-safety without atomics. The profiler pointer is
//      thread_local, and only the thread that installs it ever writes
//      spans — shard worker threads see a null pointer and record
//      nothing. No cross-thread writes exist, so TSan cleanliness is by
//      construction (same argument as the sharded engine's barriers).
//   3. Honest granularity. Spans wrap phases, not individual heap pops:
//      timing every event would cost two clock reads per event — far more
//      than the probe layer's own <5% overhead budget. The event-loop
//      span instead carries the executed-event delta, so per-event cost
//      is derivable (total_ns / events) without per-event clocks.
//
// Profiler output is wall-clock and therefore nondeterministic; it is
// never written into golden artifacts (trace JSON, timeseries JSONL,
// campaign records) — only to stderr/stdout reports behind --profile.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace dcdl::probe {

class Profiler {
 public:
  enum class Span : std::uint8_t {
    kEventLoop = 0,     ///< Simulator::run_until / run, one-shard windows
    kDevicePass = 1,    ///< K >= 2: coordinator view of one device window
    kBarrierWait = 2,   ///< K >= 2: coordinator blocked on window barriers
    kMailboxes = 3,     ///< K >= 2: cross-shard mailbox drain
    kReplay = 4,        ///< K >= 2: merged trace-record replay
    kControlPhase = 5,  ///< control-simulator drain at a barrier
    kFluidStep = 6,     ///< hybrid: fluid-model integration step
    kDataplane = 7,     ///< dataplane: tag/verdict/recovery resolution
  };
  static constexpr int kNumSpans = 8;

  struct Accum {
    std::uint64_t wall_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t units = 0;  ///< span-specific work count (events, records)
  };

  /// The installing thread's active profiler (null when profiling is off).
  static Profiler*& current();

  /// RAII install/uninstall on the constructing thread.
  class ScopedInstall {
   public:
    explicit ScopedInstall(Profiler& p) : prev_(current()) { current() = &p; }
    ~ScopedInstall() { current() = prev_; }
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    Profiler* prev_;
  };

  /// RAII span: no-op (no clock call) when no profiler is installed.
  /// `add_units` before destruction attributes work items to the span.
  class Scope {
   public:
    explicit Scope(Span s) : p_(current()), span_(s) {
      if (p_ != nullptr) t0_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (p_ != nullptr) {
        const auto dt = std::chrono::steady_clock::now() - t0_;
        p_->add(span_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                        .count()),
                units_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void add_units(std::uint64_t n) { units_ += n; }

   private:
    Profiler* p_;
    Span span_;
    std::uint64_t units_ = 0;
    std::chrono::steady_clock::time_point t0_{};
  };

  void add(Span s, std::uint64_t wall_ns, std::uint64_t units = 0) {
    Accum& a = spans_[static_cast<int>(s)];
    a.wall_ns += wall_ns;
    ++a.calls;
    a.units += units;
  }

  const Accum& at(Span s) const { return spans_[static_cast<int>(s)]; }

  /// Aligned text table (spans with zero calls omitted). Spans nest —
  /// e.g. a fluid step runs inside the event loop — so columns are
  /// inclusive wall time, not a partition of the run.
  std::string report() const;

  static const char* span_name(Span s);

 private:
  Accum spans_[kNumSpans] = {};
};

}  // namespace dcdl::probe
