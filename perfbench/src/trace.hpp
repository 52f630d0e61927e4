// Outside-in spans: the benchmark wraps every public call it makes into a
// dcdl layer in a Scope. With the tracer disabled (every end-to-end run) a
// Scope is one branch and no clock read; enabled, it records name, layer,
// start, end and parent in memory, and the traced run writes them out at
// exit as Perfetto trace_event JSON next to the per-layer table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

class Tracer {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 = top level
    int run = 0;      ///< spans of one repetition share this id
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts a new repetition id; later spans carry it.
  void begin_run() { ++run_; }
  int run() const { return run_; }

  int open(const char* layer, const char* name);
  void close(int index);

  /// Seconds inside spans of `layer`.`name` during repetition `run`.
  double seconds(int run, const char* layer, const char* name) const;
  /// Durations in seconds of each such span, in call order.
  std::vector<double> durations(int run, const char* layer,
                                const char* name) const;
  /// Seconds covered by top-level spans of repetition `run`.
  double top_level_seconds(int run) const;

  /// Chrome/Perfetto trace_event JSON: one complete ("X") event per span,
  /// parent and repetition id in its args.
  std::string to_perfetto_json() const;

  /// Per-layer inclusive and self time (a span's duration minus its
  /// children's), over repetition `run`, or over every span when run < 0.
  struct LayerRow {
    std::string layer;
    double total_s = 0;
    double self_s = 0;
    int calls = 0;
  };
  std::vector<LayerRow> layer_table(int run = -1) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& t, const char* layer, const char* name)
      : t_(t), index_(t.enabled() ? t.open(layer, name) : -1) {}
  ~Scope() {
    if (index_ >= 0) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

}  // namespace perfbench
