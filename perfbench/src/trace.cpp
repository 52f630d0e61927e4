#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* layer, const char* name) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_[static_cast<std::size_t>(index)].start_ns = now_ns();
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

namespace {

bool matches(const Tracer::Span& s, int run, const char* layer,
             const char* name) {
  return s.run == run && std::strcmp(s.layer, layer) == 0 &&
         std::strcmp(s.name, name) == 0;
}

}  // namespace

double Tracer::seconds(int run, const char* layer, const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (matches(s, run, layer, name)) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::vector<double> Tracer::durations(int run, const char* layer,
                                      const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (matches(s, run, layer, name)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  return out;
}

double Tracer::top_level_seconds(int run) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.run == run && s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::string Tracer::to_perfetto_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"run\":%d}}",
                  i == 0 ? "" : ",\n", s.layer, s.name, s.layer,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.run);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<Tracer::LayerRow> Tracer::layer_table(int run) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (run >= 0 && s.run != run) continue;
    LayerRow& row = rows[s.layer];
    row.layer = s.layer;
    const std::int64_t dur = s.end_ns - s.start_ns;
    // Inclusive time counts only outermost spans of the layer, so nested
    // calls within one layer are not counted twice.
    const bool nested_in_same_layer =
        s.parent >= 0 &&
        std::strcmp(spans_[static_cast<std::size_t>(s.parent)].layer,
                    s.layer) == 0;
    if (!nested_in_same_layer) row.total_s += static_cast<double>(dur) / 1e9;
    row.self_s += static_cast<double>(dur - child_ns[i]) / 1e9;
    ++row.calls;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

}  // namespace perfbench
