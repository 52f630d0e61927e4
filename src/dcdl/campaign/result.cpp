#include "dcdl/campaign/result.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <system_error>

#include "dcdl/common/json.hpp"

namespace dcdl::campaign {

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kCancelled: return "cancelled";
  }
  return "?";
}

std::size_t CampaignResult::count(RunStatus status) const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.status == status ? 1 : 0;
  return n;
}

namespace {

// Minimal deterministic JSON emitter: insertion-ordered objects, shortest
// round-trip doubles, no locale dependence.
class Json {
 public:
  void begin_object() { punct('{'); }
  void end_object() { close('}'); }
  void begin_array() { punct('['); }
  void end_array() { close(']'); }

  void key(const std::string& k) {
    comma();
    json::append_quoted(out_, k);
    out_ += ':';
    fresh_ = true;  // the value follows without a comma
  }

  void value(const std::string& v) { comma(); json::append_quoted(out_, v); }
  void value(const char* v) { value(std::string(v)); }
  void value(double v) { comma(); out_ += format_double(v); }
  void value(std::int64_t v) { comma(); out_ += std::to_string(v); }
  void value(std::uint64_t v) { comma(); out_ += std::to_string(v); }
  void value(bool v) { comma(); out_ += v ? "true" : "false"; }
  void value(const ParamValue& v) {
    switch (v.kind()) {
      case ParamKind::kInt: value(v.as_int()); break;
      case ParamKind::kDouble: value(v.as_double()); break;
      case ParamKind::kBool: value(v.as_bool()); break;
      case ParamKind::kString: value(v.as_string()); break;
    }
  }

  std::string take() { return std::move(out_); }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void punct(char c) {
    comma();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

void emit_run(Json& j, const RunRecord& r, const WriteOptions& opts) {
  j.begin_object();
  j.key("run"); j.value(std::int64_t{r.run_index});
  j.key("cell"); j.value(std::int64_t{r.cell_index});
  j.key("seed_index"); j.value(std::int64_t{r.seed_index});
  j.key("scenario"); j.value(r.scenario);
  j.key("seed"); j.value(r.seed);
  j.key("params");
  j.begin_object();
  for (const auto& [name, value] : r.params.items()) {
    j.key(name);
    j.value(value);
  }
  j.end_object();
  j.key("status"); j.value(to_string(r.status));
  if (!r.error.empty()) { j.key("error"); j.value(r.error); }
  if (r.status == RunStatus::kOk) {
    j.key("deadlocked"); j.value(r.deadlocked);
    j.key("detect_ms"); j.value(r.detect_ms);
    j.key("trapped_bytes"); j.value(r.trapped_bytes);
    j.key("goodput_gbps"); j.value(r.goodput_gbps);
    j.key("pause_assertions"); j.value(r.pause_assertions);
    j.key("detection_latency_ns"); j.value(r.detection_latency_ns);
    j.key("recovery_time_ns"); j.value(r.recovery_time_ns);
    j.key("false_positive"); j.value(r.false_positive);
    j.key("hybrid_mode"); j.value(r.hybrid_mode);
    j.key("zoom_events"); j.value(r.zoom_events);
    j.key("fluid_fraction"); j.value(r.fluid_fraction);
    j.key("delivered");
    j.begin_array();
    for (const auto& [flow, bytes] : r.delivered) {
      j.begin_object();
      j.key("flow"); j.value(std::int64_t{flow});
      j.key("bytes"); j.value(bytes);
      j.end_object();
    }
    j.end_array();
    j.key("metrics");
    j.begin_object();
    for (const auto& [name, value] : r.metrics) {
      j.key(name);
      j.value(value);
    }
    j.end_object();
    j.key("events"); j.value(r.events);
    j.key("telemetry");
    j.begin_object();
    for (const auto& [name, value] : r.telemetry) {
      j.key(name);
      j.value(value);
    }
    j.end_object();
    j.key("probe");
    j.begin_object();
    for (const auto& [name, value] : r.probe) {
      j.key(name);
      j.value(value);
    }
    j.end_object();
    j.key("alerts");
    j.begin_object();
    for (const auto& [name, value] : r.alerts) {
      j.key(name);
      j.value(value);
    }
    j.end_object();
  }
  if (opts.include_timing) {
    j.key("timing");
    j.begin_object();
    j.key("wall_ms"); j.value(r.wall_ms);
    j.end_object();
  }
  j.end_object();
}

}  // namespace

std::string run_to_json(const RunRecord& record, const WriteOptions& opts) {
  Json j;
  emit_run(j, record, opts);
  return j.take();
}

std::string to_json(const CampaignResult& result, const WriteOptions& opts) {
  Json j;
  j.begin_object();
  j.key("schema"); j.value(kResultSchema);
  j.key("root_seed"); j.value(result.root_seed);
  j.key("run_count"); j.value(std::int64_t{
      static_cast<std::int64_t>(result.records.size())});
  if (opts.include_timing) {
    j.key("timing");
    j.begin_object();
    j.key("total_wall_ms"); j.value(result.total_wall_ms);
    j.key("jobs"); j.value(std::int64_t{result.jobs});
    j.end_object();
  }
  j.key("runs");
  j.begin_array();
  for (const RunRecord& r : result.records) emit_run(j, r, opts);
  j.end_array();
  j.end_object();
  std::string out = j.take();
  out += '\n';
  return out;
}

std::string to_csv(const CampaignResult& result) {
  std::set<std::string> param_names;
  std::set<std::string> metric_names;
  for (const RunRecord& r : result.records) {
    for (const auto& [name, value] : r.params.items()) param_names.insert(name);
    for (const auto& [name, value] : r.metrics) metric_names.insert(name);
  }

  std::string out =
      "run,cell,seed_index,scenario,seed,status,deadlocked,detect_ms,"
      "trapped_bytes,goodput_gbps,pause_assertions,events,"
      "detection_latency_ns,recovery_time_ns,false_positive,hybrid_mode,"
      "zoom_events,fluid_fraction";
  for (const std::string& n : param_names) out += ",param." + n;
  for (const std::string& n : metric_names) out += ",metric." + n;
  out += '\n';

  for (const RunRecord& r : result.records) {
    out += std::to_string(r.run_index);
    out += ',' + std::to_string(r.cell_index);
    out += ',' + std::to_string(r.seed_index);
    out += ',' + r.scenario;
    out += ',' + std::to_string(r.seed);
    out += ',';
    out += to_string(r.status);
    const bool ok = r.status == RunStatus::kOk;
    out += ',' + std::string(ok ? (r.deadlocked ? "1" : "0") : "");
    out += ',' + (ok ? format_double(r.detect_ms) : "");
    out += ',' + (ok ? std::to_string(r.trapped_bytes) : "");
    out += ',' + (ok ? format_double(r.goodput_gbps) : "");
    out += ',' + (ok ? std::to_string(r.pause_assertions) : "");
    out += ',' + (ok ? std::to_string(r.events) : "");
    out += ',' + (ok ? format_double(r.detection_latency_ns) : "");
    out += ',' + (ok ? format_double(r.recovery_time_ns) : "");
    out += ',' + std::string(ok ? (r.false_positive ? "1" : "0") : "");
    out += ',' + std::string(ok ? r.hybrid_mode : "");
    out += ',' + (ok ? std::to_string(r.zoom_events) : "");
    out += ',' + (ok ? format_double(r.fluid_fraction) : "");
    for (const std::string& n : param_names) {
      out += ',';
      if (r.params.has(n)) out += r.params.get_string(n, "");
    }
    for (const std::string& n : metric_names) {
      out += ',';
      for (const auto& [name, value] : r.metrics) {
        if (name == n) {
          out += format_double(value);
          break;
        }
      }
    }
    out += '\n';
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw CampaignError("cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  if (written != content.size() || rc != 0) {
    throw CampaignError("short write to '" + path + "'");
  }
}

void ensure_output_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw CampaignError("cannot create output directory '" + dir +
                        "': " + ec.message());
  }
  const std::string probe = dir + "/.dcdl_write_probe";
  std::FILE* f = std::fopen(probe.c_str(), "w");
  if (!f) {
    throw CampaignError("output directory '" + dir + "' is not writable");
  }
  std::fclose(f);
  std::filesystem::remove(probe, ec);
}

}  // namespace dcdl::campaign
