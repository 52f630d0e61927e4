#include "dcdl/probe/export.hpp"

#include <cstdint>

#include "dcdl/campaign/param.hpp"
#include "dcdl/common/json.hpp"

namespace dcdl::probe {

using campaign::format_double;

std::string to_timeseries_jsonl(const RunProbe& probe) {
  const SeriesStore& s = probe.series();

  std::string out;
  out += "{\"schema\":\"";
  out += kTimeseriesSchema;
  out += "\",\"interval_ps\":" + std::to_string(probe.interval().ps());
  out += ",\"start_ps\":" + std::to_string(probe.start_time().ps());
  out += ",\"ticks\":" + std::to_string(s.ticks());
  out += ",\"dropped_ticks\":" + std::to_string(s.dropped_ticks());
  out += ",\"series\":[";
  for (std::uint32_t i = 0; i < s.num_series(); ++i) {
    if (i != 0) out += ",";
    json::append_quoted(out, s.name(i));
  }
  out += "]}\n";

  for (std::size_t k = 0; k < s.ticks(); ++k) {
    out += "{\"t_ps\":" + std::to_string(s.tick_time(k).ps());
    out += ",\"v\":[";
    for (std::uint32_t i = 0; i < s.num_series(); ++i) {
      if (i != 0) out += ",";
      out += format_double(s.value(k, i));
    }
    out += "]}\n";
  }

  for (const RunProbe::NamedHist& h : probe.histograms()) {
    out += "{\"hist\":";
    json::append_quoted(out, h.name);
    out += ",\"unit\":\"ps\"";
    out += ",\"count\":" + std::to_string(h.hist->count());
    out += ",\"sum\":" + std::to_string(h.hist->sum());
    out += ",\"min\":" + std::to_string(h.hist->min());
    out += ",\"max\":" + std::to_string(h.hist->max());
    out += ",\"p50\":" + std::to_string(h.hist->percentile(0.50));
    out += ",\"p90\":" + std::to_string(h.hist->percentile(0.90));
    out += ",\"p99\":" + std::to_string(h.hist->percentile(0.99));
    out += ",\"p999\":" + std::to_string(h.hist->percentile(0.999));
    out += ",\"buckets\":[";
    bool first = true;
    h.hist->for_each_bucket([&](std::uint64_t edge, std::uint64_t count) {
      if (!first) out += ",";
      first = false;
      out += "[" + std::to_string(edge) + "," + std::to_string(count) + "]";
    });
    out += "]}\n";
  }
  return out;
}

std::string to_perfetto_counters(const RunProbe& probe) {
  const SeriesStore& s = probe.series();
  // A pid well clear of the telemetry exporter's per-node process ids.
  constexpr int kPid = 900000;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += "\n" + ev;
  };
  emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
       ",\"name\":\"process_name\",\"args\":{\"name\":\"probe\"}}");
  for (std::size_t k = 0; k < s.ticks(); ++k) {
    const std::int64_t ts_us = s.tick_time(k).ps() / 1'000'000;
    for (std::uint32_t id = 0; id < s.num_series(); ++id) {
      emit("{\"ph\":\"C\",\"pid\":" + std::to_string(kPid) +
           ",\"ts\":" + std::to_string(ts_us) +
           ",\"name\":" + json::quoted(s.name(id)) +
           ",\"args\":{\"v\":" + format_double(s.value(k, id)) + "}}");
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace dcdl::probe
