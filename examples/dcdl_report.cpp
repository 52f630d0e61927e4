// dcdl_report — aggregate a campaign output directory into one markdown
// report: per-run time-series summaries, latency-histogram tables, and
// deadlock-onset timelines, plus a campaign-level run table, a cross-run
// anomaly section (robust z-scores over probe/alert metrics within each
// scenario identity class), and a skipped-artifacts note when the sweep
// directory is partial (missing or truncated per-run files are reported,
// never fatal).
//
//   $ ./dcdl_sweep --scenario valley --set "dataplane=reroute" --seeds 2
//         --trace out/ --out out/campaign.json
//   $ ./dcdl_report --dir out/ > report.md
//
// Inputs, all produced by dcdl_sweep/dcdl_sim:
//   * run_NNNNN.timeseries.jsonl — the dcdl.timeseries.v1 artifacts
//     (series + histograms);
//   * a dcdl.campaign.v* JSON (auto-detected in --dir, or named explicitly
//     with --json) for the per-run scenario/params/goodput/detection table.
//
// Flags: --dir <path> (required), --json <file> (campaign JSON; default:
// first *.json in --dir bearing a dcdl.campaign schema), --out <file>
// (default stdout).
//
// Malformed input (read with the strict json reader) is noted under
// "Skipped artifacts", never fatal: an unreadable timeseries file or header
// (a non-integer `ticks` included) or an auto-detected campaign JSON that
// does not parse is skipped; a file cut short or holding a malformed row
// (the read stops there) is summarized from the rows read. Exit codes: 0
// report written, 1 nothing to report, 2 bad flags, --dir not a directory,
// or a --json file that cannot be read or parsed.
//
// Determinism: files are scanned in sorted name order and every number is
// formatted with fixed printf precision, so re-running the report over the
// same directory diffs clean (the acceptance bar for all probe artifacts).
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/flags.hpp"
#include "dcdl/common/json.hpp"

namespace fs = std::filesystem;
namespace json = dcdl::json;

namespace {

/// The file's bytes, or nullopt when it cannot be read.
std::optional<std::string> slurp(const fs::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string content;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return std::nullopt;
  return content;
}

/// The non-negative integer at `key`; throws json::Error naming the key.
long long count_of(const json::Value& obj, const char* key) {
  const json::Value& v = obj.at(key);
  try {
    const long long n = v.as_int();
    if (n >= 0) return n;
  } catch (const json::Error&) {
  }
  throw json::Error(std::string("\"") + key +
                    "\" is not a non-negative integer");
}

double number_or(const json::Value& obj, const char* key,
                 double fallback) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_double() : fallback;
}

// ---- dcdl.timeseries.v1 artifact ----

struct HistRow {
  std::string name;
  double count = 0, p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
};

struct SeriesAgg {
  std::string name;
  double max = 0, mean = 0, last = 0;
};

struct TsArtifact {
  std::string stem;  ///< file name without .timeseries.jsonl
  double interval_ps = 0;
  long long ticks = 0, dropped = 0;
  std::vector<SeriesAgg> series;
  std::vector<HistRow> hists;
  // Deadlock-onset timeline, derived from the series while scanning.
  double first_pause_ms = -1;  ///< first tick with pfc.active_pauses > 0
  double peak_queue_bytes = 0;
  double peak_queue_ms = -1;
  double end_active_pauses = 0;
  long long data_rows = 0;  ///< sample rows read before any bad line
  std::string bad_line;     ///< why the read stopped early, if it did
};

/// Folds one sample or histogram line into `out`; throws on a malformed one.
void read_row(const json::Value& row, TsArtifact& out, int queue_idx,
              int pause_idx) {
  const auto num = [&](const char* key) { return row.at(key).as_double(); };
  if (const json::Value* h = row.find("hist")) {
    out.hists.push_back(HistRow{h->as_string(), num("count"), num("p50"),
                                num("p90"), num("p99"), num("p999"),
                                num("max")});
    return;
  }
  const double t_ps = num("t_ps");
  const std::vector<json::Value>& vals = row.at("v").items();
  if (vals.size() != out.series.size()) {
    throw json::Error("row holds " + std::to_string(vals.size()) +
                      " value(s) for " + std::to_string(out.series.size()) +
                      " series");
  }
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const double v = vals[i].as_double();
    SeriesAgg& s = out.series[i];
    s.max = std::max(s.max, v);
    s.mean += v;  // divided by the rows read after the scan
    s.last = v;
    if (int(i) == pause_idx && v > 0 && out.first_pause_ms < 0) {
      out.first_pause_ms = t_ps / 1e9;
    }
    if (int(i) == queue_idx && v > out.peak_queue_bytes) {
      out.peak_queue_bytes = v;
      out.peak_queue_ms = t_ps / 1e9;
    }
  }
  ++out.data_rows;
}

/// Loads one dcdl.timeseries.v1 artifact. On failure `why` explains what
/// was wrong (unreadable, wrong schema, a bad header) so the report can
/// carry a skipped-artifacts note instead of silently dropping the file. A
/// bad row stops the read; the rows before it are summarized.
std::optional<TsArtifact> load_timeseries(const fs::path& path,
                                          std::string& why) {
  const std::optional<std::string> content = slurp(path);
  if (!content) {
    why = "unreadable";
    return std::nullopt;
  }
  TsArtifact out;
  out.stem = path.filename().string();
  out.stem.resize(out.stem.size() - std::string(".timeseries.jsonl").size());

  std::size_t pos = 0, line_no = 0;
  bool header_seen = false;
  int queue_idx = -1, pause_idx = -1;
  while (pos < content->size() && out.bad_line.empty()) {
    std::size_t eol = content->find('\n', pos);
    if (eol == std::string::npos) eol = content->size();
    const std::string_view line(content->data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    try {
      const json::Value row = json::parse(line);
      if (header_seen) {
        read_row(row, out, queue_idx, pause_idx);
        continue;
      }
      const json::Value* schema = row.find("schema");
      if (schema == nullptr || schema->as_string() != "dcdl.timeseries.v1") {
        why = "not a dcdl.timeseries.v1 artifact";
        return std::nullopt;
      }
      out.interval_ps = static_cast<double>(count_of(row, "interval_ps"));
      out.ticks = count_of(row, "ticks");
      out.dropped = count_of(row, "dropped_ticks");
      for (const json::Value& name : row.at("series").items()) {
        out.series.push_back(SeriesAgg{name.as_string()});
      }
      for (std::size_t i = 0; i < out.series.size(); ++i) {
        if (out.series[i].name == "queue_bytes") queue_idx = int(i);
        if (out.series[i].name == "pfc.active_pauses") pause_idx = int(i);
      }
      header_seen = true;
    } catch (const json::Error& e) {
      if (!header_seen) {
        why = std::string("bad header: ") + e.what();
        return std::nullopt;
      }
      out.bad_line = "line " + std::to_string(line_no) + ": " + e.what();
    }
  }
  if (!header_seen) {
    why = "truncated before the header line";
    return std::nullopt;
  }
  for (SeriesAgg& s : out.series) {
    if (out.data_rows > 0) s.mean /= static_cast<double>(out.data_rows);
  }
  if (pause_idx >= 0) out.end_active_pauses = out.series[size_t(pause_idx)].last;
  return out;
}

// ---- campaign JSON run table ----

struct RunRow {
  long long run = -1;
  std::string scenario, status, params;
  bool deadlocked = false;
  double goodput = 0, detect_ns = -1, recover_ns = -1;
  double critical_fires = -1, lead_ms = -1;  ///< from the "alerts" object
  /// Flat numeric metrics for the anomaly pass, names prefixed with the
  /// subobject they came from ("probe.", "alerts.") plus goodput_gbps.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Removes the derived per-run "seed" entry from a flattened params string
/// ("inject_gbps:7,seed:123" -> "inject_gbps:7"): seeds distinguish
/// replicas, not identity classes, so the anomaly grouping must ignore
/// them.
std::string strip_seed(const std::string& params) {
  const std::size_t at = params.find("seed:");
  if (at != std::string::npos && (at == 0 || params[at - 1] == ',')) {
    std::size_t end = params.find(',', at);
    if (end == std::string::npos) {
      return params.substr(0, at == 0 ? 0 : at - 1);
    }
    return params.substr(0, at) + params.substr(end + 1);
  }
  return params;
}

/// The run table of a parsed dcdl.campaign.v* document; throws json::Error
/// when it is not one.
std::vector<RunRow> load_campaign(const json::Value& doc) {
  const std::string& schema = doc.at("schema").as_string();
  if (schema.rfind("dcdl.campaign.", 0) != 0) {
    throw json::Error("schema '" + schema + "' is not dcdl.campaign");
  }
  std::vector<RunRow> rows;
  for (const json::Value& obj : doc.at("runs").items()) {
    RunRow row;
    row.run = obj.at("run").as_int();
    row.scenario = obj.at("scenario").as_string();
    row.status = obj.at("status").as_string();
    if (const json::Value* d = obj.find("deadlocked")) {
      row.deadlocked = d->as_bool();
    }
    row.goodput = number_or(obj, "goodput_gbps", 0);
    row.detect_ns = number_or(obj, "detection_latency_ns", -1);
    row.recover_ns = number_or(obj, "recovery_time_ns", -1);
    for (const json::Member& p : obj.at("params").members()) {
      if (!row.params.empty()) row.params += ',';
      row.params += p.key + ":" + p.value.text();
    }
    row.metrics.emplace_back("goodput_gbps", row.goodput);
    for (const char* digest : {"probe", "alerts"}) {
      const json::Value* d = obj.find(digest);
      if (d == nullptr) continue;
      for (const json::Member& m : d->members()) {
        const double v = m.value.as_double();
        if (std::string_view(digest) == "alerts") {
          if (m.key == "fired.critical") row.critical_fires = v;
          if (m.key == "lead_ms") row.lead_ms = v;
        }
        row.metrics.emplace_back(std::string(digest) + "." + m.key, v);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---- cross-run anomaly detection ----

struct Anomaly {
  std::string group, metric;
  long long run = -1;
  double value = 0, median = 0, z = 0;
};

/// Robust per-metric outlier scan within each scenario identity class
/// (scenario + params minus the seed). The score is the classic robust z:
/// (x - median) / max(1.4826 * MAD, floor). The floor keeps a
/// nearly-degenerate spread from amplifying formatting-level jitter into
/// an outlier, while a genuinely divergent replica (MAD == 0 because every
/// other seed agrees exactly) is still flagged. Groups need >= 4 ok runs
/// for the median/MAD to mean anything. Output order is deterministic:
/// group, then metric, then run index.
std::vector<Anomaly> find_anomalies(const std::vector<RunRow>& runs,
                                    double z_threshold = 3.5) {
  std::map<std::string, std::vector<const RunRow*>> groups;
  for (const RunRow& r : runs) {
    if (r.status != "ok") continue;
    groups[r.scenario + " `" + strip_seed(r.params) + "`"].push_back(&r);
  }
  std::vector<Anomaly> out;
  for (const auto& [group, members] : groups) {
    if (members.size() < 4) continue;
    std::map<std::string, std::vector<std::pair<long long, double>>> by_metric;
    for (const RunRow* r : members) {
      for (const auto& [name, v] : r->metrics) {
        by_metric[name].emplace_back(r->run, v);
      }
    }
    for (const auto& [metric, obs] : by_metric) {
      if (obs.size() < 4) continue;
      std::vector<double> vals;
      vals.reserve(obs.size());
      for (const auto& [run, v] : obs) vals.push_back(v);
      std::sort(vals.begin(), vals.end());
      const double med = vals[vals.size() / 2];
      std::vector<double> dev;
      dev.reserve(vals.size());
      for (const double v : vals) dev.push_back(std::fabs(v - med));
      std::sort(dev.begin(), dev.end());
      const double mad = dev[dev.size() / 2];
      const double floor =
          1e-6 * std::max(1.0, std::fabs(med));
      const double scale = std::max(1.4826 * mad, floor);
      for (const auto& [run, v] : obs) {
        const double z = (v - med) / scale;
        if (std::fabs(z) < z_threshold) continue;
        Anomaly a;
        a.group = group;
        a.metric = metric;
        a.run = run;
        a.value = v;
        a.median = med;
        a.z = z;
        out.push_back(std::move(a));
      }
    }
  }
  return out;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  dcdl::Flags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "");
  std::string json_path = flags.get_string("json", "");
  const std::string out_path = flags.get_string("out", "");
  flags.check_unused();
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: dcdl_report --dir <campaign-output-dir> "
                 "[--json campaign.json] [--out report.md]\n");
    return 2;
  }
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "dcdl_report: '%s' is not a directory\n",
                 dir.c_str());
    return 2;
  }

  // Sorted name order: the report is a deterministic function of the
  // directory contents, independent of readdir order.
  std::vector<fs::path> ts_files;
  std::vector<fs::path> json_files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 17 &&
        name.compare(name.size() - 17, 17, ".timeseries.jsonl") == 0) {
      ts_files.push_back(e.path());
    } else if (name.size() > 5 &&
               name.compare(name.size() - 5, 5, ".json") == 0) {
      json_files.push_back(e.path());
    }
  }
  std::sort(ts_files.begin(), ts_files.end());
  std::sort(json_files.begin(), json_files.end());

  // Partial-directory notes: a sweep that was interrupted (or whose files
  // were pruned) yields a report with this section instead of an abort.
  std::vector<std::string> skipped;
  const auto skip = [&](const fs::path& p, const std::string& why) {
    skipped.push_back("`" + p.filename().string() + "` — " + why);
    std::fprintf(stderr, "dcdl_report: skipping '%s' (%s)\n",
                 p.string().c_str(), why.c_str());
  };

  // An explicit --json must load. Without one, the first *.json naming a
  // dcdl.campaign schema is the campaign; if it does not parse, it gets a
  // note and the report goes on without the run table.
  std::vector<RunRow> runs;
  if (!json_path.empty()) {
    try {
      const std::optional<std::string> content = slurp(json_path);
      if (!content) throw std::runtime_error("cannot read it");
      runs = load_campaign(json::parse(*content));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "dcdl_report: campaign JSON '%s': %s\n",
                   json_path.c_str(), e.what());
      return 2;
    }
  } else {
    for (const fs::path& p : json_files) {
      const std::optional<std::string> content = slurp(p);
      if (!content ||
          content->find("\"schema\":\"dcdl.campaign.") == std::string::npos) {
        continue;
      }
      try {
        runs = load_campaign(json::parse(*content));
        json_path = p.string();
      } catch (const json::Error& e) {
        skip(p, std::string("unreadable campaign JSON: ") + e.what());
      }
      break;
    }
  }

  std::string md;
  append(md, "# dcdl campaign report\n\n");
  append(md, "Source: `%s`", dir.c_str());
  if (!json_path.empty()) append(md, " (campaign: `%s`)", json_path.c_str());
  append(md, "\n\n");

  if (!runs.empty()) {
    append(md, "## Runs\n\n");
    append(md,
           "| run | scenario | params | status | deadlocked | goodput "
           "(Gbps) | detect (ms) | recover (ms) | crit alerts | lead (ms) "
           "|\n");
    append(md, "|--:|---|---|---|---|--:|--:|--:|--:|--:|\n");
    for (const RunRow& r : runs) {
      append(md, "| %lld | %s | `%s` | %s | %s | %.3f | ", r.run,
             r.scenario.c_str(), r.params.empty() ? "-" : r.params.c_str(),
             r.status.c_str(), r.deadlocked ? "yes" : "no", r.goodput);
      if (r.detect_ns >= 0) {
        append(md, "%.3f | ", r.detect_ns / 1e6);
      } else {
        append(md, "- | ");
      }
      if (r.recover_ns >= 0) {
        append(md, "%.3f | ", r.recover_ns / 1e6);
      } else {
        append(md, "- | ");
      }
      if (r.critical_fires >= 0) {
        append(md, "%.0f | ", r.critical_fires);
      } else {
        append(md, "- | ");
      }
      if (r.lead_ms >= 0) {
        append(md, "%.3f |\n", r.lead_ms);
      } else {
        append(md, "- |\n");
      }
    }
    append(md, "\n");
  }

  // Cross-run anomaly scan: robust z-scores over the probe/alert digests
  // within each scenario identity class (same scenario + params, seeds
  // differing). Deterministic ordering, so the section diffs clean.
  const std::vector<Anomaly> anomalies = find_anomalies(runs);
  if (!runs.empty()) {
    append(md, "## Anomalies\n\n");
    if (anomalies.empty()) {
      append(md,
             "No cross-run anomalies (robust z >= 3.5 within an identity "
             "class of >= 4 runs).\n\n");
    } else {
      append(md,
             "| identity class | metric | run | value | class median | "
             "robust z |\n|---|---|--:|--:|--:|--:|\n");
      constexpr std::size_t kMaxAnomalyRows = 64;
      for (std::size_t i = 0;
           i < anomalies.size() && i < kMaxAnomalyRows; ++i) {
        const Anomaly& a = anomalies[i];
        append(md, "| %s | %s | %lld | %.6g | %.6g | %+.3g |\n",
               a.group.c_str(), a.metric.c_str(), a.run, a.value, a.median,
               a.z);
      }
      if (anomalies.size() > kMaxAnomalyRows) {
        append(md, "\n(%zu more anomaly row(s) suppressed)\n",
               anomalies.size() - kMaxAnomalyRows);
      }
      append(md, "\n");
    }
  }

  std::size_t loaded = 0;
  for (const fs::path& p : ts_files) {
    std::string why;
    const std::optional<TsArtifact> ts = load_timeseries(p, why);
    if (!ts) {
      skip(p, why);
      continue;
    }
    if (!ts->bad_line.empty()) {
      skipped.push_back("`" + p.filename().string() + "` — " + ts->bad_line +
                        "; read stopped there");
    }
    if (ts->data_rows < ts->ticks) {
      char note[256];
      std::snprintf(note, sizeof(note),
                    "`%s` — truncated: header declares %lld sample row(s), "
                    "file holds %lld (summarized as-is)",
                    p.filename().string().c_str(), ts->ticks, ts->data_rows);
      skipped.push_back(note);
    }
    ++loaded;
    append(md, "## %s\n\n", ts->stem.c_str());
    append(md, "%lld tick(s) at %.0f us", ts->ticks,
           ts->interval_ps / 1e6);
    if (ts->dropped > 0) {
      append(md, " (%lld older tick(s) evicted from the ring)", ts->dropped);
    }
    append(md, "\n\n");

    // Deadlock-onset timeline: the paper's formation story in three
    // numbers — when pausing starts, when occupancy peaks, and whether the
    // run ends wedged.
    append(md, "**Deadlock onset:** ");
    if (ts->first_pause_ms < 0) {
      append(md, "no PFC pause observed.\n\n");
    } else {
      append(md,
             "first PFC pause at %.3f ms; peak queue occupancy %.0f bytes "
             "at %.3f ms; %s at end of run (%.0f active pause(s)).\n\n",
             ts->first_pause_ms, ts->peak_queue_bytes, ts->peak_queue_ms,
             ts->end_active_pauses > 0 ? "still paused" : "pauses cleared",
             ts->end_active_pauses);
    }

    append(md, "| series | max | mean | last |\n|---|--:|--:|--:|\n");
    for (const SeriesAgg& s : ts->series) {
      // Per-channel utilization rows are summarized by util.max; skip them
      // to keep wide fabrics readable.
      if (s.name.compare(0, 5, "util.") == 0 && s.name != "util.max") {
        continue;
      }
      append(md, "| %s | %.4g | %.4g | %.4g |\n", s.name.c_str(), s.max,
             s.mean, s.last);
    }
    append(md, "\n");

    bool any_hist = false;
    for (const HistRow& h : ts->hists) any_hist |= h.count > 0;
    if (any_hist) {
      append(md,
             "| histogram | count | p50 (us) | p90 (us) | p99 (us) | "
             "p999 (us) | max (us) |\n|---|--:|--:|--:|--:|--:|--:|\n");
      for (const HistRow& h : ts->hists) {
        if (h.count == 0) continue;
        append(md, "| %s | %.0f | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
               h.name.c_str(), h.count, h.p50 / 1e6, h.p90 / 1e6,
               h.p99 / 1e6, h.p999 / 1e6, h.max / 1e6);
      }
      append(md, "\n");
    }
  }

  // Per-run artifact completeness: when the directory holds per-run
  // (run_NNNNN.*) artifacts, every ok run in the campaign JSON should have
  // its timeseries, alerts, and forensics files. Missing ones get a note.
  bool any_run_files = false;
  for (const fs::path& p : ts_files) {
    if (p.filename().string().compare(0, 4, "run_") == 0) {
      any_run_files = true;
      break;
    }
  }
  if (any_run_files) {
    for (const RunRow& r : runs) {
      if (r.status != "ok" || r.run < 0) continue;
      char stem[32];
      std::snprintf(stem, sizeof(stem), "run_%05lld", r.run);
      for (const char* suffix :
           {".timeseries.jsonl", ".alerts.jsonl", ".forensics.txt"}) {
        const fs::path expect = fs::path(dir) / (std::string(stem) + suffix);
        if (!fs::exists(expect)) {
          skipped.push_back("`" + expect.filename().string() +
                            "` — missing for ok run " +
                            std::to_string(r.run));
        }
      }
    }
  }

  if (!skipped.empty()) {
    append(md, "## Skipped artifacts\n\n");
    append(md,
           "The campaign directory is partial; these artifacts were "
           "skipped or flagged (the rest of the report is unaffected):\n\n");
    for (const std::string& s : skipped) append(md, "- %s\n", s.c_str());
    append(md, "\n");
  }

  if (loaded == 0 && runs.empty()) {
    std::fprintf(stderr,
                 "dcdl_report: no dcdl.timeseries.v1 artifacts or campaign "
                 "JSON found in '%s'\n", dir.c_str());
    return 1;
  }

  if (out_path.empty()) {
    std::fputs(md.c_str(), stdout);
  } else {
    dcdl::campaign::write_text_file(out_path, md);
    std::fprintf(stderr, "dcdl_report: %zu timeseries artifact(s), %zu "
                 "run record(s) -> %s\n", loaded, runs.size(),
                 out_path.c_str());
  }
  return 0;
}
