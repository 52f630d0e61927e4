#include "dcdl/campaign/sweep.hpp"

#include <cstdio>
#include <cstdlib>

namespace dcdl::campaign {

GridAxis linspace_axis(const std::string& param, double lo, double hi,
                       int steps) {
  if (steps < 1) throw CampaignError("axis '" + param + "': steps must be >= 1");
  GridAxis axis;
  axis.param = param;
  for (int i = 0; i < steps; ++i) {
    const double v =
        steps == 1 ? lo : lo + (hi - lo) * i / static_cast<double>(steps - 1);
    axis.values.push_back(ParamValue::of_double(v));
  }
  return axis;
}

std::uint64_t derive_seed(std::uint64_t root_seed, int run_index) {
  // SplitMix64 over the stream position; the golden-ratio stride keeps
  // adjacent ordinals decorrelated.
  std::uint64_t z = root_seed +
                    0x9E3779B97F4A7C15ULL *
                        (static_cast<std::uint64_t>(run_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<RunSpec> expand(const SweepSpec& spec) {
  if (spec.scenario.empty()) throw CampaignError("sweep needs a scenario");
  if (spec.seeds_per_cell < 1) {
    throw CampaignError("seeds_per_cell must be >= 1");
  }
  // Every rate a run reports divides by its horizon.
  if (spec.run_for <= Time::zero()) {
    throw CampaignError("run_for must be > 0 (got " +
                        std::to_string(spec.run_for.ps()) + " ps)");
  }
  // Every run's "seed" param is derived from root_seed; a fixed one would
  // be overwritten without a word.
  const char* const kSeedOwned =
      "'seed' is derived per run from the root seed; set --root_seed instead";
  if (spec.base.has("seed")) throw CampaignError(kSeedOwned);
  std::size_t cells = 1;
  for (const GridAxis& axis : spec.axes) {
    if (axis.param == "seed") throw CampaignError(kSeedOwned);
    if (axis.values.empty()) {
      throw CampaignError("axis '" + axis.param + "' has no values");
    }
    cells *= axis.values.size();
  }

  std::vector<RunSpec> out;
  out.reserve(cells * static_cast<std::size_t>(spec.seeds_per_cell));
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // Decode the cell ordinal into per-axis indices, last axis fastest.
    ParamMap params = spec.base;
    std::size_t rest = cell;
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      const GridAxis& axis = spec.axes[a];
      params.set(axis.param, axis.values[rest % axis.values.size()]);
      rest /= axis.values.size();
    }
    for (int s = 0; s < spec.seeds_per_cell; ++s) {
      RunSpec run;
      run.scenario = spec.scenario;
      run.cell_index = static_cast<int>(cell);
      run.seed_index = s;
      run.run_index = static_cast<int>(out.size());
      run.seed = derive_seed(spec.root_seed, run.run_index);
      run.params = params;
      run.params.set("seed",
                     ParamValue::of_int(static_cast<std::int64_t>(run.seed)));
      run.run_for = spec.run_for;
      run.drain_grace = spec.drain_grace;
      run.monitor_dwell = spec.monitor_dwell;
      out.push_back(std::move(run));
    }
  }
  return out;
}

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    std::string piece = text.substr(start, end - start);
    // Trim surrounding whitespace.
    while (!piece.empty() && piece.front() == ' ') piece.erase(piece.begin());
    while (!piece.empty() && piece.back() == ' ') piece.pop_back();
    if (!piece.empty()) out.push_back(std::move(piece));
    start = end + 1;
  }
  return out;
}

double parse_number(const std::string& text, std::string* unit,
                    const std::string& context) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) {
    throw CampaignError("grid '" + context + "': expected a number, got '" +
                        text + "'");
  }
  if (unit) *unit = std::string(end);
  return v;
}

GridAxis parse_axis(const std::string& term) {
  const auto eq = term.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw CampaignError("grid term '" + term + "' is not name=values");
  }
  GridAxis axis;
  axis.param = term.substr(0, eq);
  const std::string values = term.substr(eq + 1);

  const auto dots = values.find("..");
  if (dots != std::string::npos) {
    // name=lo..hi[unit]:steps
    const auto colon = values.rfind(':');
    if (colon == std::string::npos || colon < dots) {
      throw CampaignError("grid term '" + term +
                          "': range needs ':steps' (e.g. 2..8gbps:7)");
    }
    const double lo = parse_number(values.substr(0, dots), nullptr, term);
    std::string unit;
    const double hi =
        parse_number(values.substr(dots + 2, colon - dots - 2), &unit, term);
    const long steps = std::strtol(values.c_str() + colon + 1, nullptr, 10);
    if (steps < 1) {
      throw CampaignError("grid term '" + term + "': steps must be >= 1");
    }
    return linspace_axis(axis.param, lo, hi, static_cast<int>(steps));
  }

  for (const std::string& item : split(values, ',')) {
    axis.values.push_back(ParamValue::parse(item));
  }
  if (axis.values.empty()) {
    throw CampaignError("grid term '" + term + "' has no values");
  }
  return axis;
}

}  // namespace

std::vector<GridAxis> parse_grid(const std::string& text) {
  std::vector<GridAxis> axes;
  for (const std::string& term : split(text, ';')) {
    axes.push_back(parse_axis(term));
  }
  return axes;
}

std::string format_progress(std::size_t done, std::size_t total,
                            int last_run_index, const std::string& last_status,
                            double elapsed_s) {
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "  %zu/%zu run(s) done", done, total);
  std::string out(buf, static_cast<std::size_t>(n));
  if (last_run_index >= 0) {
    n = std::snprintf(buf, sizeof(buf), " (last: run %d %s)", last_run_index,
                      last_status.c_str());
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (done == 0 || elapsed_s <= 0) {
    // No completed run (or no elapsed wall time) yet: any rate/ETA here
    // would be a 0/0 extrapolation, so render explicit placeholders.
    out += " --.- run/s, eta --:--";
    return out;
  }
  const double rate = static_cast<double>(done) / elapsed_s;
  const double eta_s = static_cast<double>(total - done) / rate;
  n = std::snprintf(buf, sizeof(buf), " %.1f run/s, eta %.0fs", rate, eta_s);
  out.append(buf, static_cast<std::size_t>(n));
  return out;
}

void apply_sets(ParamMap& out, const std::string& text) {
  for (const std::string& term : split(text, ';')) {
    const auto eq = term.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw CampaignError("set term '" + term + "' is not name=value");
    }
    out.set(term.substr(0, eq), ParamValue::parse(term.substr(eq + 1)));
  }
}

}  // namespace dcdl::campaign
