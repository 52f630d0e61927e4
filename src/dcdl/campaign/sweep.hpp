// Sweep specification: cartesian grids over scenario parameters plus
// deterministic per-run seed streams derived from one root seed.
//
// A sweep expands to a flat list of RunSpecs whose order — and whose seeds —
// depend only on the spec, never on thread scheduling, so a campaign's
// artifacts are byte-identical at any --jobs and any single cell can be
// re-executed standalone to reproduce its record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcdl/campaign/param.hpp"
#include "dcdl/common/units.hpp"

namespace dcdl::campaign {

/// One grid dimension: the parameter name and its ordered values.
struct GridAxis {
  std::string param;
  std::vector<ParamValue> values;
};

/// Inclusive linear spacing lo..hi with `steps` points (steps >= 1; a single
/// step collapses to lo).
GridAxis linspace_axis(const std::string& param, double lo, double hi,
                       int steps);

struct SweepSpec {
  std::string scenario;
  /// Fixed overrides applied to every cell (grid axes take precedence).
  ParamMap base;
  /// Cartesian grid; the last axis varies fastest in expansion order.
  std::vector<GridAxis> axes;
  /// Independent replicas per cell, each with its own derived seed.
  int seeds_per_cell = 1;
  std::uint64_t root_seed = 1;

  Time run_for = Time{6'000'000'000};         // 6 ms
  Time drain_grace = Time{16'000'000'000};    // 16 ms
  Time monitor_dwell = Time{1'000'000'000};   // 1 ms
};

/// One fully-resolved simulation cell, self-contained: re-running a RunSpec
/// standalone reproduces the campaign's record for it exactly.
struct RunSpec {
  std::string scenario;
  ParamMap params;  // base + axis values + the derived "seed"
  std::uint64_t seed = 0;
  int run_index = 0;   // global ordinal within the campaign
  int cell_index = 0;  // grid cell (ignores the seed replica)
  int seed_index = 0;  // replica within the cell
  Time run_for = Time{6'000'000'000};
  Time drain_grace = Time{16'000'000'000};
  Time monitor_dwell = Time{1'000'000'000};
};

/// SplitMix64 stream: statistically independent seeds per run ordinal,
/// stable across platforms and thread counts.
std::uint64_t derive_seed(std::uint64_t root_seed, int run_index);

/// Cartesian expansion; throws CampaignError on an empty axis, a
/// non-positive seed count, a non-positive horizon, or a "seed" in `base`
/// or an axis (each run's seed is derived from root_seed).
std::vector<RunSpec> expand(const SweepSpec& spec);

/// Parses a grid description, the CLI/bench surface for sweeps:
///   "inject=2..8gbps:7"            linear range, 7 points (unit optional)
///   "ttl=8,16,32"                  explicit list (numbers or enum strings)
///   "inject=2..8gbps:7;ttl=8,16"   multiple axes, ';'-separated
/// Throws CampaignError with the offending term on malformed input.
std::vector<GridAxis> parse_grid(const std::string& text);

/// Parses "name=value;name2=value2" fixed overrides into `out`.
void apply_sets(ParamMap& out, const std::string& text);

/// Renders one `dcdl_sweep --progress` status line (no trailing newline).
/// Before the first run completes (done == 0) — or when the wall clock has
/// not advanced (elapsed_s <= 0) — the observed rate and the ETA it implies
/// are meaningless, so the line shows `--.- run/s, eta --:--` instead of an
/// inf/nan extrapolation. `last_run_index` < 0 omits the "(last: ...)"
/// segment (used for the initial 0/N line printed at sweep start).
std::string format_progress(std::size_t done, std::size_t total,
                            int last_run_index, const std::string& last_status,
                            double elapsed_s);

}  // namespace dcdl::campaign
