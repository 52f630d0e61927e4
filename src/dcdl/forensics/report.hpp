// Renderers for a CascadeReport.
//
//  - to_text: the human-readable post-mortem ("deadlock at t=…; initial
//    trigger: S2 port 1 class 0 at t=…; cascade depth 4").
//  - to_dot: the causality DAG as Graphviz DOT, wait-for-cycle spans
//    highlighted, triggers double-bordered.
//  - flow_arrows: cause->effect edges as telemetry::FlowArrow, ready to be
//    drawn into the Perfetto export.
//  - summary: the cascade shape as the flat `forensics.*` name -> value
//    list every campaign record's telemetry carries.
//
// All output is deterministic: a pure function of the report, fixed field
// order, fixed-precision times — byte-identical across runs and --jobs
// levels.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dcdl/forensics/causality.hpp"
#include "dcdl/telemetry/export.hpp"

namespace dcdl::forensics {

struct TextOptions {
  /// Components listed individually; the rest are summarized in one line.
  std::size_t max_components = 8;
};

/// The human-readable post-mortem.
std::string to_text(const CascadeReport& report, const TextOptions& = {});

/// Graphviz DOT of the causality DAG. One node per pause span (label:
/// queue, interval, depth), one edge per cause->effect link; spans of the
/// confirmed deadlock cycle are drawn red and bold, triggers with a double
/// border.
std::string to_dot(const CascadeReport& report);

/// One arrow per causality edge, anchored at the cause span's assertion
/// and the effect span's assertion.
std::vector<telemetry::FlowArrow> flow_arrows(const CascadeReport& report);

/// `forensics.*` in a fixed order: pause_spans, cascades,
/// cascade_max_depth, cascade_max_width, triggers.{routing_loop,
/// host_pause,congestion}, time_to_deadlock_ms (trigger assertion ->
/// deadlock confirmation; -1 when no deadlock), and fanout.{count,sum,mean}
/// over the downstream pauses each span directly induced.
std::vector<std::pair<std::string, double>> summary(
    const CascadeReport& report);

}  // namespace dcdl::forensics
