// dcdl_forensics — offline deadlock post-mortem. Feed it a recorded
// `dcdl.telemetry.v1` JSONL dump (a <run>.telemetry.jsonl or
// <run>.postmortem.jsonl written by dcdl_sim / dcdl_sweep --trace) and it
// reconstructs the causal pause-propagation DAG, attributes every cascade
// to its initial trigger, and prints the human-readable report:
//
//   $ ./dcdl_forensics out/fig1.postmortem.jsonl
//   deadlock: confirmed at t=2.101 ms, wait-for cycle of 3 queue(s): ...
//   initial trigger: switch s2 port 1 class 0 at t=0.512 ms
//       (congestion-cascade origin)
//     cascade depth 4, width 2, 9 span(s); time-to-deadlock 1.589 ms
//
// The dump must carry a topology header (every trace written since the
// forensics tooling landed does); older topology-less dumps are rejected
// with a pointer to re-record.
//
// Exit codes: 0 report printed; 2 bad usage or an input that is not a
// sound dump, with an error naming the line: unreadable, not JSON, a field
// out of range (node or port outside the header's topology, class at or
// above kMaxClasses, flow or bytes beyond 32 bits), or a header whose
// record_count differs from the records read.
//
// Flags:
//   --dot <file>       also write the causality DAG as Graphviz DOT
//   --perfetto <file>  also re-export the records as Chrome trace_event
//                      JSON with the cascade's cause->effect flow arrows
//   --max_cascades N   components listed individually in the report (8)
#include <cstdio>
#include <string>

#include "dcdl/campaign/result.hpp"
#include "dcdl/common/flags.hpp"
#include "dcdl/forensics/forensics.hpp"

using namespace dcdl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dot_path = flags.get_string("dot", "");
  const std::string perfetto_path = flags.get_string("perfetto", "");
  const auto max_cascades =
      static_cast<std::size_t>(flags.get_int("max_cascades", 8));
  flags.check_unused();

  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: dcdl_forensics <trace.jsonl> [--dot out.dot] "
                 "[--perfetto out.json] [--max_cascades N]\n"
                 "  <trace.jsonl>: a dcdl.telemetry.v1 dump "
                 "(*.telemetry.jsonl or *.postmortem.jsonl)\n");
    return 2;
  }
  const std::string& input = flags.positional().front();

  try {
    const forensics::LoadedTrace trace = forensics::load_jsonl_file(input);
    const forensics::CausalInput in = forensics::input_from_trace(trace);
    const forensics::CascadeReport report = forensics::analyze(in);

    forensics::TextOptions topts;
    topts.max_components = max_cascades;
    std::printf("%s: %zu record(s)%s\n", input.c_str(),
                trace.records.size(),
                trace.post_mortem ? " (deadlock post-mortem window)" : "");
    std::printf("%s", forensics::to_text(report, topts).c_str());

    if (!dot_path.empty()) {
      campaign::write_text_file(dot_path, forensics::to_dot(report));
      std::printf("causality DAG -> %s\n", dot_path.c_str());
    }
    if (!perfetto_path.empty()) {
      campaign::write_text_file(
          perfetto_path,
          telemetry::to_perfetto_json(trace.topo, trace.records, {},
                                      forensics::flow_arrows(report)));
      std::printf("annotated Perfetto trace -> %s\n", perfetto_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcdl_forensics: %s\n", e.what());
    return 2;
  }
  return 0;
}
