// Umbrella for the telemetry subsystem: watching a lossless fabric without
// perturbing it.
//
//   TraceRecord / RecordKind — 32-byte POD observation (record.hpp)
//   FlightRecorder           — fixed-capacity ring, deadlock post-mortems
//   MetricsRegistry          — dense named counters and gauges
//   RunTelemetry             — the uniform per-run metric set, pre-wired
//   to_perfetto_json / to_jsonl / post_mortem_jsonl — exporters
//
// Everything preallocates at attach time; the steady-state record path is
// allocation-free (enforced by tests/test_zero_alloc.cpp).
#pragma once

#include "dcdl/telemetry/export.hpp"
#include "dcdl/telemetry/metrics.hpp"
#include "dcdl/telemetry/record.hpp"
#include "dcdl/telemetry/recorder.hpp"
