// Umbrella for dcdl::forensics — offline post-mortem analysis of PFC pause
// propagation: the causal DAG, initial-trigger attribution, and the text /
// DOT / Perfetto-flow renderers plus the flat `forensics.*` summary that
// campaign records carry.
//
// Everything in this subsystem runs after (or entirely outside) the
// simulation; nothing here is callable from the zero-alloc hot path.
#pragma once

#include "dcdl/forensics/causality.hpp"
#include "dcdl/forensics/report.hpp"
#include "dcdl/forensics/trace_io.hpp"
