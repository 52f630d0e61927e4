// Umbrella header: the whole public API of dcdl.
//
// For faster builds include only what you use; this header exists for
// exploratory programs and examples.
#pragma once

#include "dcdl/common/flags.hpp"
#include "dcdl/common/rng.hpp"
#include "dcdl/common/units.hpp"

#include "dcdl/sim/sharded.hpp"
#include "dcdl/sim/simulator.hpp"

#include "dcdl/net/packet.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/topo/topology.hpp"

#include "dcdl/routing/bgp.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/routing/mesh_routing.hpp"
#include "dcdl/routing/route_table.hpp"
#include "dcdl/routing/sdn.hpp"

#include "dcdl/device/config.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/device/trace.hpp"

#include "dcdl/traffic/flow.hpp"

#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/boundary.hpp"
#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/analysis/fluid.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/analysis/route_walk.hpp"

#include "dcdl/dataplane/dataplane.hpp"

#include "dcdl/hybrid/hybrid.hpp"

#include "dcdl/mitigation/class_policy.hpp"
#include "dcdl/mitigation/dcqcn.hpp"
#include "dcdl/mitigation/smart_limiter.hpp"
#include "dcdl/mitigation/thresholds.hpp"
#include "dcdl/mitigation/timely.hpp"
#include "dcdl/mitigation/watchdog.hpp"

#include "dcdl/probe/export.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/probe/profiler.hpp"

#include "dcdl/stats/csv.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/latency.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/stats/sampler.hpp"

#include "dcdl/telemetry/telemetry.hpp"

#include "dcdl/watch/export.hpp"
#include "dcdl/watch/rules.hpp"
#include "dcdl/watch/watch.hpp"

#include "dcdl/forensics/forensics.hpp"

#include "dcdl/scenarios/scenario.hpp"

#include "dcdl/campaign/campaign.hpp"
