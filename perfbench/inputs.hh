/**
 * @file
 * Generator pieces the replay shares: the workloads' platforms and the
 * simulations behind their traces, level lookup and per-workload
 * constants.
 */

#pragma once

#include <cstdint>
#include <string>

#include "bench.hh"
#include "platform/platform.hh"
#include "trace/trace.hh"

namespace perfbench
{

/**
 * Aggregation depth of a Fig. 8 level name ("grid", "site", "cluster",
 * "host"); 0 is host level, i.e. fully disaggregated.
 */
std::uint16_t levelDepth(const std::string &level);

/** Cap of the initial stabilize that ends set-up. */
std::size_t setupIters(Workload w);

/**
 * The workload's platform: the 2170-host Grid'5000 model, or the seeded
 * 10k-host synthetic grid. The same seed gives the same platform.
 */
viva::platform::Platform buildPlatform(Workload w, std::uint64_t seed);

/** A simulated trace and the solver work behind it. */
struct Simulation
{
    viva::trace::Trace trace;
    std::size_t solves = 0;   ///< fair-share solver runs
    bool drained = false;     ///< every activity ran to completion
};

/**
 * The simulation behind a workload's trace, platform build included:
 * the Fig. 8 scenario of bench/grid_common.hh (g5k-timeline), or a
 * short seeded compute history on the synthetic grid (synth10k-churn).
 * The same seed gives the same trace.
 */
Simulation simulate(Workload w, std::uint64_t seed);

} // namespace perfbench
