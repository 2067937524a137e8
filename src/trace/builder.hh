/**
 * @file
 * Convenience builder for assembling traces in examples and tests, and
 * the canonical "Figure 1" toy trace used throughout the documentation.
 */

#pragma once

#include <initializer_list>
#include <string>

#include "trace/trace.hh"

namespace viva::trace
{

/**
 * Fluent helper around a Trace. Keeps a current parent so hierarchies can
 * be written as nested begin/end pairs, and registers the conventional
 * metrics (power, power_used, bandwidth, bandwidth_used) on demand.
 */
class TraceBuilder
{
  public:
    TraceBuilder();

    /** The trace under construction (also accessible while building). */
    Trace &trace() { return result; }

    /** Move the finished trace out, frozen. */
    Trace
    take()
    {
        result.freeze();
        return std::move(result);
    }

    /** Open a grouping container and make it the current parent. */
    TraceBuilder &beginGroup(const std::string &name,
                             ContainerKind kind = ContainerKind::Custom);

    /** Close the current group, returning to its parent. */
    TraceBuilder &endGroup();

    /** Add a host under the current parent. */
    ContainerId host(const std::string &name);

    /** Add a link under the current parent. */
    ContainerId link(const std::string &name);

    /** Add a router under the current parent. */
    ContainerId router(const std::string &name);

    /** Relate two containers (an edge of the topology representation). */
    TraceBuilder &relate(ContainerId a, ContainerId b);

    /** Set a metric value at a time for a container. */
    TraceBuilder &set(ContainerId c, const std::string &metric, double t,
                      double v);

    /** Id of the conventional host capacity metric "power" (MFlops). */
    MetricId powerMetric();

    /** Id of the conventional host utilization metric "power_used". */
    MetricId powerUsedMetric();

    /** Id of the conventional link capacity metric "bandwidth" (Mbit/s). */
    MetricId bandwidthMetric();

    /** Id of the conventional link utilization metric "bandwidth_used". */
    MetricId bandwidthUsedMetric();

    /** The current parent container. */
    ContainerId currentGroup() const { return parentStack.back(); }

  private:
    Trace result;
    std::vector<ContainerId> parentStack;
};

/**
 * The toy scenario of Figures 1-2: HostA, HostB and LinkA with
 * availability and utilization varying over [0, 12).
 *
 * Timeline (piecewise constant):
 *  - HostA power: 100 MFlops over [0,4), 10 over [4,8), 100 over [8,12)
 *  - HostB power: 25 over [0,4), 40 over [4,12)
 *  - LinkA bandwidth: constant 10000 Mbit/s
 *  - utilizations ramp differently so the three cursors A=1, B=6, C=10
 *    of Fig. 1 show visibly different graphs.
 */
Trace makeFigure1Trace();

} // namespace viva::trace

