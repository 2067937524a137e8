/**
 * @file
 * Metric types. Each kind of measured quantity (computing power in
 * MFlops, bandwidth in Mbit/s, utilization in MFlops, ...) is registered
 * once per trace and identified by a dense id. The metric's nature tells
 * the visual mapping which shape property it should drive by default
 * (capacity -> size, utilization -> fill) and the scaling module which
 * values share one pixel scale (Section 4.1).
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/strong_id.hh"

namespace viva::trace
{

/** Tag type of the metric id space (one space per Trace). */
struct MetricTag
{
};

/** Dense identifier of a metric inside one Trace. */
using MetricId = support::StrongId<MetricTag, std::uint16_t>;

/** Sentinel for "no metric". */
inline constexpr MetricId kNoMetric{0xFFFFu};

/** What a metric measures, semantically. */
enum class MetricNature : std::uint8_t
{
    Capacity,     ///< how much of a resource exists (power, bandwidth)
    Utilization,  ///< how much of it is in use; comparable to a capacity
    Gauge,        ///< an arbitrary instantaneous value
    Counter,      ///< a monotonically non-decreasing count
};

/** Human-readable name of a metric nature. */
const char *metricNatureName(MetricNature nature);

/** Parse a nature name produced by metricNatureName(); Gauge on failure. */
MetricNature metricNatureFromName(std::string_view name);

/** Descriptor of one metric type. */
struct Metric
{
    MetricId id = kNoMetric;
    std::string name;   ///< e.g. "power", "bandwidth", "bandwidth_used"
    std::string unit;   ///< e.g. "MFlops", "Mbit/s"
    MetricNature nature = MetricNature::Gauge;

    /**
     * For Utilization metrics: the Capacity metric this utilization is a
     * fraction of (drives the proportional fill of Fig. 1-2).
     */
    MetricId capacityOf = kNoMetric;
};

} // namespace viva::trace

