/**
 * @file
 * Data aggregation over space and time -- Equation 1 of the paper.
 *
 * The measured quantity rho(r, t) is a trace Variable; the temporal
 * neighbourhood is a TimeSlice, the spatial neighbourhood a collapsed
 * subtree of a HierarchyCut. An aggregated node's value is the
 * combination (sum by default) of the time-averages of every leaf below
 * it, so a cluster node's "power" is the cluster's total power and its
 * "power_used" the cluster's total consumption -- directly comparable as
 * size and proportional fill.
 *
 * The statistical indicators (variance, median, extrema) implement the
 * paper's stated future-work extension: they flag aggregated nodes whose
 * single value hides wildly heterogeneous behaviour.
 */

#pragma once

#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "agg/hierarchy_cut.hh"
#include "agg/timeslice.hh"
#include "support/error.hh"
#include "support/governor.hh"
#include "support/obs.hh"
#include "support/stats.hh"
#include "trace/trace.hh"

namespace viva::agg
{

/** How leaf values combine into an aggregated node's value. */
enum class SpatialOp { Sum, Average, Max, Min };

/**
 * How a leaf's variable reduces over the time slice before the spatial
 * combination: the time-average of Equation 1, the peak (for "was it
 * ever saturated?" questions), the minimum, or the raw integral
 * (work done, in metric-unit-seconds).
 */
enum class TemporalOp { Average, Max, Min, Integral };

/**
 * One metric requested from a view, with its reduction operators.
 *
 * The default (time-average then sum) is Equation 1. The paper's
 * limitations section notes that *summing* link utilizations across a
 * group is questionable because flows span several links; requesting
 * links with SpatialOp::Average or Max is the corresponding remedy.
 */
struct MetricRequest
{
    trace::MetricId metric = trace::kNoMetric;
    SpatialOp spatial = SpatialOp::Sum;
    TemporalOp temporal = TemporalOp::Average;

    MetricRequest() = default;

    // explicit so brace-lists of plain MetricIds keep selecting the
    // convenience buildView overload unambiguously.
    explicit MetricRequest(trace::MetricId m,
                           SpatialOp s = SpatialOp::Sum,
                           TemporalOp t = TemporalOp::Average)
        : metric(m), spatial(s), temporal(t)
    {
    }
};

/**
 * Computes aggregated values against one trace. Stateless apart from
 * the borrowed trace and the thread knob; cheap to construct.
 *
 * Reductions over a subtree run over fixed-size leaf chunks whose
 * partials combine in ascending chunk order, so the result is bitwise
 * identical for every thread count (the chunk decomposition never
 * depends on it).
 */
class Aggregator
{
  public:
    /**
     * @param threads workers for the per-leaf reduction; 1 (default)
     *        is serial, 0 means hardware_concurrency. Any value yields
     *        bitwise-identical results.
     */
    explicit Aggregator(const trace::Trace &trace,
                        std::size_t threads = 1);

    /** Change the worker count (same semantics as the constructor). */
    void setThreads(std::size_t threads) { nthreads = threads; }

    /** The configured worker count. */
    std::size_t threads() const { return nthreads; }

    /**
     * Equation 1 for a single container: combine the temporal
     * reductions over `slice` of metric `m` across every leaf under
     * `node` that carries the variable. A leaf container aggregates to
     * its own reduction.
     */
    double value(trace::ContainerId node, trace::MetricId m,
                 const TimeSlice &slice, SpatialOp op = SpatialOp::Sum,
                 TemporalOp top = TemporalOp::Average) const;

    /**
     * The per-leaf temporal reductions under a node (the distribution
     * an aggregated value summarizes). Leaves without the variable are
     * skipped.
     */
    support::Samples distribution(
        trace::ContainerId node, trace::MetricId m,
        const TimeSlice &slice,
        TemporalOp top = TemporalOp::Average) const;

  private:
    const trace::Trace *tr;
    std::size_t nthreads = 1;
    /**
     * Registered once at construction (not per query with a static
     * local), so the disarmed hot path pays one relaxed enabled() load
     * and zero registry lookups.
     */
    support::obs::CounterId valuesCounter;
    support::obs::CounterId closureHits;
    support::obs::CounterId closureMisses;
};

/** An edge between two visible nodes of an aggregated view. */
struct ViewEdge
{
    trace::ContainerId a;
    trace::ContainerId b;
    /** Number of underlying relations contracted into this edge. */
    std::size_t multiplicity = 1;
};

/**
 * Project the trace's relations onto a cut: each underlying relation is
 * rewired to the representatives of its endpoints; edges inside one
 * aggregated node disappear; parallel edges merge with a multiplicity.
 */
std::vector<ViewEdge> visibleEdges(const trace::Trace &trace,
                                   const HierarchyCut &cut);

/** Per-metric statistical indicators of an aggregated value. */
struct ValueStats
{
    double variance = 0.0;
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** One visible node with its aggregated values. */
struct ViewNode
{
    trace::ContainerId id = trace::kNoContainer;
    bool aggregated = false;     ///< true when it stands for a subtree
    std::size_t leafCount = 0;   ///< leaves it covers (1 for a leaf)
    /** Aggregated value per requested metric, metric order of the view. */
    std::vector<double> values;
    /** Indicators per requested metric (filled when requested). */
    std::vector<ValueStats> stats;
};

/**
 * A complete aggregated view: what the topology-based representation
 * displays for one cut and one time slice.
 */
struct View
{
    TimeSlice slice;
    /** What was requested, operators included. */
    std::vector<MetricRequest> requests;
    /** requests[k].metric, kept flat for fast lookups. */
    std::vector<trace::MetricId> metrics;
    std::vector<ViewNode> nodes;
    std::vector<ViewEdge> edges;

    /** Index of a node in `nodes`, or npos. */
    std::size_t indexOf(trace::ContainerId id) const;

    /** Value of a metric on a node; 0 when absent. */
    double valueOf(trace::ContainerId id, trace::MetricId m) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/**
 * Build the aggregated view for a cut and a time slice.
 *
 * Visible nodes are aggregated in parallel when `threads > 1` (each
 * worker fills its own node slots, so the view is bitwise identical to
 * the serial build for every thread count).
 *
 * Cancellable: with a `deadline`, every worker polls it once per
 * visible node, and once it has passed the build aborts with
 * Errc::Deadline and discards the partial view. Without one the build
 * cannot fail, so audits and read-only recomputation stay exact.
 *
 * @param trace the trace to aggregate
 * @param cut the spatial scale
 * @param slice the temporal scale
 * @param requests the metrics to aggregate, each with its operators
 * @param with_stats also compute the statistical indicators
 * @param threads worker count; 1 serial, 0 hardware_concurrency
 * @param deadline when the build gives up; none by default
 */
support::Expected<View> buildView(
    const trace::Trace &trace, const HierarchyCut &cut,
    const TimeSlice &slice, const std::vector<MetricRequest> &requests,
    bool with_stats = false, std::size_t threads = 1,
    support::Deadline deadline = {});

/**
 * Convenience overload: Equation-1 defaults (or `op`) per metric, no
 * deadline.
 */
View buildView(const trace::Trace &trace, const HierarchyCut &cut,
               const TimeSlice &slice,
               const std::vector<trace::MetricId> &metrics,
               SpatialOp op = SpatialOp::Sum, bool with_stats = false,
               std::size_t threads = 1);

/**
 * Write a view as CSV (one row per node, one column per metric, plus
 * stats columns when present) -- for the ggplot-style post-processing
 * workflow the paper's conclusion gestures at.
 */
void writeViewCsv(const View &view, const trace::Trace &trace,
                  std::ostream &out);

/**
 * Deep audit of an aggregated view against the trace and cut it was
 * built from: the nodes are exactly the cut's visible nodes in order,
 * every value vector matches the requests, the edges equal an
 * independent re-projection of the relations, and -- the Equation-1
 * conservation check -- every aggregated value equals a serial
 * recomputation within a 1e-12 relative tolerance.
 * @return the violated invariants; empty when well-formed
 */
support::AuditLog auditView(const trace::Trace &trace,
                            const HierarchyCut &cut, const View &view);

} // namespace viva::agg

