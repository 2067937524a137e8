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
 * size and proportional fill. The "leaves" are the node's carrier list
 * (trace::Trace::carriers): every container of the subtree with a
 * non-empty variable, in preorder. One chunked fold over that list
 * yields every aggregated value, with or without statistics.
 *
 * The statistical indicators (variance, median, extrema) implement the
 * paper's stated future-work extension: they flag aggregated nodes whose
 * single value hides wildly heterogeneous behaviour.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
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

    bool operator==(const MetricRequest &) const = default;
};

/**
 * The Eq.-1 spatial reduction of `terms`: left to right inside chunks
 * of a fixed size (64), the chunk partials combined in ascending
 * order, so the result is bitwise identical for every thread count.
 * Every aggregated value folds through it. A span of at most one
 * chunk folds inline, without the pool.
 */
double spatialFold(std::span<const double> terms, SpatialOp op,
                   std::size_t threads = 1);

/**
 * spatialFold through ThreadPool::reduceOrdered for every length, the
 * single chunk included: the reference the inline path must equal
 * bitwise.
 */
double chunkedFold(std::span<const double> terms, SpatialOp op,
                   std::size_t threads = 1);

/**
 * Computes aggregated values against one frozen trace. Stateless apart
 * from the borrowed trace and the thread knob; cheap to construct.
 *
 * Every query reads the trace's carrier list carriers(node, m).
 * value() reduces that list over
 * fixed-size chunks whose partials combine in ascending chunk order,
 * so the result is bitwise identical for every thread count (the chunk
 * decomposition never depends on it).
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
     * The temporal reductions of the node's carrier list, in carrier
     * order (the distribution an aggregated value summarizes).
     * Containers without the variable are skipped. Serial: buildView
     * already runs it inside its workers.
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
     * local), so a query pays no registry lookup.
     */
    support::obs::CounterId valuesCounter;
    support::obs::CounterId closureHits;
};

/** An edge between two visible nodes of an aggregated view. */
struct ViewEdge
{
    trace::ContainerId a;
    trace::ContainerId b;
    /** Number of underlying relations contracted into this edge. */
    std::size_t multiplicity = 1;

    bool operator==(const ViewEdge &) const = default;
};

/** CutProjection::slotOf's mark for a container the cut does not show. */
inline constexpr std::uint32_t kHidden = ~std::uint32_t(0);

/**
 * The slice-independent part of every view of one cut: the visible
 * nodes, how many leaves each covers, and the contracted edges. A view
 * of the cut at any time slice is this plus the Eq.-1 values, so a
 * caller that keeps the cut while scrubbing time (Sec. 3.2.1) projects
 * once per cut change and folds only values per frame.
 */
struct CutProjection
{
    /** The visible nodes, in cut order (HierarchyCut::visibleNodes). */
    std::vector<trace::ContainerId> nodes;
    /** Leaves under nodes[i] (1 for a leaf). */
    std::vector<std::size_t> leafCounts;
    /**
     * Each relation rewired to the representatives of its endpoints;
     * edges inside one aggregated node disappear, parallel edges merge
     * with a multiplicity, in order of first occurrence.
     */
    std::vector<ViewEdge> edges;
    /**
     * Per edge, the index in relations() of the first relation
     * contracted into it (ascending: the edges' order).
     */
    std::vector<std::uint32_t> firstRelation;
    /** Per container, its index in `nodes`, or kHidden if not shown. */
    std::vector<std::uint32_t> slotOf;
    /**
     * Per container, HierarchyCut::representative: the visible node
     * that covers it, or the container itself above the visible nodes.
     */
    std::vector<trace::ContainerId> repOf;

    /** Number of visible nodes. */
    std::size_t size() const { return nodes.size(); }

    /** slotOf[id]; kHidden for every container of an empty projection. */
    std::uint32_t slot(trace::ContainerId id) const
    {
        return id.index() < slotOf.size() ? slotOf[id.index()] : kHidden;
    }

    bool operator==(const CutProjection &) const = default;
};

/**
 * Project `cut` from `prev`, the projection of an earlier cut of the
 * same trace (an empty one for none); the result equals the projection
 * from nothing. One walk of the frozen preorder lists the visible
 * nodes, skipping their subtrees. Only the nodes entering the view
 * change anything: each becomes the representative of its subtree, and
 * the relations incident to that subtree are contracted again, in
 * relation order. Every pair they form holds an entering node, so none
 * meets an edge of `prev` whose endpoints both stay; those keep their
 * multiplicity and first relation, and the two sequences merge by first
 * relation. When the entering subtrees hold at least half the
 * containers, every relation is contracted instead, with the same
 * result. Adds the containers whose representative or slot was
 * rewritten to agg.project.containers and the relations contracted to
 * agg.project.relations. Requires a frozen trace.
 */
CutProjection project(const trace::Trace &trace, const HierarchyCut &cut,
                      const CutProjection &prev);

/** The projection of a cut from nothing: project(trace, cut, {}). */
CutProjection project(const trace::Trace &trace, const HierarchyCut &cut);

/** cutDelta's mark for a node the previous projection does not show. */
inline constexpr std::uint32_t kEntering = kHidden;

/**
 * The delta between two projections of cuts of one trace: for every
 * node of `next`, its index in `prev` (prev.slot), or kEntering when it
 * enters the view. One slot lookup per node of `next`.
 */
std::vector<std::uint32_t> cutDelta(const CutProjection &prev,
                                    const CutProjection &next);

/** The contracted edges of a cut: project(trace, cut).edges. */
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

/** One visible node of a view; its values are row i of View::values. */
struct ViewNode
{
    trace::ContainerId id = trace::kNoContainer;
    bool aggregated = false;     ///< true when it stands for a subtree
    std::size_t leafCount = 0;   ///< leaves it covers (1 for a leaf)

    bool operator==(const ViewNode &) const = default;
};

/**
 * A complete aggregated view: what the topology-based representation
 * displays for one cut and one time slice.
 */
struct View
{
    TimeSlice slice;
    /** What was requested, operators included; column k of every node. */
    std::vector<MetricRequest> requests;
    std::vector<ViewNode> nodes;
    std::vector<ViewEdge> edges;
    /**
     * The Eq.-1 values, nodes.size() x requests.size(), node-major
     * (foldValues' layout): values[i * k + j] is node i's request j.
     */
    std::vector<double> values;
    /** Indicators in the layout of `values`; empty for a plain view. */
    std::vector<ValueStats> stats;

    /** Node i's value of request k. */
    double value(std::size_t i, std::size_t k) const
    {
        return values[i * requests.size() + k];
    }

    /** Index of a node in `nodes`, or npos. */
    std::size_t indexOf(trace::ContainerId id) const;

    /** Value of a metric on a node; 0 when absent. */
    double valueOf(trace::ContainerId id, trace::MetricId m) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/**
 * Set a view's nodes (ids, aggregated flags, leaf counts) and edges to
 * a projection's, reusing their capacity. The slice, requests, values
 * and stats are left as they are.
 */
void reshapeView(View &view, const trace::Trace &trace,
                 const CutProjection &projection);

/**
 * The Eq.-1 values of a projected cut at a time slice, without the
 * view around them: `values` becomes projection.size() x
 * requests.size() doubles, node-major (values[i * k + j] is node i's
 * request j), reusing its capacity. Each value is bitwise the one
 * Aggregator::value computes, for every thread count. Records one
 * agg.build_view phase and adds the fold's values and closure lookups
 * to agg.values and agg.closure.hits once, on success.
 *
 * Cancellable like buildView: past the `deadline` it returns
 * Errc::Deadline and `values` holds a partial fold.
 */
support::Expected<void> foldValues(
    const trace::Trace &trace, const CutProjection &projection,
    const TimeSlice &slice, const std::vector<MetricRequest> &requests,
    std::vector<double> &values, std::size_t threads = 1,
    support::Deadline deadline = {});

/**
 * foldValues for some rows only: each listed row of `values` (already
 * projection.size() x requests.size()) is folded again, bitwise as
 * foldValues would, and every other row is left as it is. Records one
 * agg.build_view phase and adds rows.size() x requests.size() to
 * agg.values and agg.closure.hits, on success. Cancellable like
 * foldValues: past the `deadline` it returns Errc::Deadline with some
 * listed rows folded and others not.
 */
support::Expected<void> foldRows(
    const trace::Trace &trace, const CutProjection &projection,
    const TimeSlice &slice, const std::vector<MetricRequest> &requests,
    std::span<const std::uint32_t> rows, std::vector<double> &values,
    std::size_t threads = 1, support::Deadline deadline = {});

/**
 * Build the aggregated view for a projected cut and a time slice: the
 * nodes, leaf counts and edges are copied from the projection, and
 * only the Eq.-1 values are computed. A plain build is reshapeView plus
 * foldValues into View::values.
 *
 * Visible nodes are aggregated in parallel when `threads > 1` (each
 * worker fills its own node slots, so the view is bitwise identical to
 * the serial build for every thread count). With `with_stats` each
 * value folds the distribution's samples through the same chunked
 * reduction as Aggregator::value, so it is bitwise equal to the value
 * of the plain build.
 *
 * Cancellable: with a `deadline`, every worker polls it once per
 * visible node, and once it has passed the build aborts with
 * Errc::Deadline and discards the partial view. Without one the build
 * cannot fail, so audits and read-only recomputation stay exact.
 *
 * @param trace the trace to aggregate
 * @param projection the spatial scale, project(trace, cut)
 * @param slice the temporal scale
 * @param requests the metrics to aggregate, each with its operators
 * @param with_stats also compute the statistical indicators
 * @param threads worker count; 1 serial, 0 hardware_concurrency
 * @param deadline when the build gives up; none by default
 */
support::Expected<View> buildView(
    const trace::Trace &trace, const CutProjection &projection,
    const TimeSlice &slice, const std::vector<MetricRequest> &requests,
    bool with_stats = false, std::size_t threads = 1,
    support::Deadline deadline = {});

/** The view of a cut: buildView over project(trace, cut). */
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
 * the values (and any stats) hold nodes x requests entries, the edges
 * equal an independent re-projection of the relations (each endpoint
 * walked up to its representative, not read from project()) touching
 * only view nodes, and -- the Equation-1 conservation check -- every
 * aggregated value is bitwise equal to a serial recomputation (one
 * fold, so there is no tolerance).
 * @return the violated invariants; empty when well-formed
 */
support::AuditLog auditView(const trace::Trace &trace,
                            const HierarchyCut &cut, const View &view);

} // namespace viva::agg

