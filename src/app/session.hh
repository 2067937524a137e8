/**
 * @file
 * The analyst's session: one trace, one spatial cut, one time slice,
 * one visual mapping, one evolving layout. Every interactive operation
 * the paper's GUI exposes -- choosing time slices, aggregating and
 * disaggregating groups, moving nodes, turning the charge / spring /
 * damping and per-type size sliders -- is a method here, so analyses
 * can be scripted, tested and benchmarked headlessly.
 *
 * The layout is kept warm across operations: when the cut changes, new
 * aggregated nodes appear at the centroid of what they absorb and
 * disaggregated children fan out around their parent's old position,
 * then the force-directed algorithm smoothly relaxes -- the paper's
 * "smooth evolution of nodes position".
 *
 * One gesture can be bounded in time (setOperationDeadline): the
 * layout and render operations pass a support::Deadline down to the
 * one cancellable body of each layer and abort all or nothing.
 */

#pragma once

#include <cstdint>
#include <string>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "agg/timeslice.hh"
#include "layout/force.hh"
#include "layout/graph.hh"
#include "support/error.hh"
#include "support/governor.hh"
#include "support/obs.hh"
#include "support/retry.hh"
#include "trace/io.hh"
#include "trace/trace.hh"
#include "viz/mapping.hh"
#include "viz/scaling.hh"
#include "viz/scene.hh"

namespace viva::app
{

/** The interactive analysis façade. */
class Session
{
  public:
    /**
     * Take ownership of a trace and start a session over it: the cut is
     * fully disaggregated, the slice covers the whole observation
     * period, mapping and scaling are the defaults.
     */
    explicit Session(trace::Trace trace);

    /**
     * Replace the trace under analysis with one loaded from a file --
     * the native format, or Paje when the path ends in ".paje".
     *
     * Stage-then-swap: every fallible step (I/O, parsing, budget
     * checks) runs on local staging state before any member is
     * touched, so a failed load leaves the session -- trace, cut,
     * slice, layout, sliders -- bitwise unchanged (stateDigest()
     * proves it). On success the session restarts over the new trace
     * exactly as the constructor would.
     */
    support::Expected<void> load(const std::string &path,
                                 const trace::ParseBudget &budget = {});

    /**
     * FNV-1a digest over the observable session state: trace shape,
     * cut, slice, force sliders and every live layout node's position
     * and velocity. Tests compare digests before and after a failed
     * operation to prove nothing mutated.
     */
    std::uint64_t stateDigest() const;

    /** The trace under analysis. */
    const trace::Trace &trace() const { return tr; }

    /** The whole observation period. */
    support::Interval span() const { return tr.span(); }

    // --- the temporal scale -----------------------------------------------

    /** Set the time slice. */
    void setTimeSlice(const agg::TimeSlice &slice);

    /** Set the slice to the i-th of n equal parts of the span. */
    void setSliceOf(agg::SliceIndex i, std::size_t n);

    /** The current time slice. */
    const agg::TimeSlice &timeSlice() const { return slice; }

    // --- the spatial scale -------------------------------------------------

    /**
     * Collapse the container at this path (or unique simple name) into
     * one aggregated node.
     * @retval false when no such container exists
     */
    bool aggregate(const std::string &path);

    /** Expand an aggregated node one level. @retval false if unknown */
    bool disaggregate(const std::string &path);

    /** Collapse every internal container at this depth (Fig. 8 levels). */
    void aggregateToDepth(std::uint16_t depth);

    /**
     * Focus on one container: full detail inside it, one aggregated
     * node per other sibling subtree (the outlier-hunting gesture).
     * @retval false when no such container exists
     */
    bool focus(const std::string &path);

    /** Fully disaggregate. */
    void resetAggregation();

    /** The current cut (read-only; mutate through the methods above). */
    const agg::HierarchyCut &cut() const { return hierCut; }

    // --- appearance -----------------------------------------------------

    /** The visual mapping rules (mutable: remapping mid-analysis). */
    viz::VisualMapping &mapping() { return visMapping; }

    /** The per-type scaling and its sliders. */
    viz::TypeScaling &scaling() { return typeScaling; }
    const viz::TypeScaling &scaling() const { return typeScaling; }

    /** The force parameters (the charge/spring/damping sliders). */
    layout::ForceParams &forceParams() { return force.params(); }

    // --- threading -------------------------------------------------------

    /**
     * Worker threads used by the layout force accumulation and by view
     * aggregation (the `set threads` command). Defaults to
     * hardware_concurrency. Purely a speed knob: layouts and aggregated
     * values are bitwise identical for every setting.
     * @param n clamped to at least 1
     */
    void setThreads(std::size_t n);

    /** The current worker-thread count. */
    std::size_t threads() const { return nThreads; }

    // --- the layout -------------------------------------------------------

    /**
     * Run the force-directed algorithm until it settles (or the
     * iteration budget runs out). When an operation deadline is set
     * (setOperationDeadline), the session's engine runs under it and
     * the node vector is saved first: a deadline abort restores it and
     * returns Errc::Deadline, so every position and velocity is
     * bitwise unchanged. Without a deadline this cannot fail.
     * @return iterations performed
     */
    support::Expected<std::size_t>
    stabilizeLayout(std::size_t max_iters = 300);

    /**
     * Advance exactly n iterations (same all-or-nothing deadline
     * semantics as stabilizeLayout).
     */
    support::Expected<void> stepLayout(std::size_t n = 1);

    /**
     * Drag the named node to a position; its neighbours follow through
     * the springs while it is held, then it is released.
     * @retval false when the container is not a visible node
     */
    bool moveNode(const std::string &path, double x, double y);

    /** Pin a visible node in place (true) or release it (false). */
    bool pinNode(const std::string &path, bool pinned);

    /**
     * The layout graph (read access for metrics and tests). Every cut
     * change replaces it, so node ids are valid only until the next
     * aggregate/disaggregate/focus/depth/reset; hold keys instead.
     */
    const layout::LayoutGraph &layoutGraph() const { return graph; }

    /**
     * Mutable layout graph, for advanced uses (custom placements,
     * benchmarks). Node/edge membership is owned by the session --
     * only positions and pins should be touched; the next cut change
     * recomputes charges.
     */
    layout::LayoutGraph &mutableLayoutGraph() { return graph; }

    /** The layout engine. */
    const layout::ForceLayout &layoutEngine() const { return force; }

    // --- output -----------------------------------------------------------

    /** The aggregated view for the current cut and slice. */
    agg::View view(bool with_stats = false) const;

    /**
     * Compose the current scene.
     * @param options canvas / labelling / pie options
     * @param with_stats build the view with statistical indicators so
     *        heterogeneous aggregates get flagged in the rendering
     */
    viz::Scene scene(const viz::SceneOptions &options = {},
                     bool with_stats = false);

    /** Render the current scene to an SVG file. */
    support::Expected<void> renderSvg(const std::string &path,
                                      const std::string &title = "");

    /** Render the current scene as ASCII art. */
    std::string renderAscii();

    /**
     * Render a treemap of the hierarchy weighted by a metric over the
     * current time slice (the sibling multiscale view). An unknown
     * metric yields Errc::NotFound.
     */
    support::Expected<void> renderTreemap(const std::string &path,
                                          const std::string &metric_name,
                                          std::uint16_t max_depth = 0);

    /**
     * Render the Gantt chart of the trace's state records over the
     * current time slice (the classical timeline baseline).
     * @return number of rows drawn
     */
    support::Expected<std::size_t> renderGantt(const std::string &path,
                                               std::size_t max_rows = 64);

    /**
     * Write the current view (with statistics) as CSV, for external
     * plotting tools.
     */
    support::Expected<void> exportCsv(const std::string &path) const;

    /**
     * Render a line chart of a metric over the whole span for the
     * given containers (paths or unique names); an empty list charts
     * the whole platform as one series. An unknown metric or
     * container yields Errc::NotFound.
     */
    support::Expected<void> renderChart(
        const std::string &path, const std::string &metric_name,
        const std::vector<std::string> &containers = {});

    /**
     * Run both anomaly detectors for a metric: the spatial one on the
     * current cut and slice, the temporal one on the current cut over
     * the whole span. Human-readable findings, strongest first.
     * @retval empty-and-one-error-line vector when the metric is bad
     */
    std::vector<std::string> findAnomalies(
        const std::string &metric_name, double threshold = 3.0) const;

    /**
     * Save the trace under analysis to a file, in the native format or
     * (path ending in ".paje") the Paje format.
     */
    support::Expected<void> saveTrace(const std::string &path) const;

    /**
     * Animate through time (Fig. 9): split the span into `frames` equal
     * slices and render each to `<dir>/<prefix>NNN.svg`, relaxing the
     * layout between frames. The slice is left at the last frame.
     * @return number of frames written
     */
    support::Expected<std::size_t> animate(
        std::size_t frames, const std::string &dir,
        const std::string &prefix = "frame",
        std::size_t iters_per_frame = 60);

    // --- durability -------------------------------------------------------

    /**
     * Write a crash-safe checkpoint of the whole session (trace, cut,
     * slice, sliders, budgets, every layout node's position and
     * velocity) to `path` in the `viva-ckpt-1` format. The bytes go to
     * a temp file and are atomically renamed into place, so a crash at
     * any byte leaves the previous checkpoint or the new one, never a
     * torn file. Transient I/O failures are retried under
     * retryPolicy().
     */
    support::Expected<void> checkpoint(const std::string &path) const;

    /**
     * Restore the session from a checkpoint file. Stage-then-swap like
     * load(): the file is read, checksummed, parsed and fully
     * validated (embedded trace, cut flags, node set, finiteness) on
     * staging state before any member is touched, so a failed restore
     * leaves the session bitwise unchanged. A successful restore is
     * bitwise-equivalent to the checkpointed session: stateDigest()
     * before checkpoint() equals stateDigest() after restore().
     */
    support::Expected<void>
    restore(const std::string &path,
            const trace::ParseBudget &budget = {});

    /** The retry policy governing transient-I/O retries (mutable). */
    support::RetryPolicy &retryPolicy() { return ioRetry; }

    // --- resource governance ----------------------------------------------

    /**
     * Set the memory budget in bytes (0 disables). The budget compares
     * against workingSetBytes(); when the working set is above it, the
     * session degrades gracefully: the hierarchy cut is coarsened one
     * level at a time (Eq. 1 aggregation as load shedding) until the
     * model fits or only the root level is left. Degradation runs here
     * and after every operation that grows the working set.
     */
    void setMemoryBudget(std::uint64_t bytes);

    /** The current memory budget (0 = disabled). */
    std::uint64_t memoryBudget() const { return memBudgetBytes; }

    /**
     * Set the per-operation deadline in nanoseconds (0 disables).
     * While set, each stabilizeLayout / stepLayout / renderSvg call
     * (and so each frame of animate) builds a support::Deadline from
     * it and passes it down: work past the deadline is cooperatively
     * cancelled and the operation returns Errc::Deadline with the
     * session state bitwise unchanged. view(), scene() and
     * auditInvariants() never take a deadline.
     */
    void setOperationDeadline(std::uint64_t nanos);

    /** The current per-operation deadline (0 = disabled). */
    std::uint64_t operationDeadline() const { return opDeadlineNanos; }

    /**
     * Deterministic working-set model in bytes: per-record accounting
     * over the trace, the layout graph and the aggregated view of the
     * current cut -- NOT an OS probe, so budgets behave identically
     * across allocators and platforms.
     */
    std::uint64_t workingSetBytes() const;

    /** Cut coarsenings forced by the memory budget so far. */
    std::uint64_t degradationCount() const { return degradations; }

    /** Operations aborted by their deadline so far. */
    std::uint64_t deadlineAbortCount() const { return deadlineAborts; }

    // --- observability ----------------------------------------------------

    /**
     * A deterministic snapshot of the process-wide metrics registry:
     * every counter, gauge and phase histogram the hot paths have
     * recorded so far, sorted by name. The `stats` command renders
     * exactly this. Note the registry is process-wide, so the snapshot
     * spans every session in the process (there is normally one).
     */
    support::obs::StatsSnapshot
    observability() const
    {
        return support::obs::Registry::global().snapshot();
    }

    // --- auditing ---------------------------------------------------------

    /**
     * Run every module's deep invariant audit over the session's state:
     * the trace, the cut, the layout graph (finite positions included)
     * and the aggregated view of the current cut and slice, with its
     * Equation-1 conservation check. In a -DVIVA_VALIDATE=ON build this
     * runs automatically after every mutating command and panics on the
     * first violation; call it directly for an on-demand check.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

  private:
    /**
     * Rebuild the layout graph densely from the current cut, in cut
     * order: carry the state of surviving nodes over by key, place
     * aggregates at absorbed centroids, fan disaggregated children
     * around their parent, then add the visible edges. The result
     * depends on the cut and the previous positions only, never on
     * the session's earlier history.
     */
    void syncLayout();

    /**
     * Run one layout operation under the operation deadline, all or
     * nothing: on a deadline abort the node vector is restored and the
     * abort counted; on success the session is audited.
     */
    template <typename T, typename Run>
    support::Expected<T> runLayout(const char *what, Run run);

    /** The current view; cancellable by `deadline`. */
    support::Expected<agg::View>
    viewWithin(bool with_stats, support::Deadline deadline) const;

    /** view -> position snapshot -> scene; cancellable by `deadline`. */
    support::Expected<viz::Scene>
    sceneWithin(const viz::SceneOptions &options, bool with_stats,
                support::Deadline deadline);

    /** In a validate build, audit everything and panic on violations. */
    void maybeAudit(const char *what) const;

    /** Layout node of a container path; kNoNode when not visible. */
    layout::NodeId nodeOf(const std::string &path) const;

    /**
     * Degrade until the working set fits the memory budget (or the
     * ladder is exhausted at the root level). No-op without a budget.
     */
    void enforceBudget();

    /** Deepest depth among the currently visible containers. */
    std::uint16_t deepestVisibleDepth() const;

    trace::Trace tr;
    agg::HierarchyCut hierCut;
    agg::TimeSlice slice;
    viz::VisualMapping visMapping;
    viz::TypeScaling typeScaling;
    layout::LayoutGraph graph;
    layout::ForceLayout force;
    std::size_t nThreads;
    support::RetryPolicy ioRetry;
    std::uint64_t memBudgetBytes = 0;
    std::uint64_t opDeadlineNanos = 0;
    std::uint64_t degradations = 0;
    std::uint64_t deadlineAborts = 0;
};

} // namespace viva::app

