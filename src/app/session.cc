/**
 * @file
 * Implementation of the analysis session.
 */

#include "app/session.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "agg/anomaly.hh"
#include "app/checkpoint.hh"
#include "layout/metrics.hh"
#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/threadpool.hh"
#include "viz/ascii.hh"
#include "viz/chart.hh"
#include "viz/gantt.hh"
#include "viz/svg.hh"
#include "viz/treemap.hh"
#include "support/strings.hh"
#include "trace/io.hh"
#include "trace/paje.hh"

namespace viva::app
{

namespace obs = support::obs;

using trace::ContainerId;

namespace
{

/** Deterministic fan-out offset for the i-th new child of a parent. */
layout::Vec2
fanOffset(std::size_t i, double radius)
{
    // Golden-angle spiral: children of one parent never overlap.
    constexpr double golden = 2.399963229728653;
    double angle = golden * double(i + 1);
    double r = radius * (1.0 + 0.15 * double(i));
    return {r * std::cos(angle), r * std::sin(angle)};
}

} // namespace

Session::Session(trace::Trace trace_in)
    : tr(std::move(trace_in)), traceSpan(tr.span()), hierCut(tr),
      slice(traceSpan),
      visMapping(viz::VisualMapping::defaults(tr)), typeScaling(),
      graph(), force(graph), nThreads(support::defaultThreadCount())
{
    force.params().threads = nThreads;
    // Hand-built traces (tests, examples) may arrive unfrozen; readers
    // and TraceBuilder::take() have already frozen theirs.
    tr.freeze();
    syncLayout();
    maybeAudit("Session::Session");
}

support::Expected<void>
Session::load(const std::string &path, const trace::ParseBudget &budget)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("session.load");
    static const obs::CounterId loads = reg.counter("session.loads");
    static const obs::CounterId errors =
        reg.counter("session.load.errors");
    obs::ScopedPhase timer(phase);

    // --- stage ------------------------------------------------------------
    // Everything fallible runs on locals; no member is touched until
    // the whole file has parsed, so failure leaves the session intact.
    // Transient I/O failures (and only those: a Parse or Budget error
    // is a property of the bytes and retrying cannot change it) are
    // retried with bounded exponential backoff before giving up.
    trace::Trace staged;
    std::vector<std::string> import_warnings;
    if (support::endsWith(path, ".paje")) {
        support::Expected<trace::PajeImport> import =
            support::retryWithBackoff(ioRetry, [&] {
                // viva-analyze: allow(context-on-propagate): per-attempt pass-through; the caller stamps one frame after the retries
                return trace::readPajeTraceFile(path, budget);
            });
        if (!import) {
            reg.add(errors);
            return VIVA_ERROR_CONTEXT(import.error(), "Session::load");
        }
        staged = std::move(import->trace);
        import_warnings = std::move(import->warnings);
    } else {
        support::Expected<trace::Trace> loaded =
            support::retryWithBackoff(ioRetry, [&] {
                // viva-analyze: allow(context-on-propagate): per-attempt pass-through; the caller stamps one frame after the retries
                return trace::readTraceFile(path, budget);
            });
        if (!loaded) {
            reg.add(errors);
            return VIVA_ERROR_CONTEXT(loaded.error(), "Session::load");
        }
        staged = std::move(*loaded);
    }
    reg.add(loads);

    // --- swap -------------------------------------------------------------
    // Infallible from here: rebuild every member in place, in the same
    // order the constructor initializes them. The ForceLayout borrows
    // `graph` by reference; assigning a fresh graph into the existing
    // object keeps that reference valid.
    for (const std::string &w : import_warnings)
        support::warnLimited("paje.import", "Session::load", w);
    tr = std::move(staged);
    traceSpan = tr.span();
    hierCut = agg::HierarchyCut(tr);
    slice = traceSpan;
    visMapping = viz::VisualMapping::defaults(tr);
    typeScaling = viz::TypeScaling();
    forgetCut();
    force.params() = layout::ForceParams();
    force.params().threads = nThreads;
    syncLayout();
    enforceBudget();
    maybeAudit("Session::load");
    return {};
}

std::uint64_t
Session::stateDigest() const
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto mixDouble = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    };

    mix(tr.containerCount());
    mix(tr.metricCount());
    mix(tr.states().size());
    mix(tr.relations().size());
    mix(cutProj.size());
    mixDouble(slice.begin);
    mixDouble(slice.end);
    const layout::ForceParams &p = force.params();
    mixDouble(p.charge);
    mixDouble(p.spring);
    mixDouble(p.damping);
    mix(nThreads);
    mix(memBudgetBytes);
    mix(opDeadlineNanos);
    // Sorted by key, not slot order: slots follow the cut's preorder,
    // an implementation detail of the graph -- the digest must agree
    // whenever the observable state (key, position, velocity) does.
    std::vector<const layout::Node *> sorted;
    sorted.reserve(graph.nodeCount());
    for (const layout::Node &n : graph.rawNodes())
        sorted.push_back(&n);
    std::sort(sorted.begin(), sorted.end(),
              [](const layout::Node *a, const layout::Node *b) {
                  return a->key < b->key;
              });
    for (const layout::Node *n : sorted) {
        mix(n->key);
        mixDouble(n->position.x);
        mixDouble(n->position.y);
        mixDouble(n->velocity.x);
        mixDouble(n->velocity.y);
    }
    mix(graph.edgeCount());
    return h;
}

void
Session::setThreads(std::size_t n)
{
    nThreads = std::max<std::size_t>(n, 1);
    force.params().threads = nThreads;
    maybeAudit("Session::setThreads");
}

void
Session::setTimeSlice(const agg::TimeSlice &s)
{
    slice = s;
    maybeAudit("Session::setTimeSlice");
}

void
Session::setSliceOf(agg::SliceIndex i, std::size_t n)
{
    slice = agg::sliceAt(span(), i, n);
    maybeAudit("Session::setSliceOf");
}

bool
Session::aggregate(const std::string &path)
{
    ContainerId id = findContainer(path);
    if (id == trace::kNoContainer)
        return false;
    hierCut.aggregate(id);
    syncLayout();
    enforceBudget();
    maybeAudit("Session::aggregate");
    return true;
}

bool
Session::disaggregate(const std::string &path)
{
    ContainerId id = findContainer(path);
    if (id == trace::kNoContainer)
        return false;
    hierCut.disaggregate(id);
    syncLayout();
    enforceBudget();
    maybeAudit("Session::disaggregate");
    return true;
}

void
Session::aggregateToDepth(std::uint16_t depth)
{
    hierCut.aggregateToDepth(depth);
    syncLayout();
    enforceBudget();
    maybeAudit("Session::aggregateToDepth");
}

bool
Session::focus(const std::string &path)
{
    ContainerId id = findContainer(path);
    if (id == trace::kNoContainer)
        return false;
    hierCut.focus({id});
    syncLayout();
    enforceBudget();
    maybeAudit("Session::focus");
    return true;
}

void
Session::resetAggregation()
{
    hierCut.reset();
    syncLayout();
    enforceBudget();
    maybeAudit("Session::resetAggregation");
}

void
Session::forgetCut()
{
    cutProj = agg::CutProjection();
    graph = layout::LayoutGraph();
    stored = agg::View();
    pendingRows.clear();
}

void
Session::waitForEveryRow() const
{
    stored.values.resize(cutProj.size() * stored.requests.size());
    pendingRows.resize(cutProj.size());
    std::iota(pendingRows.begin(), pendingRows.end(), 0u);
}

void
Session::carryStoredRows(const std::vector<std::uint32_t> &from)
{
    // Rows still waiting from an earlier cut change (no view came in
    // between), or none surviving (a depth walk, a reset from a coarse
    // level): every row waits.
    if (!pendingRows.empty() ||
        std::all_of(from.begin(), from.end(), [](std::uint32_t old) {
            return old == agg::kEntering;
        }))
        return waitForEveryRow();
    // Survivors keep their order, so their rows move within the
    // vector's own capacity: rows moving to a lower index in ascending
    // order, rows moving to a higher one in descending order, and
    // neither pass overwrites a row the other still has to move.
    const std::size_t n = from.size();
    const std::size_t k = stored.requests.size();
    std::vector<double> &values = stored.values;
    values.resize(std::max(values.size(), n * k));
    auto move = [&](std::size_t i) {
        std::copy_n(values.begin() + std::ptrdiff_t(from[i] * k), k,
                    values.begin() + std::ptrdiff_t(i * k));
    };
    for (std::size_t i = 0; i < n; ++i)
        if (from[i] != agg::kEntering && from[i] > i)
            move(i);
    for (std::size_t i = n; i-- > 0;)
        if (from[i] != agg::kEntering && from[i] < i)
            move(i);
    values.resize(n * k);
    // The entering rows wait for the next view.
    for (std::size_t i = 0; i < n; ++i)
        if (from[i] == agg::kEntering)
            pendingRows.push_back(std::uint32_t(i));
}

void
Session::syncLayout()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("session.sync_layout");
    obs::ScopedPhase timer(phase);

    agg::CutProjection projected = agg::project(tr, hierCut, cutProj);
    // The cut delta, computed once: survivors carry their layout state
    // and their stored Eq.-1 rows over by position in the old
    // projection, which the graph mirrors slot for slot.
    const std::vector<std::uint32_t> from =
        agg::cutDelta(cutProj, projected);
    VIVA_ASSERT(graph.rawNodes().size() == cutProj.size(), "layout of ",
                graph.rawNodes().size(), " nodes for a ", cutProj.size(),
                "-node projection");
    const agg::CutProjection prev =
        std::exchange(cutProj, std::move(projected));
    // The stored view follows the cut: rows folded for the old one are
    // carried over, the entering ones wait for the next view.
    carryStoredRows(from);
    agg::reshapeView(stored, tr, cutProj);

    // Rebuild the graph densely in cut order. Nodes already laid out
    // carry their state over; nodes entering the view are placed from
    // the old graph only, never from one another, found through the
    // old projection's slot map.
    const std::vector<ContainerId> &visible = cutProj.nodes;
    layout::LayoutGraph next;
    std::size_t ring_index = 0;
    std::vector<std::uint32_t> child_index;  // per old slot, when needed

    for (std::size_t i = 0; i < visible.size(); ++i) {
        const ContainerId id = visible[i];
        const double charge = double(cutProj.leafCounts[i]);
        if (from[i] != agg::kEntering) {
            const layout::Node &old =
                graph.node(layout::NodeId::fromIndex(from[i]));
            VIVA_ASSERT(old.key == id.value(), "layout slot ", from[i],
                        " holds key ", old.key, ", not container ", id);
            layout::NodeId n = next.addNode(id.value(), old.position,
                                            charge);
            layout::Node &kept = next.mutableNodes()[n.index()];
            kept.velocity = old.velocity;
            kept.pinned = old.pinned;
            continue;
        }

        // Aggregation: absorb the centroid of current descendants.
        layout::Vec2 centroid;
        std::size_t absorbed = 0;
        for (ContainerId d : tr.cachedSubtree(id)) {
            std::uint32_t desc = prev.slot(d);
            if (desc != agg::kHidden && d != id) {
                centroid += graph.rawNodes()[desc].position;
                ++absorbed;
            }
        }
        if (absorbed > 0) {
            next.addNode(id.value(), centroid / double(absorbed), charge);
            continue;
        }

        // Disaggregation: fan out around the nearest present ancestor.
        ContainerId anc = id;
        bool placed = false;
        while (anc != tr.root()) {
            anc = tr.container(anc).parent;
            std::uint32_t a = prev.slot(anc);
            if (a != agg::kHidden) {
                child_index.resize(prev.size());
                std::size_t k = child_index[a]++;
                double radius =
                    std::max(force.params().restLength * 0.5, 10.0);
                next.addNode(id.value(),
                             graph.rawNodes()[a].position +
                                 fanOffset(k, radius),
                             charge);
                placed = true;
                break;
            }
        }
        if (placed)
            continue;

        // Fresh node (initial build): deterministic ring placement.
        double n = double(visible.size());
        double radius = std::max(force.params().restLength, 20.0) *
                        std::sqrt(n) * 0.5;
        double angle = 2.0 * M_PI * double(ring_index) /
                       std::max(n, 1.0);
        // Stagger radius a little so rings of equal size do not alias.
        double r =
            radius *
            (0.8 + 0.2 * (static_cast<double>(ring_index % 7) / 7.0));
        next.addNode(id.value(),
                     layout::Vec2{r * std::cos(angle), r * std::sin(angle)},
                     charge);
        ++ring_index;
    }

    // Endpoints are visible, so their slots are the new nodes' ids.
    for (const agg::ViewEdge &e : cutProj.edges) {
        double strength = 1.0 + std::log2(double(e.multiplicity));
        next.addEdge(layout::NodeId::fromIndex(cutProj.slotOf[e.a.index()]),
                     layout::NodeId::fromIndex(cutProj.slotOf[e.b.index()]),
                     strength);
    }
    // Assign in place: `force` borrows `graph` by reference.
    graph = std::move(next);

    static const obs::GaugeId visible_nodes =
        reg.gauge("session.visible_nodes");
    static const obs::GaugeId layout_edges =
        reg.gauge("session.layout_edges");
    reg.set(visible_nodes, std::int64_t(graph.nodeCount()));
    reg.set(layout_edges, std::int64_t(graph.edgeCount()));
}

template <typename T, typename Run>
support::Expected<T>
Session::runLayout(const char *what, Run run)
{
    const support::Deadline deadline =
        support::Deadline::after(opDeadlineNanos);
    // All-or-nothing: a layout run changes node state only, never the
    // graph's structure, so the node vector is the whole undo log.
    // Nothing can abort without a deadline, so nothing is saved then.
    std::vector<layout::Node> entry;
    if (deadline.armed())
        entry = graph.rawNodes();
    support::Expected<T> done = run(deadline);
    if (!done) {
        ++deadlineAborts;
        graph.mutableNodes() = std::move(entry);
        return VIVA_ERROR_CONTEXT(done.error(), what);
    }
    maybeAudit(what);
    return done;
}

support::Expected<std::size_t>
Session::stabilizeLayout(std::size_t max_iters)
{
    return runLayout<std::size_t>(
        "Session::stabilizeLayout",
        [&](support::Deadline deadline) -> support::Expected<std::size_t> {
            support::Expected<std::size_t> done =
                force.stabilize(max_iters, 1e-3, deadline);
            if (!done)
                return VIVA_ERROR_CONTEXT(done.error(), "at most ",
                                          max_iters, " iterations");
            return done;
        });
}

support::Expected<void>
Session::stepLayout(std::size_t n)
{
    return runLayout<void>(
        "Session::stepLayout",
        [&](support::Deadline deadline) -> support::Expected<void> {
            for (std::size_t i = 0; i < n; ++i) {
                support::Expected<double> stepped =
                    force.step(1.0, deadline);
                if (!stepped)
                    return VIVA_ERROR_CONTEXT(stepped.error(),
                                              "at iteration ", i,
                                              " of ", n);
            }
            return {};
        });
}

ContainerId
Session::findContainer(const std::string &path) const
{
    ContainerId id = tr.findByPath(path);
    return id != trace::kNoContainer ? id : tr.findByName(path);
}

layout::NodeId
Session::nodeOf(const std::string &path) const
{
    return layoutNode(findContainer(path));
}

layout::NodeId
Session::layoutNode(ContainerId id) const
{
    std::uint32_t slot = cutProj.slot(id);  // kHidden for kNoContainer
    return slot == agg::kHidden ? layout::kNoNode
                                : layout::NodeId::fromIndex(slot);
}

bool
Session::moveNode(const std::string &path, double x, double y)
{
    if (!std::isfinite(x) || !std::isfinite(y))
        return false;
    layout::NodeId n = nodeOf(path);
    if (n == layout::kNoNode)
        return false;
    // The drag is part of the operation: an abort restores the node
    // vector saved before it, position and pin flag included.
    return runLayout<std::size_t>(
               "Session::moveNode",
               [&](support::Deadline deadline) {
                   force.dragNode(n, {x, y});
                   support::Expected<std::size_t> settled =
                       force.stabilize(40, 1e-3, deadline);
                   force.releaseNode(n);
                   return settled;
               })
        .ok();
}

bool
Session::pinNode(const std::string &path, bool pinned)
{
    layout::NodeId n = nodeOf(path);
    if (n == layout::kNoNode)
        return false;
    graph.setPinned(n, pinned);
    maybeAudit("Session::pinNode");
    return true;
}

namespace
{

/** The Eq.-1 default (time-average, then sum) for each metric. */
std::vector<agg::MetricRequest>
sumRequests(const std::vector<trace::MetricId> &metrics)
{
    std::vector<agg::MetricRequest> requests;
    requests.reserve(metrics.size());
    for (trace::MetricId m : metrics)
        requests.emplace_back(m);
    return requests;
}

/** Same bits: a fold of one slice is a fold of the other. */
bool
sameSlice(const agg::TimeSlice &a, const agg::TimeSlice &b)
{
    return std::bit_cast<std::uint64_t>(a.begin) ==
               std::bit_cast<std::uint64_t>(b.begin) &&
           std::bit_cast<std::uint64_t>(a.end) ==
               std::bit_cast<std::uint64_t>(b.end);
}

} // namespace

bool
Session::storedKeyCurrent(
    const std::vector<agg::MetricRequest> &requests) const
{
    return sameSlice(stored.slice, slice) && stored.requests == requests;
}

support::Expected<void>
Session::foldStored(support::Deadline deadline) const
{
    std::vector<agg::MetricRequest> requests =
        sumRequests(visMapping.referencedMetrics());
    if (!storedKeyCurrent(requests)) {
        stored.slice = slice;
        stored.requests = std::move(requests);
        waitForEveryRow();
    }
    if (pendingRows.empty())
        return {};
    support::Expected<void> folded =
        agg::foldRows(tr, cutProj, slice, stored.requests, pendingRows,
                      stored.values, nThreads, deadline);
    if (!folded) {
        waitForEveryRow();  // a partial fold is never served
        return VIVA_ERROR_CONTEXT(folded.error(), "Session view");
    }
    pendingRows.clear();
    return {};
}

agg::View
Session::view(bool with_stats) const
{
    if (with_stats)
        return agg::buildView(tr, cutProj, slice,
                              sumRequests(visMapping.referencedMetrics()),
                              true, nThreads)
            .value();
    foldStored({}).value();
    return stored;
}

support::Expected<viz::Scene>
Session::sceneWithin(const viz::SceneOptions &options, bool with_stats,
                     support::Deadline deadline)
{
    agg::View with_stats_view;
    if (with_stats)
        with_stats_view = view(true);
    else if (support::Expected<void> folded = foldStored(deadline);
             !folded)
        return VIVA_ERROR_CONTEXT(folded.error(), "Session scene");
    layout::Snapshot positions = layout::snapshotPositions(graph);
    return viz::composeScene(with_stats ? with_stats_view : stored, tr,
                             positions, visMapping, typeScaling, options);
}

viz::Scene
Session::scene(const viz::SceneOptions &options, bool with_stats)
{
    return sceneWithin(options, with_stats, {}).value();
}

support::Expected<void>
Session::renderSvg(const std::string &path, const std::string &title)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("session.render");
    obs::ScopedPhase timer(phase);

    // The aggregation (the dominant cost on large cuts) runs under the
    // operation deadline and discards its partial view on abort.
    // Rendering never mutates session state, so nothing is rolled back.
    support::Expected<viz::Scene> sc = sceneWithin(
        {}, false, support::Deadline::after(opDeadlineNanos));
    if (!sc) {
        ++deadlineAborts;
        return VIVA_ERROR_CONTEXT(sc.error(), "Session::renderSvg");
    }
    viz::SvgOptions options;
    options.title = title;
    support::Expected<void> written =
        viz::writeSvgFile(*sc, path, options);
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::renderSvg");
    return written;
}

std::string
Session::renderAscii()
{
    return viz::renderAscii(scene());
}

support::Expected<void>
Session::renderTreemap(const std::string &path,
                       const std::string &metric_name,
                       std::uint16_t max_depth)
{
    trace::MetricId m = tr.findMetric(metric_name);
    if (m == trace::kNoMetric)
        return VIVA_ERROR(support::Errc::NotFound, "unknown metric '",
                          metric_name, "'");
    viz::TreemapOptions options;
    options.maxDepth = max_depth;
    viz::Treemap map = viz::buildTreemap(tr, m, slice, options);
    support::Expected<void> written = viz::writeTreemapSvgFile(
        map, path, "treemap of " + metric_name);
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::renderTreemap");
    return written;
}

support::Expected<std::size_t>
Session::renderGantt(const std::string &path, std::size_t max_rows)
{
    viz::GanttOptions options;
    options.maxRows = max_rows;
    viz::GanttChart chart = viz::buildGantt(tr, slice, options);
    viz::GanttSvgOptions svg;
    svg.title = "state timeline";
    support::Expected<void> written =
        viz::writeGanttSvgFile(chart, path, svg);
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::renderGantt");
    return chart.rows.size();
}

support::Expected<void>
Session::renderChart(const std::string &path,
                     const std::string &metric_name,
                     const std::vector<std::string> &containers)
{
    trace::MetricId m = tr.findMetric(metric_name);
    if (m == trace::kNoMetric)
        return VIVA_ERROR(support::Errc::NotFound, "unknown metric '",
                          metric_name, "'");

    std::vector<ContainerId> nodes;
    if (containers.empty()) {
        nodes.push_back(tr.root());
    } else {
        for (const std::string &ref : containers) {
            ContainerId id = findContainer(ref);
            if (id == trace::kNoContainer)
                return VIVA_ERROR(support::Errc::NotFound,
                                  "unknown container '", ref, "'");
            nodes.push_back(id);
        }
    }

    std::vector<viz::ChartSeries> series;
    for (ContainerId id : nodes)
        series.push_back(viz::sampleSeries(tr, id, m, span()));

    viz::ChartOptions options;
    options.title = metric_name + " over time";
    options.yLabel = tr.metric(m).unit;
    support::Expected<void> written =
        viz::writeChartSvgFile(series, path, options);
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::renderChart");
    return written;
}

support::Expected<void>
Session::exportCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return VIVA_ERROR(support::Errc::Io, "cannot open '", path,
                          "' for writing");
    agg::View v = view(/*with_stats=*/true);
    agg::writeViewCsv(v, tr, out);
    out.flush();
    if (!out)
        return VIVA_ERROR(support::Errc::Io, "write failed for '", path,
                          "'");
    return {};
}

std::vector<std::string>
Session::findAnomalies(const std::string &metric_name,
                       double threshold) const
{
    trace::MetricId m = tr.findMetric(metric_name);
    if (m == trace::kNoMetric)
        return {"error: unknown metric '" + metric_name + "'"};

    agg::AnomalyOptions options;
    options.threshold = threshold;

    std::vector<std::string> out;
    for (const agg::Anomaly &a :
         agg::findSpatialAnomalies(tr, hierCut, m, slice, options))
        out.push_back(agg::describeAnomaly(tr, a, m));
    for (const agg::Anomaly &a :
         agg::findTemporalAnomalies(tr, hierCut, m, span(), options))
        out.push_back(agg::describeAnomaly(tr, a, m));
    return out;
}

support::Expected<void>
Session::saveTrace(const std::string &path) const
{
    support::Expected<void> written =
        support::endsWith(path, ".paje")
            ? trace::writePajeTraceFile(tr, path)
            : trace::writeTraceFile(tr, path);
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::saveTrace");
    return written;
}

support::AuditLog
Session::auditInvariants() const
{
    // Tag each module's violations so a combined log reads clearly.
    support::AuditLog log;
    auto merge = [&log](const char *module, support::AuditLog part) {
        for (std::string &violation : part)
            log.push_back(std::string(module) + ": " + violation);
    };

    merge("trace", tr.auditInvariants());
    merge("cut", hierCut.auditInvariants());
    merge("graph", graph.auditInvariants());
    merge("layout", layout::auditFinitePositions(graph));

    // The layout must mirror the projection slot for slot: node i
    // stands for the projection's node i, and there is nothing else.
    if (graph.nodeCount() != cutProj.size())
        support::auditFail(log, "session: ", graph.nodeCount(),
                           " layout nodes for ", cutProj.size(),
                           " visible containers");
    for (std::size_t i = 0; i < graph.nodeCount() && i < cutProj.size();
         ++i)
        if (graph.rawNodes()[i].key != cutProj.nodes[i].value())
            support::auditFail(log, "session: layout node ", i,
                               " carries key ", graph.rawNodes()[i].key,
                               ", the projection's slot ", i, " holds '",
                               tr.fullName(cutProj.nodes[i]), "'");

    // Views and the layout read the stored projection (its slot map
    // included): a cut change that bypassed syncLayout would leave it
    // describing an older cut.
    if (cutProj != agg::project(tr, hierCut))
        support::auditFail(log, "projection: the stored projection (",
                           cutProj.size(), " nodes, ",
                           cutProj.edges.size(),
                           " edges) differs from a fresh projection "
                           "of the cut");

    // The aggregated view of the current cut and slice, built fresh
    // (the audit stores nothing), including the Equation-1
    // conservation check against a serial recomputation.
    std::vector<agg::MetricRequest> requests =
        sumRequests(visMapping.referencedMetrics());
    const agg::View fresh =
        agg::buildView(tr, cutProj, slice, requests).value();
    merge("view", agg::auditView(tr, hierCut, fresh));

    // The stored view must show the current cut whatever its key, and
    // serves its values while the key is current: a change of the cut,
    // slice or mapping that bypassed the key would leave them
    // describing an older view. Rows still waiting for their fold are
    // not served yet; every other row must be current, those a cut
    // change carried over included.
    if (stored.nodes != fresh.nodes || stored.edges != fresh.edges)
        support::auditFail(log, "stored view: its nodes or edges are "
                                "not the current cut's");
    if (storedKeyCurrent(requests)) {
        if (stored.values.size() != fresh.values.size())
            support::auditFail(log, "stored view: ", stored.values.size(),
                               " stored values for ", fresh.values.size(),
                               " in the current view");
        for (std::size_t i = 0; i < stored.values.size() &&
                                i < fresh.values.size();
             ++i) {
            if (std::binary_search(pendingRows.begin(), pendingRows.end(),
                                   i / requests.size()))
                continue;
            if (std::bit_cast<std::uint64_t>(stored.values[i]) ==
                std::bit_cast<std::uint64_t>(fresh.values[i]))
                continue;
            support::auditFail(log, "stored view: value ", i, " (node ",
                               i / requests.size(), ") is ",
                               support::formatDouble(stored.values[i]),
                               ", a fresh fold gives ",
                               support::formatDouble(fresh.values[i]));
            break;
        }
    }
    return log;
}

void
Session::maybeAudit(const char *what) const
{
    if constexpr (support::validateEnabled())
        support::requireClean(auditInvariants(),
                              std::string(what) + ": ");
    else
        (void)what;
}

support::Expected<std::size_t>
Session::animate(std::size_t frames, const std::string &dir,
                 const std::string &prefix, std::size_t iters_per_frame)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("session.animate");
    static const obs::CounterId frame_count =
        reg.counter("session.frames");
    obs::ScopedPhase timer(phase);

    if (frames == 0)
        return VIVA_ERROR(support::Errc::Invalid,
                          "need at least one frame");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return VIVA_ERROR(support::Errc::Io, "cannot create '", dir,
                          "': ", ec.message());

    std::vector<agg::TimeSlice> slices = agg::uniformSlices(span(), frames);
    // Whole-operation atomicity: a deadline abort (or any I/O failure)
    // mid-animation rolls the slice and the layout back to their
    // pre-call state, so the caller never sees a half-animated
    // session. Frames already written stay on disk; they are plain
    // output, not session state. Nothing inside changes the cut, so
    // the node vector is the whole layout undo log.
    const agg::TimeSlice entry_slice = slice;
    const std::vector<layout::Node> entry_nodes = graph.rawNodes();
    auto rollback = [&] {
        slice = entry_slice;
        graph.mutableNodes() = entry_nodes;
        maybeAudit("Session::animate rollback");
    };
    for (std::size_t f = 0; f < frames; ++f) {
        setTimeSlice(slices[f]);
        support::Expected<std::size_t> settled =
            stabilizeLayout(iters_per_frame);
        if (!settled) {
            rollback();
            return VIVA_ERROR_CONTEXT(settled.error(),
                                      "animate frame ", f);
        }
        char name[64];
        std::snprintf(name, sizeof(name), "%s%03zu.svg", prefix.c_str(),
                      f);
        support::Expected<void> drawn =
            renderSvg(dir + "/" + name,
                      prefix + " frame " + std::to_string(f));
        if (!drawn) {
            rollback();
            return VIVA_ERROR_CONTEXT(drawn.error(), "animate frame ",
                                      f);
        }
        reg.add(frame_count);
    }
    return frames;
}

// --- resource governance --------------------------------------------------

void
Session::setMemoryBudget(std::uint64_t bytes)
{
    memBudgetBytes = bytes;
    enforceBudget();
    maybeAudit("Session::setMemoryBudget");
}

void
Session::setOperationDeadline(std::uint64_t nanos)
{
    opDeadlineNanos = nanos;
}

std::uint64_t
Session::workingSetBytes() const
{
    // Deterministic accounting model: a fixed cost per record kind,
    // summed over what the session actually holds. The constants
    // approximate the in-memory footprint of each record (slot +
    // indexing overhead); they are part of the model's contract, NOT
    // measurements, so budget decisions replay identically across
    // allocators, platforms and runs.
    std::uint64_t bytes = 0;
    bytes += std::uint64_t(tr.containerCount()) * 192;
    bytes += std::uint64_t(tr.metricCount()) * 128;
    bytes += std::uint64_t(tr.variableCount()) * 96;
    bytes += std::uint64_t(tr.pointCount()) * 16;
    bytes += std::uint64_t(tr.states().size()) * 64;
    bytes += std::uint64_t(tr.relations().size()) * 16;
    // The shed-able part scales with the cut: layout nodes plus the
    // aggregated view (one row of every referenced metric per visible
    // node) the interactive loop keeps rebuilding.
    bytes += std::uint64_t(graph.rawNodes().size()) *
             sizeof(layout::Node);
    bytes += std::uint64_t(graph.rawEdges().size()) *
             sizeof(layout::Edge);
    bytes += std::uint64_t(cutProj.size()) *
             (64 + 16 * std::uint64_t(tr.metricCount()));
    return bytes;
}

std::uint16_t
Session::deepestVisibleDepth() const
{
    std::uint16_t deepest = 0;
    for (ContainerId id : cutProj.nodes)
        deepest = std::max(deepest, tr.container(id).depth);
    return deepest;
}

void
Session::enforceBudget()
{
    if (memBudgetBytes == 0)
        return;
    // Graceful degradation ladder: coarsen the cut one level at a time
    // -- Equation-1 aggregation as load shedding -- until the working
    // set fits or only the root view is left. aggregateToDepth(d-1)
    // strictly lowers the deepest visible depth, so this terminates.
    while (workingSetBytes() > memBudgetBytes) {
        std::uint16_t deepest = deepestVisibleDepth();
        if (deepest == 0)
            break;
        hierCut.aggregateToDepth(std::uint16_t(deepest - 1));
        syncLayout();
        ++degradations;
        support::noteDegradation();
        support::warnLimited(
            "governor.degrade", "Session::enforceBudget",
            "working set over the ", memBudgetBytes,
            "-byte budget: coarsened the cut to depth ", deepest - 1,
            " (", cutProj.size(), " visible nodes)");
    }
}

// --- durability ------------------------------------------------------------

support::Expected<void>
Session::checkpoint(const std::string &path) const
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("session.checkpoint");
    static const obs::CounterId checkpoints =
        reg.counter("session.checkpoints");
    obs::ScopedPhase timer(phase);

    CheckpointImage image;
    {
        std::ostringstream text;
        trace::writeTrace(tr, text);
        image.traceText = std::move(text).str();
    }
    image.cutFlags = hierCut.collapsedFlags();
    image.sliceBegin = slice.begin;
    image.sliceEnd = slice.end;
    image.force = force.params();
    image.threads = nThreads;
    image.maxPixel = typeScaling.maxPixelSize();
    image.sliders = typeScaling.touchedSliders();
    image.memBudgetBytes = memBudgetBytes;
    image.opDeadlineNanos = opDeadlineNanos;
    for (const layout::Node &n : graph.rawNodes())
        image.nodes.push_back({n.key, n.position.x, n.position.y,
                               n.velocity.x, n.velocity.y, n.pinned});
    // Sorted by key so the same observable state always serializes to
    // the same bytes, whatever the slot order.
    std::sort(image.nodes.begin(), image.nodes.end(),
              [](const CheckpointNode &a, const CheckpointNode &b) {
                  return a.key < b.key;
              });

    support::Expected<void> written =
        support::retryWithBackoff(ioRetry, [&] {
            // viva-analyze: allow(context-on-propagate): per-attempt pass-through; the caller stamps one frame after the retries
            return writeCheckpointFile(image, path);
        });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(),
                                  "Session::checkpoint to '", path,
                                  "'");
    reg.add(checkpoints);
    return {};
}

support::Expected<void>
Session::restore(const std::string &path,
                 const trace::ParseBudget &budget)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("session.restore");
    static const obs::CounterId restores =
        reg.counter("session.restores");
    static const obs::CounterId errors =
        reg.counter("session.restore.errors");
    obs::ScopedPhase timer(phase);

    auto fail = [&](support::Error err) {
        reg.add(errors);
        return support::Expected<void>(std::move(err));
    };

    // --- stage ------------------------------------------------------------
    // Read, checksum, parse and validate everything against staging
    // state; no member is touched until nothing can fail.
    support::Expected<CheckpointImage> image =
        support::retryWithBackoff(ioRetry, [&] {
            // viva-analyze: allow(context-on-propagate): per-attempt pass-through; the caller stamps one frame after the retries
            return readCheckpointFile(path, budget);
        });
    if (!image)
        return fail(VIVA_ERROR_CONTEXT(image.error(),
                                       "Session::restore"));

    std::istringstream text(image->traceText);
    support::Expected<trace::Trace> loaded =
        trace::readTrace(text, budget);
    if (!loaded)
        return fail(VIVA_ERROR_CONTEXT(
            loaded.error(), "Session::restore: embedded trace of '",
            path, "'"));
    trace::Trace staged = std::move(*loaded);

    agg::HierarchyCut staged_cut(staged);
    support::Expected<void> cut_ok =
        staged_cut.setCollapsedFlags(image->cutFlags);
    if (!cut_ok)
        return fail(VIVA_ERROR_CONTEXT(cut_ok.error(),
                                       "Session::restore: cut of '",
                                       path, "'"));

    if (!std::isfinite(image->sliceBegin) ||
        !std::isfinite(image->sliceEnd) ||
        image->sliceEnd < image->sliceBegin)
        return fail(VIVA_ERROR(support::Errc::Parse,
                               "checkpoint '", path,
                               "' carries a reversed or non-finite "
                               "time slice"));
    if (image->threads == 0)
        return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                               path,
                               "' carries a zero worker-thread count"));
    if (!std::isfinite(image->maxPixel) || image->maxPixel <= 0.0)
        return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                               path,
                               "' carries a non-positive max pixel "
                               "size"));
    const layout::ForceParams &fp = image->force;
    for (double v : {fp.charge, fp.spring, fp.restLength, fp.damping,
                     fp.timestep, fp.maxDisplacement, fp.theta}) {
        if (!std::isfinite(v))
            return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                                   path,
                                   "' carries a non-finite force "
                                   "parameter"));
    }
    for (const auto &[metric, value] : image->sliders) {
        if (metric.value() >= staged.metricCount())
            return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                                   path, "' scales unknown metric id ",
                                   metric.value()));
        if (!std::isfinite(value))
            return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                                   path,
                                   "' carries a non-finite slider"));
    }

    // The persisted nodes must be exactly the cut's visible set,
    // strictly sorted, with finite state.
    const std::size_t visible = staged_cut.visibleCount();
    if (image->nodes.size() != visible)
        return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                               path, "' carries ", image->nodes.size(),
                               " layout node(s) for a cut with ",
                               visible, " visible container(s)"));
    for (std::size_t j = 0; j < image->nodes.size(); ++j) {
        const CheckpointNode &n = image->nodes[j];
        if (j > 0 && n.key <= image->nodes[j - 1].key)
            return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                                   path,
                                   "' layout nodes are not strictly "
                                   "sorted by key"));
        // The range check first: isVisible asserts on an unknown id.
        if (n.key >= staged.containerCount() ||
            !staged_cut.isVisible(
                ContainerId::fromIndex(std::size_t(n.key))))
            return fail(VIVA_ERROR(support::Errc::Parse, "checkpoint '",
                                   path, "' places container ", n.key,
                                   " which the cut does not make "
                                   "visible"));
        for (double v : {n.px, n.py, n.vx, n.vy})
            if (!std::isfinite(v))
                return fail(VIVA_ERROR(support::Errc::Parse,
                                       "checkpoint '", path,
                                       "' carries a non-finite "
                                       "position or velocity for "
                                       "container ", n.key));
    }

    // --- swap -------------------------------------------------------------
    // Infallible from here: rebuild every member in place, in
    // constructor order (the ForceLayout borrows `graph` by
    // reference), then overlay the persisted node state.
    tr = std::move(staged);
    traceSpan = tr.span();
    hierCut = agg::HierarchyCut(tr);
    support::Expected<void> applied =
        hierCut.setCollapsedFlags(image->cutFlags);
    VIVA_ASSERT(applied.ok(),
                "validated cut flags failed to re-apply: ",
                applied.ok() ? "" : applied.error().toString());
    slice = agg::TimeSlice{image->sliceBegin, image->sliceEnd};
    visMapping = viz::VisualMapping::defaults(tr);
    typeScaling = viz::TypeScaling(image->maxPixel);
    for (const auto &[metric, value] : image->sliders)
        typeScaling.setSlider(metric, value);
    nThreads = std::max<std::size_t>(std::size_t(image->threads), 1);
    forgetCut();
    force.params() = image->force;
    force.params().threads = nThreads;
    memBudgetBytes = image->memBudgetBytes;
    opDeadlineNanos = image->opDeadlineNanos;
    syncLayout();
    // syncLayout placed the nodes deterministically; the checkpoint
    // knows their real positions, velocities and pins.
    for (const CheckpointNode &cn : image->nodes) {
        layout::NodeId id =
            layoutNode(ContainerId::fromIndex(std::size_t(cn.key)));
        VIVA_ASSERT(id != layout::kNoNode,
                    "validated checkpoint node has no layout slot");
        layout::Node &n = graph.mutableNodes()[id.index()];
        n.position = {cn.px, cn.py};
        n.velocity = {cn.vx, cn.vy};
        n.pinned = cn.pinned;
    }
    reg.add(restores);
    enforceBudget();
    maybeAudit("Session::restore");
    return {};
}

} // namespace viva::app
