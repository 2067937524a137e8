/**
 * @file
 * The closed-loop replay: one simulated analyst sends each gesture only
 * after the previous one finished, against a fresh Session per
 * repetition, until the measuring time is used up.
 *
 * Untraced repetitions give the end-to-end metrics. A traced run
 * alternates untraced and traced repetitions: the traced ones log a
 * root span per gesture with child spans around every public call the
 * benchmark makes, diff Session::observability() around each gesture,
 * and replay the work hidden inside Session calls (the cut operation,
 * visibleEdges, the scene's view/snapshot/compose) on copies of the
 * session state. The per-layer metrics come from those.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "agg/aggregate.hh"
#include "app/session.hh"
#include "bench.hh"
#include "calibrate.hh"
#include "inputs.hh"
#include "layout/metrics.hh"
#include "spans.hh"
#include "trace/io.hh"
#include "trace/paje.hh"
#include "viz/scene.hh"
#include "viz/svg.hh"

namespace perfbench
{

namespace agg = viva::agg;
namespace app = viva::app;
namespace trace = viva::trace;

namespace
{

/** A metric's name and unit, as BENCHMARK.json lists it. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"total_s", "s"},
    {"gesture_p50_ms", "ms"},  {"gesture_p95_ms", "ms"},
    {"slice_p50_ms", "ms"},    {"cut_p50_ms", "ms"},
    {"focus_p50_ms", "ms"},    {"frame_p50_ms", "ms"},
    {"settle_ms", "ms"},       {"drift_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.read_ms", "ms"},
    {"trace.records", "count"},
    {"trace.index_build_ms", "ms"},
    {"trace.paje_write_ms", "ms"},
    {"trace.paje_read_ms", "ms"},
    {"agg.view_ms", "ms"},
    {"agg.view_nodes", "count"},
    {"agg.closure_hit_ratio", "ratio"},
    {"agg.closure_lookups", "count"},
    {"agg.view_speedup", "ratio"},
    {"agg.cut_ms", "ms"},
    {"agg.visible_edges_ms", "ms"},
    {"app.sync_self_ms", "ms"},
    {"app.working_set_mb", "MB"},
    {"app.fresh_working_set_mb", "MB"},
    {"app.attribution_pct", "%"},
    {"layout.step_ms", "ms"},
    {"layout.quadtree_build_ms", "ms"},
    {"layout.steps", "count"},
    {"layout.iters_to_stable.grid", "count"},
    {"layout.iters_to_stable.site", "count"},
    {"layout.iters_to_stable.cluster", "count"},
    {"layout.iters_to_stable.host", "count"},
    {"layout.cap_hits", "count"},
    {"layout.slots_per_live", "ratio"},
    {"layout.snapshot_ms", "ms"},
    {"viz.scene_ms", "ms"},
    {"viz.svg_ms", "ms"},
    {"viz.svg_bytes", "bytes"},
    {"sim.run_s", "s"},
    {"sim.fairshare_solves", "count"},
    {"sim.us_per_solve", "us"},
    {"platform.build_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/** Observability phases measured in place; the attribution numerator. */
constexpr const char *kCoveredPhases[] = {
    "cut.recompute", "agg.build_view", "layout.force.step"};

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Histogram sums and counters of one observability snapshot. */
struct ObsPoint
{
    std::map<std::string, viva::support::obs::HistogramValue> phases;
    std::map<std::string, std::uint64_t> counters;
};

/** The process-wide registry, i.e. what Session::observability() returns. */
ObsPoint
capture()
{
    viva::support::obs::StatsSnapshot snap =
        viva::support::obs::Registry::global().snapshot();
    ObsPoint p;
    for (const auto &h : snap.histograms)
        p.phases[h.name] = h;
    for (const auto &c : snap.counters)
        p.counters[c.name] = c.value;
    return p;
}

/** Nanoseconds a phase accumulated between two snapshots. */
double
phaseNanos(const ObsPoint &a, const ObsPoint &b, const std::string &name)
{
    auto before = a.phases.find(name);
    auto after = b.phases.find(name);
    if (after == b.phases.end())
        return 0.0;
    std::uint64_t base =
        before == a.phases.end() ? 0 : before->second.sumNanos;
    return double(after->second.sumNanos - base);
}

std::uint64_t
phaseCount(const ObsPoint &a, const ObsPoint &b, const std::string &name)
{
    auto before = a.phases.find(name);
    auto after = b.phases.find(name);
    if (after == b.phases.end())
        return 0;
    return after->second.count -
           (before == a.phases.end() ? 0 : before->second.count);
}

std::uint64_t
counterDelta(const ObsPoint &a, const ObsPoint &b, const std::string &name)
{
    auto before = a.counters.find(name);
    auto after = b.counters.find(name);
    if (after == b.counters.end())
        return 0;
    return after->second -
           (before == a.counters.end() ? 0 : before->second);
}

/** Everything one run measures, pooled over its repetitions. */
struct Measurements
{
    // end to end, from untraced repetitions, at the reference speed
    std::vector<double> setupS;
    /** Per script position: the fastest successful untraced run. */
    std::vector<std::optional<double>> bestMs;
    /** The same for the settle time of the depth changes. */
    std::vector<std::optional<double>> bestSettleMs;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> checkFailures;
    /**
     * Per repetition: the summed gesture times at the reference speed,
     * untraced and traced.
     */
    std::vector<double> gesturesMs, tracedGesturesMs;
    /** per-layer samples, from traced repetitions */
    std::map<std::string, std::vector<double>> layer;
    double coveredNanos = 0.0;
    double rootNanos = 0.0;
    std::uint64_t closureHits = 0;
    std::uint64_t closureMisses = 0;
    double stepNanos = 0.0;
    std::uint64_t stepCount = 0;
    double quadtreeNanos = 0.0;
    std::uint64_t quadtreeCount = 0;
    std::optional<std::uint64_t> digest;

    void
    fail(std::string why)
    {
        if (std::find(checkFailures.begin(), checkFailures.end(), why) ==
            checkFailures.end())
            checkFailures.push_back(std::move(why));
    }
};

/** What one gesture did. */
struct Outcome
{
    bool ok = true;
    double ms = 0.0;
    double settleMs = 0.0;   ///< mutation + relaxation
    double mutationMs = 0.0;
    std::size_t iters = 0;
    std::size_t viewNodes = 0;
    std::size_t svgBytes = 0;             ///< frames only
    std::size_t root = Recorder::kNone;   ///< its span, when traced
};

const char *
rootName(Op op)
{
    switch (op) {
    case Op::Level:
        return "gesture.level";
    case Op::Slice:
        return "gesture.slice";
    case Op::Frame:
        return "gesture.frame";
    case Op::Focus:
        return "gesture.focus";
    case Op::Aggregate:
        return "gesture.aggregate";
    case Op::Disaggregate:
        return "gesture.disaggregate";
    case Op::Reset:
        return "gesture.reset";
    case Op::Probe:
        return "gesture.probe";
    }
    return "gesture";
}

bool
changesCut(Op op)
{
    return op == Op::Level || op == Op::Focus || op == Op::Aggregate ||
           op == Op::Disaggregate || op == Op::Reset;
}

/** The Session mutation of a gesture; false when it was refused. */
bool
mutate(app::Session &s, const Gesture &g, Recorder &rec)
{
    switch (g.op) {
    case Op::Level: {
        std::uint16_t depth = levelDepth(g.target);
        if (depth == 0)
            rec.span("Session::resetAggregation",
                     [&] { s.resetAggregation(); });
        else
            rec.span("Session::aggregateToDepth",
                     [&] { s.aggregateToDepth(depth); });
        return true;
    }
    case Op::Slice:
    case Op::Frame:
        rec.span("Session::setSliceOf", [&] {
            s.setSliceOf(agg::SliceIndex::fromIndex(g.index), g.parts);
        });
        return true;
    case Op::Focus:
        return rec.span("Session::focus", [&] { return s.focus(g.target); });
    case Op::Aggregate:
        return rec.span("Session::aggregate",
                        [&] { return s.aggregate(g.target); });
    case Op::Disaggregate:
        return rec.span("Session::disaggregate",
                        [&] { return s.disaggregate(g.target); });
    case Op::Reset:
        rec.span("Session::resetAggregation",
                 [&] { s.resetAggregation(); });
        return true;
    case Op::Probe:
        return true;
    }
    return false;
}

/** Run one gesture from its call until the updated view is ready. */
Outcome
runGesture(app::Session &s, const Gesture &g, Recorder &rec,
           std::size_t host_level_nodes)
{
    Outcome out;
    std::uint64_t begin = nowNanos();
    std::size_t root = rec.open(rootName(g.op), begin);
    out.root = root;
    out.ok = mutate(s, g, rec);
    out.mutationMs = g.op == Op::Probe ? 0.0 : rec.lastMs();
    if (g.op == Op::Probe) {
        // Host-level view plus a fixed number of force steps.
        out.ok = s.cut().visibleCount() == host_level_nodes;
        agg::View v = rec.span("Session::view", [&] { return s.view(); });
        out.ok = out.ok && v.nodes.size() == host_level_nodes;
        viva::support::Expected<void> stepped = rec.span(
            "Session::stepLayout", [&] { return s.stepLayout(g.iters); });
        out.ok = out.ok && stepped.ok();
        out.iters = g.iters;
    } else {
        viva::support::Expected<std::size_t> settled =
            rec.span("Session::stabilizeLayout",
                     [&] { return s.stabilizeLayout(g.iters); });
        out.ok = out.ok && settled.ok();
        out.iters = settled.ok() ? *settled : 0;
        out.settleMs = double(nowNanos() - begin) / 1e6;
        agg::View v = rec.span("Session::view", [&] { return s.view(); });
        out.viewNodes = v.nodes.size();
        out.ok = out.ok && out.viewNodes == s.cut().visibleCount();
        if (g.op == Op::Frame) {
            viva::viz::Scene scene =
                rec.span("Session::scene", [&] { return s.scene(); });
            std::ostringstream svg;
            rec.span("viz::writeSvg",
                     [&] { viva::viz::writeSvg(scene, svg); });
            out.svgBytes = std::size_t(svg.tellp());
            out.ok = out.ok && !scene.nodes.empty() && out.svgBytes > 0;
        }
    }
    rec.close(root, begin);
    out.ms = rec.lastMs();
    return out;
}

/** Apply a cut gesture to a copy of the cut; false if the target is unknown. */
bool
replayCut(agg::HierarchyCut &cut, const trace::Trace &t, const Gesture &g)
{
    auto find = [&t](const std::string &ref) {
        trace::ContainerId id = t.findByPath(ref);
        return id == trace::kNoContainer ? t.findByName(ref) : id;
    };
    switch (g.op) {
    case Op::Level: {
        std::uint16_t depth = levelDepth(g.target);
        if (depth == 0)
            cut.reset();
        else
            cut.aggregateToDepth(depth);
        return true;
    }
    case Op::Reset:
        cut.reset();
        return true;
    case Op::Focus:
    case Op::Aggregate:
    case Op::Disaggregate: {
        trace::ContainerId id = find(g.target);
        if (id == trace::kNoContainer)
            return false;
        if (g.op == Op::Focus)
            cut.focus({id});
        else if (g.op == Op::Aggregate)
            cut.aggregate(id);
        else
            cut.disaggregate(id);
        return true;
    }
    default:
        return false;
    }
}

/**
 * The traced extras of one gesture, all outside its root span: the
 * observability diff, and replays of the work hidden in Session calls.
 */
void
traceGesture(app::Session &s, const Gesture &g, const Outcome &o,
             const ObsPoint &before, const agg::HierarchyCut *cut_before,
             Recorder &rec, Measurements &m)
{
    ObsPoint after = capture();
    double covered = 0.0;
    for (const char *phase : kCoveredPhases)
        covered += phaseNanos(before, after, phase);
    const std::vector<Span> &spans = rec.spans();
    // The SVG writer is a public call measured in place.
    for (std::size_t i = o.root + 1; i < spans.size(); ++i) {
        if (spans[i].name == "viz::writeSvg") {
            double ns = double(spans[i].end - spans[i].begin);
            covered += ns;
            m.layer["viz.svg_ms"].push_back(ns / 1e6);
        } else if (spans[i].name == "Session::view") {
            m.layer["agg.view_ms"].push_back(
                double(spans[i].end - spans[i].begin) / 1e6);
        }
    }
    m.coveredNanos += covered;
    m.rootNanos += o.ms * 1e6;
    m.closureHits += counterDelta(before, after, "agg.closure.hits");
    m.closureMisses += counterDelta(before, after, "agg.closure.misses");
    m.stepNanos += phaseNanos(before, after, "layout.force.step");
    m.stepCount += phaseCount(before, after, "layout.force.step");
    m.quadtreeNanos += phaseNanos(before, after, "layout.quadtree.build");
    m.quadtreeCount += phaseCount(before, after, "layout.quadtree.build");

    const trace::Trace &t = s.trace();
    if (cut_before != nullptr) {
        // Self time of the private layout sync: the Session call minus
        // its cut operation and visibleEdges, both replayed on a copy.
        agg::HierarchyCut cut = *cut_before;
        bool known = rec.span("replay.cut",
                              [&] { return replayCut(cut, t, g); });
        double cut_ms = rec.lastMs();
        if (known) {
            std::vector<agg::ViewEdge> edges = rec.span(
                "replay.visibleEdges",
                [&] { return agg::visibleEdges(t, cut); });
            double edges_ms = rec.lastMs();
            m.layer["agg.cut_ms"].push_back(cut_ms);
            m.layer["agg.visible_edges_ms"].push_back(edges_ms);
            m.layer["app.sync_self_ms"].push_back(
                std::max(0.0, o.mutationMs - cut_ms - edges_ms));
        }
    }
    if (g.op == Op::Frame) {
        // Session::scene() = buildView + snapshotPositions + composeScene.
        agg::View v = rec.span("replay.buildView", [&] {
            return agg::buildView(t, s.cut(), s.timeSlice(),
                                  s.mapping().referencedMetrics(),
                                  agg::SpatialOp::Sum, false, s.threads());
        });
        viva::layout::Snapshot positions =
            rec.span("replay.snapshotPositions", [&] {
                return viva::layout::snapshotPositions(s.layoutGraph());
            });
        m.layer["layout.snapshot_ms"].push_back(rec.lastMs());
        viva::viz::TypeScaling scaling = s.scaling();
        rec.span("replay.composeScene", [&] {
            return viva::viz::composeScene(v, t, positions, s.mapping(),
                                           scaling);
        });
        m.layer["viz.scene_ms"].push_back(rec.lastMs());
        m.layer["viz.svg_bytes"].push_back(double(o.svgBytes));
        m.layer["agg.view_nodes"].push_back(double(o.viewNodes));
    }
}

/** The three Fig. 8 claims, read off a trace over its whole span. */
bool
fig8ClaimsHold(const trace::Trace &t)
{
    trace::MetricId cpu = t.findMetric("power_used:cpubound");
    trace::MetricId net = t.findMetric("power_used:netbound");
    if (cpu == trace::kNoMetric || net == trace::kNoMetric)
        return false;
    agg::Aggregator aggregator(t);
    agg::TimeSlice slice = t.span();
    double use_cpu = 0.0, use_net = 0.0, best_net = 0.0;
    std::size_t cpu_active = 0, net_active = 0, shared = 0;
    for (trace::ContainerId site :
         t.containersOfKind(trace::ContainerKind::Site)) {
        double u1 = aggregator.value(site, cpu, slice);
        double u2 = aggregator.value(site, net, slice);
        use_cpu += u1;
        use_net += u2;
        best_net = std::max(best_net, u2);
        cpu_active += u1 > 1.0;
        net_active += u2 > 1.0;
        shared += u1 > 1.0 && u2 > 1.0;
    }
    bool claim1 = use_cpu > use_net;
    bool claim2 = best_net > 0.6 * use_net && cpu_active > net_active;
    bool claim3 = shared >= 1;
    return claim1 && claim2 && claim3;
}

/** Record counts a write->read round trip must keep. */
std::vector<std::size_t>
recordCounts(const trace::Trace &t)
{
    return {t.containerCount(), t.metricCount(), t.variableCount(),
            t.pointCount(),     t.states().size(), t.relations().size()};
}

/**
 * Write a trace as Paje and read it back, as spans; the import must keep
 * every record count. Traced repetitions keep the two timings.
 */
void
pajeRoundTrip(const trace::Trace &t, Recorder &rec, Measurements &m)
{
    std::ostringstream paje;
    rec.span("trace::writePajeTrace",
             [&] { trace::writePajeTrace(t, paje); });
    double write_ms = rec.lastMs();
    std::istringstream in(paje.str());
    auto imported = rec.span("trace::readPajeTrace",
                             [&] { return trace::readPajeTrace(in); });
    if (rec.keeping()) {
        m.layer["trace.paje_write_ms"].push_back(write_ms);
        m.layer["trace.paje_read_ms"].push_back(rec.lastMs());
    }
    if (!imported)
        m.fail("Paje read: " + imported.error().toString());
    else if (recordCounts(imported->trace) != recordCounts(t))
        m.fail("Paje round trip changed the record counts");
}

class Runner
{
  public:
    Runner(const RunOptions &o, std::vector<Gesture> script,
           std::size_t threads, std::size_t parallel_threads)
        : opt(o), gestures(std::move(script)), nThreads(threads),
          parallelThreads(parallel_threads)
    {
    }

    /** One repetition: fresh session, whole script, checks. */
    void
    repetition(bool traced)
    {
        rec.setKeeping(traced);
        if (traced) {
            // Outside set-up, which loads the generated trace: the
            // platform and the simulation behind that trace, again.
            rec.span("perfbench::buildPlatform", [&] {
                return buildPlatform(opt.workload, opt.seed);
            });
            m.layer["platform.build_ms"].push_back(rec.lastMs());
            Simulation sim = rec.span("perfbench::simulate", [&] {
                return simulate(opt.workload, opt.seed);
            });
            double run_s = rec.lastMs() / 1e3;
            if (!sim.drained)
                m.fail("the simulation did not drain");
            m.layer["sim.run_s"].push_back(run_s);
            m.layer["sim.fairshare_solves"].push_back(double(sim.solves));
            m.layer["sim.us_per_solve"].push_back(
                run_s * 1e6 / double(std::max<std::size_t>(sim.solves, 1)));
        }
        // The reference kernel's time before set-up, before every gesture
        // and after the last; see scale(). Traced repetitions run it too,
        // so both kinds pause alike between gestures.
        std::vector<double> kernel_ns;
        kernel_ns.push_back(kernel.time());
        std::uint64_t begin = nowNanos();
        std::size_t root = rec.open("repetition", begin);
        ObsPoint setup_before = capture();

        // --- set-up: time to the first interactive view ------------------
        auto loaded = rec.span("trace::readTraceFile", [&] {
            return trace::readTraceFile(opt.dir + "/" + kTraceFile);
        });
        if (traced)
            m.layer["trace.read_ms"].push_back(rec.lastMs());
        if (!loaded) {
            m.fail("trace load: " + loaded.error().toString());
            rec.close(root, begin);
            return;
        }
        std::unique_ptr<app::Session> s = openSession(std::move(*loaded));
        double setup_s = double(nowNanos() - begin) / 1e9;
        std::uint64_t script_begin = nowNanos();
        ObsPoint setup_after = capture();
        if (traced) {
            m.layer["trace.index_build_ms"].push_back(
                phaseNanos(setup_before, setup_after, "trace.index.build") /
                1e6);
            m.layer["trace.records"].push_back(double(counterDelta(
                setup_before, setup_after, "trace.read.records")));
        }

        // --- the script ---------------------------------------------------
        std::size_t host_level = s->cut().visibleCount();
        std::size_t cap_hits = 0;
        std::set<std::string> walked;   // levels of the Fig. 8 walk
        std::vector<double> root_ms(gestures.size());   // without replays
        std::vector<std::optional<double>> ms(gestures.size());
        std::vector<std::optional<double>> settle_ms(gestures.size());
        for (std::size_t i = 0; i < gestures.size(); ++i) {
            const Gesture &g = gestures[i];
            kernel_ns.push_back(kernel.time());
            std::optional<ObsPoint> before;
            std::optional<agg::HierarchyCut> cut_before;
            if (traced) {
                before = capture();
                if (changesCut(g.op))
                    cut_before.emplace(s->cut());
            }
            Outcome o = runGesture(*s, g, rec, host_level);
            root_ms[i] = o.ms;
            ++m.attempted;
            if (!o.ok) {
                ++m.failed;
                continue;
            }
            if (traced)
                traceGesture(*s, g, o, *before,
                             cut_before ? &*cut_before : nullptr, rec, m);
            if (g.op == Op::Level && o.iters >= g.iters)
                ++cap_hits;
            bool walk = g.op == Op::Level && walked.insert(g.target).second;
            if (walk && traced)
                m.layer["layout.iters_to_stable." + g.target].push_back(
                    double(o.iters));
            if (traced)
                continue;
            ms[i] = o.ms;
            if (g.op == Op::Level)
                settle_ms[i] = o.settleMs;
        }
        double total_s = double(nowNanos() - script_begin) / 1e9;
        kernel_ns.push_back(kernel.time());
        rec.close(root, begin);
        ObsPoint script_after = capture();

        double gestures_ms = 0.0;
        for (std::size_t i = 0; i < root_ms.size(); ++i)
            gestures_ms += root_ms[i] * scale(kernel_ns, i + 1);
        (traced ? m.tracedGesturesMs : m.gesturesMs).push_back(gestures_ms);
        if (traced) {
            m.layer["layout.cap_hits"].push_back(double(cap_hits));
            m.layer["layout.steps"].push_back(double(counterDelta(
                setup_after, script_after, "layout.force.iterations")));
            afterTracedScript(*s);
        } else {
            std::printf("# repetition %zu: setup %.3f s, script %.3f s, "
                        "speed %.3f of the reference\n",
                        m.setupS.size(), setup_s, total_s,
                        ReferenceKernel::kNominalNs / median(kernel_ns));
            m.setupS.push_back(setup_s * scale(kernel_ns, 0));
            keepBest(m.bestMs, ms, kernel_ns);
            keepBest(m.bestSettleMs, settle_ms, kernel_ns);
        }

        // --- correctness, untimed -----------------------------------------
        if (!s->auditInvariants().empty())
            m.fail("auditInvariants reported violations");
        // The digest mixes in the worker count; the state itself is
        // bitwise identical for every count, so compare at one thread.
        s->setThreads(1);
        std::uint64_t digest = s->stateDigest();
        if (m.digest && *m.digest != digest)
            m.fail("final stateDigest differs between repetitions");
        m.digest = digest;
        if (opt.workload == Workload::G5kTimeline &&
            !fig8ClaimsHold(s->trace()))
            m.fail("a Fig. 8 claim does not hold");
        if (traced || !checkedRoundTrip) {
            pajeRoundTrip(s->trace(), rec, m);
            checkedRoundTrip = true;
        }
    }

    const std::vector<Gesture> &script() const { return gestures; }

    Measurements m;
    Recorder rec;

  private:
    /**
     * The machine's speed over step `i` of a repetition (set-up is step
     * 0, gesture j step j + 1) relative to the reference: the kernel's
     * nominal time over its mean time just before and just after the
     * step. The speed swings within a second, so the step's own
     * neighbours track it best.
     */
    static double
    scale(const std::vector<double> &kernel_ns, std::size_t i)
    {
        return 2.0 * ReferenceKernel::kNominalNs /
               (kernel_ns[i] + kernel_ns[i + 1]);
    }

    /** Fold one repetition's times, scaled, into the per-position bests. */
    static void
    keepBest(std::vector<std::optional<double>> &best,
             const std::vector<std::optional<double>> &times,
             const std::vector<double> &kernel_ns)
    {
        best.resize(times.size());
        for (std::size_t i = 0; i < times.size(); ++i) {
            if (!times[i])
                continue;
            double at_reference = *times[i] * scale(kernel_ns, i + 1);
            best[i] = std::min(best[i].value_or(at_reference), at_reference);
        }
    }

    std::unique_ptr<app::Session>
    openSession(trace::Trace t)
    {
        auto s = rec.span("Session::Session", [&] {
            return std::make_unique<app::Session>(std::move(t));
        });
        s->setThreads(nThreads);
        viva::support::Expected<std::size_t> settled =
            rec.span("Session::stabilizeLayout", [&] {
                return s->stabilizeLayout(setupIters(opt.workload));
            });
        if (!settled)
            m.fail("initial stabilize failed");
        return s;
    }

    /**
     * History metrics, and the speed-up of the host-level view at
     * min(nproc, 4) threads over one.
     */
    void
    afterTracedScript(const app::Session &s)
    {
        const viva::layout::LayoutGraph &g = s.layoutGraph();
        m.layer["layout.slots_per_live"].push_back(
            double(g.rawNodes().size()) /
            double(std::max<std::size_t>(g.nodeCount(), 1)));
        m.layer["app.working_set_mb"].push_back(
            double(s.workingSetBytes()) / 1e6);
        // The script ends fully disaggregated, the cut a fresh session
        // starts at.
        app::Session fresh{trace::Trace(s.trace())};
        fresh.setThreads(nThreads);
        if (fresh.cut().visibleCount() != s.cut().visibleCount())
            m.fail("the script does not end at host level");
        m.layer["app.fresh_working_set_mb"].push_back(
            double(fresh.workingSetBytes()) / 1e6);

        agg::HierarchyCut host_cut(s.trace());
        std::vector<trace::MetricId> metrics =
            fresh.mapping().referencedMetrics();
        auto timeView = [&](std::size_t threads) {
            std::vector<double> ms;
            for (int i = 0; i < 3; ++i) {
                std::uint64_t b = nowNanos();
                agg::View v =
                    agg::buildView(s.trace(), host_cut, s.timeSlice(),
                                   metrics, agg::SpatialOp::Sum, false,
                                   threads);
                ms.push_back(double(nowNanos() - b) / 1e6);
                if (v.nodes.size() != host_cut.visibleCount())
                    m.fail("the host-level view misses nodes");
            }
            return median(ms);
        };
        double serial = timeView(1);
        double parallel = timeView(parallelThreads);
        m.layer["agg.view_speedup"].push_back(serial / parallel);
    }

    ReferenceKernel kernel;
    const RunOptions &opt;
    const std::vector<Gesture> gestures;
    std::size_t nThreads;
    std::size_t parallelThreads;   ///< agg.view_speedup's count
    bool checkedRoundTrip = false;
};

/** Latency samples by gesture class, one per script position. */
struct Latencies
{
    std::vector<double> gesture, slice, frame, cut, focus;
    std::vector<double> startProbe, endProbe;   ///< before / after the rest
};

/**
 * Every repetition replays the same script, so a position's best time
 * over the repetitions is that gesture's latency with the machine's
 * transient slow-downs filtered out.
 */
Latencies
latencies(const std::vector<Gesture> &script,
          const std::vector<std::optional<double>> &best)
{
    Latencies l;
    bool started = false;   // a non-probe gesture came before
    for (std::size_t i = 0; i < script.size() && i < best.size(); ++i) {
        if (!best[i])
            continue;
        double ms = *best[i];
        switch (script[i].op) {
        case Op::Probe:
            (started ? l.endProbe : l.startProbe).push_back(ms);
            continue;
        case Op::Frame:
            l.frame.push_back(ms);
            l.slice.push_back(ms);
            break;
        case Op::Slice:
            l.slice.push_back(ms);
            break;
        case Op::Focus:
            l.focus.push_back(ms);
            break;
        case Op::Level:
        case Op::Aggregate:
        case Op::Disaggregate:
        case Op::Reset:
            l.cut.push_back(ms);
            break;
        }
        l.gesture.push_back(ms);
        started = true;
    }
    return l;
}

void
printMetric(std::ostream &out, bool &first, const char *name,
            double value, const char *unit)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << unit << "\"}";
    first = false;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

} // namespace

int
runBenchmark(const RunOptions &opt)
{
    std::vector<Gesture> script;
    std::string error;
    if (!readGestures(opt.dir + "/" + kGestureFile, script, error)) {
        std::fprintf(stderr, "gesture_bench: %s\n", error.c_str());
        return 1;
    }
    std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
    std::size_t parallel = std::min<std::size_t>(cores, 4);
    // One worker thread by default: on a shared host a parallel section
    // waits for its slowest core, and the reference kernel, which runs on
    // the calling thread, reads only that thread's core.
    std::size_t threads = opt.threads ? opt.threads : 1;
    std::printf("# host: cores=%zu threads=%zu build=%s workload=%s "
                "seed=%llu traced=%d closed-loop analysts=1\n",
                cores, threads, VIVA_BENCH_BUILD_TYPE,
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed),
                opt.traced ? 1 : 0);

    Runner run(opt, std::move(script), threads, parallel);
    std::uint64_t start = nowNanos();
    auto elapsed = [&] { return double(nowNanos() - start) / 1e9; };
    for (std::size_t rep = 0;; ++rep) {
        // A traced run alternates untraced and traced repetitions so
        // the tracing overhead is measured on the same process.
        bool traced = opt.traced && rep % 2 == 1;
        double rep_begin = elapsed();
        run.repetition(traced);
        double last = elapsed() - rep_begin;
        // Best-of needs two repetitions, a traced run one of each; past
        // that, the run ends as near the measuring time as whole
        // repetitions as long as the last one allow.
        bool enough = rep + 1 >= 2 && elapsed() + last / 2 > opt.seconds;
        if (enough || !run.m.checkFailures.empty())
            break;
    }
    Measurements &m = run.m;

    if (opt.traced && !opt.spansPath.empty()) {
        std::ofstream spans(opt.spansPath);
        run.rec.writeChromeTrace(spans);
        if (!spans)
            m.fail("cannot write the span file");
    }

    Latencies l = latencies(run.script(), m.bestMs);
    std::vector<double> settle;   // the depth changes
    for (const std::optional<double> &ms : m.bestSettleMs)
        if (ms)
            settle.push_back(*ms);
    auto row = [](const char *name, const std::vector<double> &v) {
        std::printf("# %-8s n=%-5zu p50=%10.3f ms  p95=%10.3f ms\n", name,
                    v.size(), quantile(v, 0.5), quantile(v, 0.95));
    };
    std::printf("# repetitions=%zu untraced=%zu; per gesture the best "
                "untraced repetition, at the reference speed\n",
                m.gesturesMs.size() + m.tracedGesturesMs.size(),
                m.gesturesMs.size());
    row("gesture", l.gesture);
    row("slice", l.slice);
    row("frame", l.frame);
    row("cut", l.cut);
    row("focus", l.focus);
    row("settle", settle);
    std::printf("# digest=%016llx\n",
                static_cast<unsigned long long>(m.digest.value_or(0)));
    std::map<std::string, double> values;
    if (!opt.traced) {
        values["setup_s"] = median(m.setupS);
        double script_ms = 0.0;
        for (const std::optional<double> &ms : m.bestMs)
            script_ms += ms.value_or(0.0);
        values["total_s"] = script_ms / 1e3;
        values["gesture_p50_ms"] = quantile(l.gesture, 0.5);
        values["gesture_p95_ms"] = quantile(l.gesture, 0.95);
        values["slice_p50_ms"] = median(l.slice);
        values["cut_p50_ms"] = median(l.cut);
        values["focus_p50_ms"] = median(l.focus);
        values["frame_p50_ms"] = median(l.frame);
        values["settle_ms"] =
            std::accumulate(settle.begin(), settle.end(), 0.0) /
            double(settle.size());
        values["drift_ratio"] = median(l.endProbe) / median(l.startProbe);
        values["peak_rss_mb"] = peakRssMb();
    } else {
        for (const auto &[name, samples] : m.layer)
            values[name] = median(samples);
        std::uint64_t lookups = m.closureHits + m.closureMisses;
        values["agg.closure_lookups"] = double(lookups);
        if (lookups > 0)
            values["agg.closure_hit_ratio"] =
                double(m.closureHits) / double(lookups);
        if (m.rootNanos > 0)
            values["app.attribution_pct"] =
                100.0 * m.coveredNanos / m.rootNanos;
        if (m.stepCount > 0)
            values["layout.step_ms"] = m.stepNanos / double(m.stepCount) / 1e6;
        if (m.quadtreeCount > 0)
            values["layout.quadtree_build_ms"] =
                m.quadtreeNanos / double(m.quadtreeCount) / 1e6;
        // Span logging inside the gestures' root spans; the replays and
        // registry captures lie outside them.
        values["bench.trace_overhead_pct"] =
            100.0 * (median(m.tracedGesturesMs) / median(m.gesturesMs) - 1.0);
    }

    // Every listed metric must have been measured on this workload.
    std::size_t count =
        opt.traced ? std::size(kPerLayer) : std::size(kEndToEnd);
    const MetricDef *defs = opt.traced ? kPerLayer : kEndToEnd;
    std::ostringstream body;
    bool first = true;
    for (std::size_t i = 0; i < count; ++i) {
        auto it = values.find(defs[i].name);
        if (it == values.end() || !std::isfinite(it->second)) {
            m.fail(std::string("no sample for ") + defs[i].name);
            continue;
        }
        printMetric(body, first, defs[i].name, it->second, defs[i].unit);
    }
    for (const std::string &why : m.checkFailures)
        std::printf("# check failed: %s\n", why.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                m.checkFailures.empty() ? "true" : "false", m.attempted,
                m.failed, body.str().c_str());
    return 0;
}

} // namespace perfbench
