/**
 * @file
 * Tests for the session façade and the command interpreter -- the
 * headless equivalents of every GUI interaction the paper describes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "app/commands.hh"
#include "app/session.hh"
#include "layout/metrics.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "sim/tracer.hh"
#include "support/clock.hh"
#include "support/obs.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "workload/masterworker.hh"

namespace va = viva::agg;
namespace vap = viva::app;
namespace vl = viva::layout;
namespace vp = viva::platform;
namespace vt = viva::trace;

namespace
{

/**
 * Two sites of two clusters of three hosts, each host with its own
 * power and power_used history; `offset` shifts every value, so two
 * grids share their container indices but not their Eq.-1 values.
 */
vt::Trace
makeGridTrace(double offset = 0.0)
{
    vt::TraceBuilder b;
    for (int site = 0; site < 2; ++site) {
        const std::string sname = "site" + std::to_string(site);
        b.beginGroup(sname, vt::ContainerKind::Site);
        for (int cluster = 0; cluster < 2; ++cluster) {
            const std::string cname = sname + "c" + std::to_string(cluster);
            b.beginGroup(cname, vt::ContainerKind::Cluster);
            for (int host = 0; host < 3; ++host) {
                vt::ContainerId h =
                    b.host(cname + "h" + std::to_string(host));
                const double v =
                    offset + 10.0 * site + 3.0 * cluster + host;
                for (int t = 0; t <= 4; ++t) {
                    b.set(h, "power", double(t), 100.0 + v);
                    b.set(h, "power_used", double(t),
                          double((t + host) % 3) * v);
                }
            }
            b.endGroup();
        }
        b.endGroup();
    }
    return b.take();
}

/** A session over the mirrored two-cluster platform (no simulation). */
vap::Session
makePlatformSession()
{
    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    return vap::Session(std::move(t));
}

std::string
tempDir()
{
    auto dir = std::filesystem::temp_directory_path() / "viva_app_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A one-site trace whose span, [0.25, 7.5), differs from Fig. 1's. */
vt::Trace
makeOffsetSpanTrace()
{
    vt::TraceBuilder b;
    b.beginGroup("site", vt::ContainerKind::Site);
    vt::ContainerId h0 = b.host("h0");
    vt::ContainerId h1 = b.host("h1");
    b.set(h0, "power", 0.25, 100.0);
    b.set(h0, "power_used", 0.25, 40.0);
    b.set(h1, "power", 1.0, 100.0);
    b.set(h1, "power_used", 7.5, 10.0);
    b.endGroup();
    return b.take();
}

} // namespace

TEST(Session, InitialStateCoversWholeSpan)
{
    vap::Session s(vt::makeFigure1Trace());
    EXPECT_DOUBLE_EQ(s.timeSlice().begin, s.span().begin);
    EXPECT_DOUBLE_EQ(s.timeSlice().end, s.span().end);
    // Fig. 1 trace: three leaves visible, all in the layout.
    EXPECT_EQ(s.cut().visibleCount(), 3u);
    EXPECT_EQ(s.layoutGraph().nodeCount(), 3u);
    EXPECT_EQ(s.layoutGraph().edgeCount(), 2u);
}

TEST(Session, SpanIsTheTracesSpanWhereverTheTraceIsSet)
{
    vap::Session s(vt::makeFigure1Trace());
    EXPECT_EQ(s.span(), s.trace().span());
    const va::TimeSlice fig1 = s.span();

    vap::Session offset(makeOffsetSpanTrace());
    EXPECT_EQ(offset.span(), offset.trace().span());
    EXPECT_EQ(offset.span(), va::TimeSlice(0.25, 7.5));
    ASSERT_NE(offset.span(), fig1);

    std::string trace_path = tempDir() + "/offset_span.trace";
    ASSERT_TRUE(offset.saveTrace(trace_path).ok());
    ASSERT_TRUE(s.load(trace_path).ok());
    EXPECT_EQ(s.span(), s.trace().span());
    EXPECT_EQ(s.span(), offset.span());
    EXPECT_EQ(s.timeSlice(), s.span());

    std::string ckpt_path = tempDir() + "/fig1_span.ckpt";
    vap::Session fig1_session(vt::makeFigure1Trace());
    ASSERT_TRUE(fig1_session.checkpoint(ckpt_path).ok());
    ASSERT_TRUE(s.restore(ckpt_path).ok());
    EXPECT_EQ(s.span(), s.trace().span());
    EXPECT_EQ(s.span(), fig1);
}

TEST(Session, SliceSelection)
{
    vap::Session s(vt::makeFigure1Trace());
    s.setSliceOf(va::SliceIndex{1}, 3);
    EXPECT_DOUBLE_EQ(s.timeSlice().begin, 4.0);
    EXPECT_DOUBLE_EQ(s.timeSlice().end, 8.0);
    s.setTimeSlice({2.0, 6.0});
    EXPECT_DOUBLE_EQ(s.timeSlice().begin, 2.0);
}

TEST(Session, ViewReflectsSlice)
{
    vap::Session s(vt::makeFigure1Trace());
    auto host_a = s.trace().findByPath("HostA");
    auto power = s.trace().findMetric("power");

    s.setTimeSlice({0.0, 4.0});
    EXPECT_DOUBLE_EQ(s.view().valueOf(host_a, power), 100.0);
    s.setTimeSlice({4.0, 8.0});
    EXPECT_DOUBLE_EQ(s.view().valueOf(host_a, power), 10.0);
}

TEST(Session, FrameFoldsTheViewOnce)
{
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::HistogramId builds = reg.histogram("agg.build_view");
    auto folds = [&] { return reg.histogramValue(builds).count; };

    vap::Session s(vt::makeFigure1Trace());
    const std::string svg = tempDir() + "/frame_folds_once.svg";

    // An animation frame: one fold serves the view, the scene and the
    // SVG render.
    s.setSliceOf(va::SliceIndex{1}, 4);
    std::uint64_t before = folds();
    const va::View view = s.view();
    (void)s.scene();
    ASSERT_TRUE(s.renderSvg(svg).ok());
    EXPECT_EQ(folds() - before, 1u);

    // A slice change, a cut change and a remap each fold once more.
    s.setSliceOf(va::SliceIndex{2}, 4);
    before = folds();
    (void)s.view();
    (void)s.scene();
    EXPECT_EQ(folds() - before, 1u);

    // Everything collapses into the root: no node survives, so the
    // view folds plainly, once.
    s.aggregateToDepth(0);
    before = folds();
    (void)s.scene();
    (void)s.view();
    EXPECT_EQ(folds() - before, 1u);

    viva::viz::MappingRule host =
        *s.mapping().rule(vt::ContainerKind::Host);
    host.fillMetric = vt::kNoMetric;
    s.mapping().setRule(vt::ContainerKind::Host, host);
    before = folds();
    EXPECT_EQ(s.view().requests.size(), view.requests.size() - 1);
    (void)s.view();
    EXPECT_EQ(folds() - before, 1u);
    std::filesystem::remove(svg);

    // A cut change at the same slice and mapping folds the nodes that
    // enter the view and nothing else: one site aggregated brings in
    // one node, disaggregated its two clusters. A cut change that
    // leaves the visible set as it was folds nothing.
    // (Counted from after each gesture: a validate build audits
    // inside it, and the audit folds the view afresh.)
    const obs::CounterId values = reg.counter("agg.values");
    vap::Session g(makeGridTrace());
    const std::size_t metrics = g.view().requests.size();
    ASSERT_GT(metrics, 0u);
    ASSERT_TRUE(g.aggregate("site0"));
    std::uint64_t counted = reg.counterValue(values);
    before = folds();
    EXPECT_EQ(g.view().nodes.size(), 7u);
    (void)g.scene();
    EXPECT_EQ(reg.counterValue(values) - counted, 1 * metrics);
    EXPECT_EQ(folds() - before, 1u);

    ASSERT_TRUE(g.disaggregate("site0"));
    counted = reg.counterValue(values);
    EXPECT_EQ(g.view().nodes.size(), 8u);
    EXPECT_EQ(reg.counterValue(values) - counted, 2 * metrics);

    ASSERT_TRUE(g.aggregate("site0c0"));  // already collapsed
    counted = reg.counterValue(values);
    before = folds();
    (void)g.view();
    EXPECT_EQ(reg.counterValue(values) - counted, 0u);
    EXPECT_EQ(folds() - before, 0u);
}

namespace
{

/** Every value of the session's plain view is a fresh fold's, bitwise. */
void
expectFreshView(const vap::Session &s)
{
    const va::View got = s.view();
    std::vector<va::MetricRequest> requests = got.requests;
    const va::View want = va::buildView(s.trace(), s.projection(),
                                        s.timeSlice(), requests)
                              .value();
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    for (std::size_t i = 0; i < got.nodes.size(); ++i) {
        ASSERT_EQ(got.nodes[i].id, want.nodes[i].id);
        for (std::size_t k = 0; k < requests.size(); ++k)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.nodes[i].values[k]),
                      std::bit_cast<std::uint64_t>(want.nodes[i].values[k]))
                << "node " << i << " metric " << k;
    }
    EXPECT_TRUE(s.auditInvariants().empty());
}

} // namespace

TEST(SessionStoredRows, LoadNeverReusesTheOldTracesRows)
{
    // Same shape, same span, same metrics: every container index of the
    // old trace names a container of the new one, with other values.
    const std::string path = tempDir() + "/grid_offset.trace";
    vap::Session other(makeGridTrace(5.0));
    ASSERT_TRUE(other.saveTrace(path).ok());

    vap::Session s(makeGridTrace());
    (void)s.view();
    ASSERT_TRUE(s.aggregate("site1"));
    (void)s.view();
    ASSERT_TRUE(s.load(path).ok());
    ASSERT_EQ(s.timeSlice(), other.timeSlice());
    expectFreshView(s);
    ASSERT_TRUE(s.aggregate("site0"));
    expectFreshView(s);
    std::filesystem::remove(path);
}

TEST(SessionStoredRows, RestoreNeverReusesTheOldTracesRows)
{
    const std::string path = tempDir() + "/grid_offset.ckpt";
    vap::Session other(makeGridTrace(5.0));
    ASSERT_TRUE(other.aggregate("site1"));
    ASSERT_TRUE(other.checkpoint(path).ok());

    // The session to restore into stores rows for the very cut and
    // slice the checkpoint carries.
    vap::Session s(makeGridTrace());
    ASSERT_TRUE(s.aggregate("site1"));
    (void)s.view();
    ASSERT_TRUE(s.restore(path).ok());
    expectFreshView(s);
    ASSERT_TRUE(s.disaggregate("site1"));
    expectFreshView(s);
    std::filesystem::remove(path);
}

TEST(SessionStoredRows, AbortedIncrementalFoldFallsBackToAFullFold)
{
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId values = reg.counter("agg.values");
    const std::string svg = tempDir() + "/aborted_fold.svg";

    // Deadlines from "before the first row" to "after the last": each
    // abort may leave some entering rows folded and others not.
    std::size_t aborted = 0;
    for (std::uint64_t budget = 1; budget <= 12000; budget += 1000) {
        SCOPED_TRACE(budget);
        vap::Session s(makeGridTrace());
        s.aggregateToDepth(1);
        (void)s.view();
        // site1 stays; site0c0's three hosts and site0c1 enter.
        ASSERT_TRUE(s.focus("site0c0"));
        ASSERT_EQ(s.projection().size(), 5u);
        {
            viva::support::FakeClock clock(0, 1000);
            viva::support::ClockOverride guard(clock);
            s.setOperationDeadline(budget);
            viva::support::Expected<void> drawn = s.renderSvg(svg);
            s.setOperationDeadline(0);
            if (drawn.ok())
                continue;
            ASSERT_EQ(drawn.error().code(), viva::support::Errc::Deadline);
        }
        ++aborted;
        // Nothing of the partial fold is served: the next view folds
        // every row.
        const std::uint64_t before = reg.counterValue(values);
        const va::View v = s.view();
        EXPECT_EQ(reg.counterValue(values) - before,
                  v.nodes.size() * v.requests.size());
        expectFreshView(s);
    }
    EXPECT_GT(aborted, 1u);
    std::filesystem::remove(svg);
}

TEST(Aggregation, ViewCountsEachValueOnce)
{
    // agg.values and agg.closure.hits count one per (node, metric) of
    // a view, as per-value counting did, so perfbench's
    // agg.closure_lookups keeps its meaning.
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId values = reg.counter("agg.values");
    const obs::CounterId hits = reg.counter("agg.closure.hits");

    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    t.freeze();
    va::HierarchyCut cut(t);
    cut.aggregate(t.findByName("adonis"));
    const std::vector<va::MetricRequest> requests{
        va::MetricRequest(t.findMetric("power")),
        va::MetricRequest(t.findMetric("power_used"),
                          va::SpatialOp::Max)};
    for (std::size_t threads : {1u, 4u}) {
        const std::uint64_t v0 = reg.counterValue(values);
        const std::uint64_t h0 = reg.counterValue(hits);
        va::View v =
            va::buildView(t, cut, {0.0, 1.0}, requests, false, threads)
                .value();
        const std::uint64_t expect = v.nodes.size() * requests.size();
        ASSERT_GT(expect, 0u);
        EXPECT_EQ(reg.counterValue(values) - v0, expect);
        EXPECT_EQ(reg.counterValue(hits) - h0, expect);
    }
}

TEST(Aggregation, CountersCountWhileTimersAreDisarmed)
{
    // setEnabled(false) disarms the timers only: the same view and the
    // same value() calls add the same counter deltas either way.
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId values = reg.counter("agg.values");
    const obs::CounterId hits = reg.counter("agg.closure.hits");
    const bool was_enabled = reg.enabled();

    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    t.freeze();
    va::HierarchyCut cut(t);
    cut.aggregate(t.findByName("adonis"));
    const std::vector<va::MetricRequest> requests{
        va::MetricRequest(t.findMetric("power")),
        va::MetricRequest(t.findMetric("power_used"))};
    va::Aggregator agg(t);
    std::vector<std::uint64_t> deltas;
    for (bool armed : {true, false}) {
        reg.setEnabled(armed);
        const std::uint64_t v0 = reg.counterValue(values);
        const std::uint64_t h0 = reg.counterValue(hits);
        (void)va::buildView(t, cut, {0.0, 1.0}, requests, false, 2).value();
        (void)agg.value(t.root(), t.findMetric("power"), {0.0, 1.0});
        deltas.push_back(reg.counterValue(values) - v0);
        deltas.push_back(reg.counterValue(hits) - h0);
    }
    reg.setEnabled(was_enabled);
    ASSERT_EQ(deltas.size(), 4u);
    EXPECT_GT(deltas[0], 1u);
    EXPECT_EQ(deltas[0], deltas[2]);  // agg.values
    EXPECT_EQ(deltas[1], deltas[3]);  // agg.closure.hits
}

TEST(FrozenTrace, SimulatedAggregatorEqualsSessionBitwise)
{
    // One query path: a freshly simulated trace, frozen in place, and
    // a Session's own frozen copy of it fold every Eq.-1 value -- every
    // TemporalOp, several cuts and slices -- to the same bits.
    viva::support::Rng rng(21);
    vp::Platform plat = vp::makeSyntheticGrid(2, 3, 6, rng);
    viva::sim::SimulationRun run(plat, {"mw"});
    viva::workload::MwParams params;
    params.name = "mw";
    params.master = vp::HostId{0};
    for (std::size_t h = 1; h < plat.hostCount(); ++h)
        params.workers.push_back(vp::HostId::fromIndex(h));
    params.totalTasks = 400;
    params.taskMflop = 3000.0;
    viva::workload::MasterWorkerApp app(run, params, 1);
    app.start();
    run.engine.run();
    ASSERT_TRUE(app.finished());
    run.trace.freeze();
    ASSERT_GT(run.trace.pointCount(), 2000u);

    vap::Session session(run.trace);  // a copy with its own closure
    const vt::Trace &own = session.trace();
    ASSERT_TRUE(own.frozen());
    std::vector<vt::MetricId> metrics;
    for (vt::MetricId m{0}; m.index() < own.metricCount(); ++m)
        metrics.push_back(m);

    auto expectSameValues = [](const va::View &a, const va::View &b) {
        ASSERT_EQ(a.nodes.size(), b.nodes.size());
        for (std::size_t i = 0; i < a.nodes.size(); ++i) {
            ASSERT_EQ(a.nodes[i].id, b.nodes[i].id);
            for (std::size_t k = 0; k < a.requests.size(); ++k)
                EXPECT_EQ(a.nodes[i].values[k], b.nodes[i].values[k])
                    << "node " << a.nodes[i].id << " request " << k;
        }
    };
    for (std::uint16_t depth : {1, 2, 3, 4}) {
        session.aggregateToDepth(depth);
        for (std::uint32_t part : {0u, 3u, 6u}) {
            session.setSliceOf(va::SliceIndex{part}, 7);
            const va::TimeSlice slice = session.timeSlice();
            // The session's own view against a bare Aggregator's.
            va::View shown = session.view();
            expectSameValues(shown,
                             va::buildView(run.trace, session.cut(), slice,
                                           shown.requests, false, 1)
                                 .value());
            for (va::TemporalOp top :
                 {va::TemporalOp::Average, va::TemporalOp::Max,
                  va::TemporalOp::Min, va::TemporalOp::Integral}) {
                std::vector<va::MetricRequest> requests;
                for (vt::MetricId m : metrics)
                    requests.emplace_back(m, va::SpatialOp::Sum, top);
                expectSameValues(
                    va::buildView(own, session.cut(), slice, requests,
                                  false, 1)
                        .value(),
                    va::buildView(run.trace, session.cut(), slice,
                                  requests, false, 1)
                        .value());
            }
        }
    }
}

TEST(Session, AggregateByNameAndPath)
{
    vap::Session s = makePlatformSession();
    std::size_t before = s.cut().visibleCount();

    ASSERT_TRUE(s.aggregate("adonis"));  // unique simple name
    EXPECT_LT(s.cut().visibleCount(), before);
    EXPECT_EQ(s.layoutGraph().nodeCount(), s.cut().visibleCount());

    ASSERT_TRUE(s.aggregate("hpc/testbed/griffon"));  // full path
    EXPECT_FALSE(s.aggregate("no-such-thing"));
}

TEST(Session, LayoutFollowsTheCut)
{
    vap::Session s = makePlatformSession();
    s.aggregateToDepth(3);  // cluster level
    EXPECT_EQ(s.layoutGraph().nodeCount(), s.cut().visibleCount());
    s.resetAggregation();
    EXPECT_EQ(s.layoutGraph().nodeCount(), s.cut().visibleCount());
}

TEST(Session, AggregationPlacesGroupAtCentroid)
{
    vap::Session s = makePlatformSession();
    s.stabilizeLayout(200).value();

    // Centroid of adonis members before the collapse.
    auto adonis = s.trace().findByName("adonis");
    ASSERT_NE(adonis, vt::kNoContainer);
    vl::Vec2 centroid;
    std::size_t count = 0;
    for (auto id : s.trace().subtree(adonis)) {
        vl::NodeId n = s.layoutNode(id);
        if (n != vl::kNoNode) {
            centroid += s.layoutGraph().node(n).position;
            ++count;
        }
    }
    ASSERT_GT(count, 0u);
    centroid = centroid / double(count);

    ASSERT_TRUE(s.aggregate("adonis"));
    vl::NodeId agg = s.layoutNode(adonis);
    ASSERT_NE(agg, vl::kNoNode);
    EXPECT_NEAR(s.layoutGraph().node(agg).position.x, centroid.x, 1e-9);
    EXPECT_NEAR(s.layoutGraph().node(agg).position.y, centroid.y, 1e-9);
    // The aggregated node carries the summed charge of its leaves.
    EXPECT_GT(s.layoutGraph().node(agg).charge, 10.0);
}

TEST(Session, SmoothTransitionAcrossScales)
{
    vap::Session s = makePlatformSession();
    s.stabilizeLayout(400).value();
    double extent =
        std::sqrt(vl::boundingBoxArea(s.layoutGraph())) + 1e-9;
    auto before = vl::snapshotPositions(s.layoutGraph());

    s.aggregate("adonis");
    s.stabilizeLayout(100).value();
    auto after = vl::snapshotPositions(s.layoutGraph());

    // Nodes surviving the transition barely move: the paper's smooth
    // layout claim, quantified.
    auto d = vl::displacement(before, after);
    ASSERT_GT(d.count(), 0u);
    EXPECT_LT(d.mean(), extent * 0.5);
}

TEST(Session, DisaggregationFansOutAroundParent)
{
    vap::Session s = makePlatformSession();
    s.aggregate("adonis");
    s.stabilizeLayout(100).value();
    auto adonis = s.trace().findByName("adonis");
    vl::Vec2 parent_pos =
        s.layoutGraph().node(s.layoutNode(adonis)).position;

    ASSERT_TRUE(s.disaggregate("adonis"));
    // Children spawned near the parent's last position.
    for (auto id : s.trace().container(adonis).children) {
        vl::NodeId n = s.layoutNode(id);
        if (n == vl::kNoNode)
            continue;  // grandchildren case
        EXPECT_LT(vl::distance(s.layoutGraph().node(n).position,
                               parent_pos),
                  200.0);
    }
}

TEST(Session, MoveNodeDragsAndReleases)
{
    vap::Session s(vt::makeFigure1Trace());
    ASSERT_TRUE(s.moveNode("HostA", 500.0, 500.0));
    auto id = s.trace().findByPath("HostA");
    vl::NodeId n = s.layoutNode(id);
    // Released after the move: not pinned, but near the target.
    EXPECT_FALSE(s.layoutGraph().node(n).pinned);
    EXPECT_FALSE(s.moveNode("nope", 0, 0));
}

TEST(Session, PinNode)
{
    vap::Session s(vt::makeFigure1Trace());
    ASSERT_TRUE(s.pinNode("HostA", true));
    auto id = s.trace().findByPath("HostA");
    EXPECT_TRUE(s.layoutGraph().node(s.layoutNode(id)).pinned);
    ASSERT_TRUE(s.pinNode("HostA", false));
    EXPECT_FALSE(
        s.layoutGraph().node(s.layoutNode(id)).pinned);
}

TEST(Session, SceneAndAsciiRender)
{
    vap::Session s(vt::makeFigure1Trace());
    s.stabilizeLayout(200).value();
    viva::viz::Scene scene = s.scene();
    EXPECT_EQ(scene.nodes.size(), 3u);
    std::string text = s.renderAscii();
    EXPECT_FALSE(text.empty());
}

TEST(Session, RenderSvgWritesFile)
{
    vap::Session s(vt::makeFigure1Trace());
    s.stabilizeLayout(100).value();
    std::string path = tempDir() + "/fig1.svg";
    ASSERT_TRUE(s.renderSvg(path, "test render").ok());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("</svg>"), std::string::npos);
}

TEST(Session, AnimateWritesFrames)
{
    vap::Session s(vt::makeFigure1Trace());
    std::string dir = tempDir() + "/anim";
    auto frames = s.animate(3, dir, "f", 20);
    ASSERT_TRUE(frames.ok()) << frames.error().toString();
    EXPECT_EQ(*frames, 3u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/f000.svg"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/f002.svg"));
    // The slice is left at the last frame.
    EXPECT_DOUBLE_EQ(s.timeSlice().end, s.span().end);
}

TEST(Session, StatsViewExposesIndicators)
{
    vap::Session s = makePlatformSession();
    s.aggregateToDepth(3);
    va::View v = s.view(/*with_stats=*/true);
    bool found = false;
    for (const auto &n : v.nodes) {
        if (!n.aggregated)
            continue;
        ASSERT_EQ(n.stats.size(), v.requests.size());
        found = true;
    }
    EXPECT_TRUE(found);
}

// --- command interpreter ---------------------------------------------------------

TEST(Commands, SliceAndInfo)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("slice 2 6", out));
    EXPECT_DOUBLE_EQ(s.timeSlice().begin, 2.0);
    EXPECT_TRUE(cli.execute("info", out));
    EXPECT_NE(out.str().find("slice [2, 6)"), std::string::npos);
}

TEST(Commands, SliceOfValidation)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("slice-of 1 4", out));
    EXPECT_FALSE(cli.execute("slice-of 4 4", out));
    EXPECT_FALSE(cli.execute("slice-of 1 0", out));
    EXPECT_FALSE(cli.execute("slice 6 2", out));
}

TEST(Commands, SliceRejectsNonFiniteBounds)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    ASSERT_TRUE(cli.execute("slice 2 6", out));
    const std::uint64_t before = s.stateDigest();
    for (const char *line : {"slice nan 5", "slice 0 nan", "slice nan nan",
                             "slice -inf 5", "slice 0 inf", "slice inf inf"}) {
        std::ostringstream err;
        EXPECT_FALSE(cli.execute(line, err)) << line;
        EXPECT_EQ(err.str(), "error: slice bounds must be finite\n") << line;
        EXPECT_EQ(s.stateDigest(), before) << line;
    }
    EXPECT_EQ(s.timeSlice(), va::TimeSlice(2.0, 6.0));
}

TEST(Commands, SliceOfRejectsCountsBeyondTheSliceIndexRange)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    ASSERT_TRUE(cli.execute("slice-of 1 3", out));
    const va::TimeSlice chosen = s.timeSlice();
    const std::uint64_t before = s.stateDigest();
    // A count past the index type must not be allocated, and an index
    // past it must not wrap around to slice 0.
    for (const char *line : {"slice-of 0 100000000000",
                             "slice-of 4294967296 4294967297",
                             "slice-of 0 4294967296"}) {
        std::ostringstream err;
        EXPECT_FALSE(cli.execute(line, err)) << line;
        EXPECT_EQ(err.str().rfind("error: slice-of ", 0), 0u) << err.str();
        EXPECT_EQ(s.stateDigest(), before) << line;
        EXPECT_EQ(s.timeSlice(), chosen) << line;
    }
    // The largest addressable division is computed directly.
    EXPECT_TRUE(cli.execute("slice-of 4294967294 4294967295", out));
    EXPECT_EQ(s.timeSlice().end, s.span().end);
    EXPECT_LT(s.timeSlice().begin, s.span().end);
}

TEST(Commands, RejectsNonFiniteNumbersAndDepthsPastTheLevelType)
{
    vap::Session s = makePlatformSession();
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    ASSERT_TRUE(cli.execute("depth 2", out));
    ASSERT_FALSE(s.projection().nodes.empty());
    const std::string node = s.trace().fullName(s.projection().nodes[0]);
    const vt::MetricId power = s.trace().findMetric("power");
    const std::string path = tempDir() + "/rejected_numbers.ckpt";
    const std::vector<std::string> lines = {
        "charge nan",         "charge inf",        "spring inf",
        "spring -inf",        "damping nan",       "scale power nan",
        "scale power inf",    "move " + node + " nan 3",
        "move " + node + " 3 -inf",                "depth 65536",
        "depth 65537",        "anomalies power nan"};
    for (const std::string &line : lines) {
        const std::uint64_t before = s.stateDigest();
        const double slider = s.scaling().slider(power);
        std::ostringstream err;
        EXPECT_FALSE(cli.execute(line, err)) << line;
        EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << err.str();
        EXPECT_EQ(s.stateDigest(), before) << line;
        EXPECT_EQ(s.scaling().slider(power), slider) << line;
        // The session still writes only checkpoints it can restore.
        std::ostringstream round_trip;
        ASSERT_TRUE(cli.execute("checkpoint " + path, round_trip))
            << line << ": " << round_trip.str();
        ASSERT_TRUE(cli.execute("restore " + path, round_trip))
            << line << ": " << round_trip.str();
        EXPECT_EQ(s.stateDigest(), before) << line;
    }
    // The deepest level the type holds is still a valid depth.
    std::ostringstream deepest;
    EXPECT_TRUE(cli.execute("depth 65535", deepest));
    EXPECT_EQ(deepest.str().rfind("depth 65535 (", 0), 0u) << deepest.str();
    std::filesystem::remove(path);
}

TEST(Session, MoveNodeRejectsNonFiniteCoordinates)
{
    vap::Session s = makePlatformSession();
    s.aggregateToDepth(2);
    const std::string node = s.trace().fullName(s.projection().nodes[0]);
    const std::uint64_t before = s.stateDigest();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(s.moveNode(node, nan, 3.0));
    EXPECT_FALSE(s.moveNode(node, 3.0, inf));
    EXPECT_EQ(s.stateDigest(), before);
    EXPECT_TRUE(s.moveNode(node, 3.0, 4.0));
}

TEST(Commands, AggregationRoundTrip)
{
    vap::Session s = makePlatformSession();
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    std::size_t leaves = s.cut().visibleCount();
    EXPECT_TRUE(cli.execute("aggregate adonis", out));
    EXPECT_TRUE(cli.execute("disaggregate adonis", out));
    EXPECT_EQ(s.cut().visibleCount(), leaves);
    EXPECT_TRUE(cli.execute("depth 3", out));
    EXPECT_TRUE(cli.execute("reset", out));
    EXPECT_FALSE(cli.execute("aggregate bogus", out));
}

TEST(Commands, SlidersReachParams)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("charge 1234", out));
    EXPECT_TRUE(cli.execute("spring 0.5", out));
    EXPECT_TRUE(cli.execute("damping 0.7", out));
    EXPECT_DOUBLE_EQ(s.forceParams().charge, 1234.0);
    EXPECT_DOUBLE_EQ(s.forceParams().spring, 0.5);
    EXPECT_DOUBLE_EQ(s.forceParams().damping, 0.7);
    EXPECT_TRUE(cli.execute("scale power 2.0", out));
    EXPECT_DOUBLE_EQ(
        s.scaling().slider(s.trace().findMetric("power")), 2.0);
    EXPECT_FALSE(cli.execute("scale nope 2.0", out));
}

TEST(Commands, NodesListsValues)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("nodes", out));
    EXPECT_NE(out.str().find("HostA"), std::string::npos);
    EXPECT_NE(out.str().find("power="), std::string::npos);
}

TEST(Commands, UnknownAndMalformed)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    EXPECT_FALSE(cli.execute("frobnicate", out));
    EXPECT_FALSE(cli.execute("slice 1", out));
    EXPECT_FALSE(cli.execute("slice a b", out));
    EXPECT_TRUE(cli.execute("", out));
    EXPECT_TRUE(cli.execute("# comment", out));
    EXPECT_TRUE(cli.execute("help", out));
}

TEST(Commands, ScriptExecution)
{
    vap::Session s = makePlatformSession();
    vap::CommandInterpreter cli(s);
    std::istringstream script(
        "# an analysis script\n"
        "slice-of 0 2\n"
        "depth 3\n"
        "stabilize 50\n"
        "ascii\n"
        "info\n");
    std::ostringstream out;
    EXPECT_EQ(cli.executeScript(script, out), 6u);
}

TEST(Commands, ScriptStopsAtFirstError)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::istringstream script("info\nbogus\ninfo\n");
    std::ostringstream out;
    EXPECT_EQ(cli.executeScript(script, out), 1u);
}

TEST(Commands, RenderWritesSvg)
{
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::string path = tempDir() + "/cmd.svg";
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("render " + path + " my title", out));
    EXPECT_TRUE(std::filesystem::exists(path));
}
