/**
 * @file
 * Tests for the paper's extension features: temporal/spatial operator
 * selection, state aggregation, composition (pie) glyphs, statistical
 * indicators, treemaps, Gantt charts, and the session/command plumbing
 * that exposes them.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "agg/aggregate.hh"
#include "agg/states.hh"
#include "app/commands.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "support/strings.hh"
#include "trace/builder.hh"
#include "viz/gantt.hh"
#include "viz/scene.hh"
#include "viz/svg.hh"
#include "viz/treemap.hh"
#include "workload/masterworker.hh"
#include "workload/nasdt.hh"

namespace va = viva::agg;
namespace vap = viva::app;
namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vv = viva::viz;
namespace vw = viva::workload;

namespace
{

std::string
tempDir()
{
    auto dir =
        std::filesystem::temp_directory_path() / "viva_extensions_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace

// --- temporal operators --------------------------------------------------------

TEST(TemporalOps, MaxMinIntegral)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto h = b.host("h");
    vt::Trace &t = b.trace();
    t.variable(h, power).set(0.0, 10.0);
    t.variable(h, power).set(2.0, 50.0);
    t.variable(h, power).set(4.0, 20.0);
    vt::Trace trace = b.take();

    va::Aggregator agg(trace);
    va::TimeSlice slice{0.0, 6.0};
    EXPECT_DOUBLE_EQ(agg.value(h, power, slice, va::SpatialOp::Sum,
                               va::TemporalOp::Average),
                     (10 * 2 + 50 * 2 + 20 * 2) / 6.0);
    EXPECT_DOUBLE_EQ(agg.value(h, power, slice, va::SpatialOp::Sum,
                               va::TemporalOp::Max),
                     50.0);
    EXPECT_DOUBLE_EQ(agg.value(h, power, slice, va::SpatialOp::Sum,
                               va::TemporalOp::Min),
                     10.0);
    EXPECT_DOUBLE_EQ(agg.value(h, power, slice, va::SpatialOp::Sum,
                               va::TemporalOp::Integral),
                     160.0);
}

TEST(TemporalOps, MixedRequestsInOneView)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto used = b.powerUsedMetric();
    b.beginGroup("g", vt::ContainerKind::Cluster);
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.variable(h1, power).set(0.0, 10.0);
    t.variable(h2, power).set(0.0, 30.0);
    t.variable(h1, used).set(0.0, 4.0);
    t.variable(h2, used).set(0.0, 6.0);
    vt::Trace trace = b.take();
    auto g = trace.findByName("g");

    va::HierarchyCut cut(trace);
    cut.aggregate(g);
    std::vector<va::MetricRequest> requests{
        va::MetricRequest(power, va::SpatialOp::Sum),
        va::MetricRequest(power, va::SpatialOp::Max),
        va::MetricRequest(used, va::SpatialOp::Average),
    };
    va::View view =
        va::buildView(trace, cut, {0.0, 1.0}, requests).value();
    ASSERT_EQ(view.nodes.size(), 1u);
    EXPECT_DOUBLE_EQ(view.value(0, 0), 40.0);  // sum
    EXPECT_DOUBLE_EQ(view.value(0, 1), 30.0);  // max
    EXPECT_DOUBLE_EQ(view.value(0, 2), 5.0);   // average
    EXPECT_EQ(view.requests.size(), 3u);
}

// --- state aggregation -----------------------------------------------------------

TEST(StateShares, FractionsAndClipping)
{
    vt::TraceBuilder b;
    b.beginGroup("g", vt::ContainerKind::Cluster);
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.addState(h1, 0.0, 4.0, "compute");
    t.addState(h1, 4.0, 6.0, "wait");
    t.addState(h2, 0.0, 2.0, "compute");
    vt::Trace trace = b.take();
    auto g = trace.findByName("g");

    // Whole window: compute 6s, wait 2s.
    auto shares = va::stateShares(trace, g, {0.0, 10.0});
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_EQ(shares[0].state, "compute");
    EXPECT_DOUBLE_EQ(shares[0].seconds, 6.0);
    EXPECT_DOUBLE_EQ(shares[0].fraction, 0.75);
    EXPECT_DOUBLE_EQ(shares[1].fraction, 0.25);
    EXPECT_DOUBLE_EQ(va::observedStateTime(trace, g, {0.0, 10.0}), 8.0);

    // A slice clips the records: [3, 5) sees 1s compute + 1s wait.
    shares = va::stateShares(trace, g, {3.0, 5.0});
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_DOUBLE_EQ(shares[0].fraction, 0.5);

    // Fractions always sum to 1 when anything was observed.
    double sum = 0;
    for (const auto &s : shares)
        sum += s.fraction;
    EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(StateShares, EmptyWhenNoStates)
{
    vt::Trace t = vt::makeFigure1Trace();
    EXPECT_TRUE(va::stateShares(t, t.root(), {0.0, 12.0}).empty());
    EXPECT_DOUBLE_EQ(va::observedStateTime(t, t.root(), {0.0, 12.0}),
                     0.0);
}

TEST(StateShares, ScopedToSubtree)
{
    vt::TraceBuilder b;
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    vt::Trace &t = b.trace();
    t.addState(h1, 0.0, 1.0, "a");
    t.addState(h2, 0.0, 3.0, "b");
    vt::Trace trace = b.take();

    auto shares = va::stateShares(trace, h1, {0.0, 10.0});
    ASSERT_EQ(shares.size(), 1u);
    EXPECT_EQ(shares[0].state, "a");
}

TEST(WorkloadStates, MasterWorkerRecordsCompute)
{
    vp::Platform p("t");
    auto s = p.addSite("s");
    auto r = p.addRouter("r", s);
    for (int i = 0; i < 3; ++i) {
        auto h = p.addHost("h" + std::to_string(i), 1000.0, s);
        auto l = p.addLink("l" + std::to_string(i), 100.0, 1e-4, s);
        p.connect(p.host(h).vertex, p.router(r).vertex, l);
    }
    vs::SimulationRun run(p);
    vw::MwParams params;
    params.master = vp::HostId{0};
    params.workers = {vp::HostId{1}, vp::HostId{2}};
    params.totalTasks = 6;
    params.taskMflop = 500.0;
    params.recordStates = true;
    vw::MasterWorkerApp app(run, params, vs::kDefaultTag);
    app.start();
    run.engine.run();

    ASSERT_EQ(run.trace.states().size(), 6u);
    for (const auto &state : run.trace.states()) {
        EXPECT_EQ(state.state, "compute:app");
        EXPECT_LT(state.begin, state.end);
    }
    // Total recorded compute time equals tasks x (mflop / power).
    double total = va::observedStateTime(run.trace, run.trace.root(),
                                         run.trace.span());
    EXPECT_NEAR(total, 6.0 * 500.0 / 1000.0, 1e-6);
}

TEST(WorkloadStates, DtRecordsForwardAndConsume)
{
    vp::Platform plat = vp::makeTwoClusterPlatform();
    vs::SimulationRun run(plat);
    vw::DtParams params;
    params.cycles = 2;
    params.recordStates = true;
    vw::runNasDtWhiteHole(run, params,
                          vw::sequentialDeployment(plat, params));

    std::size_t forward = 0, consume = 0;
    for (const auto &state : run.trace.states()) {
        if (state.state == "forward")
            ++forward;
        else if (state.state == "consume")
            ++consume;
    }
    // Per cycle: 4 forwarders forward, 16 leaves consume.
    EXPECT_EQ(forward, 2u * 4u);
    EXPECT_EQ(consume, 2u * 16u);
}

// --- composition (pie) glyphs -----------------------------------------------------

namespace
{

/** A cluster of two hosts with two per-app usage metrics. */
struct CompositionFixture
{
    vt::Trace trace;
    vt::ContainerId g, h1, h2;
    vt::MetricId power, used_a, used_b;

    /** `with_states` gives h1 a busy and an idle state. */
    explicit CompositionFixture(bool with_states = false)
    {
        vt::TraceBuilder b;
        power = b.powerMetric();
        b.beginGroup("g", vt::ContainerKind::Cluster);
        h1 = b.host("h1");
        h2 = b.host("h2");
        b.endGroup();
        vt::Trace &t = b.trace();
        used_a = t.addMetric("power_used:a", "MFlops",
                             vt::MetricNature::Utilization, power);
        used_b = t.addMetric("power_used:b", "MFlops",
                             vt::MetricNature::Utilization, power);
        t.variable(h1, power).set(0.0, 100.0);
        t.variable(h2, power).set(0.0, 100.0);
        t.variable(h1, used_a).set(0.0, 50.0);
        t.variable(h2, used_b).set(0.0, 30.0);
        if (with_states) {
            t.addState(h1, 0.0, 1.0, "busy");
            t.addState(h1, 1.0, 4.0, "idle");
        }
        trace = b.take();
        g = trace.findByName("g");
    }
};

} // namespace

TEST(Composition, SegmentsFromPerAppMetrics)
{
    CompositionFixture f;
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::CompositionRule rule;
    rule.parts = {f.used_a, f.used_b};
    rule.total = f.power;
    mapping.setComposition(rule);

    // referencedMetrics must now include the parts and the total.
    auto metrics = mapping.referencedMetrics();
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), f.used_a),
              metrics.end());

    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.g);
    va::View view = va::buildView(f.trace, cut, {0.0, 1.0}, metrics);
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{{f.g.value(), {0.0, 0.0}}};
    vv::Scene scene =
        vv::composeScene(view, f.trace, pos, mapping, scaling);

    ASSERT_EQ(scene.nodes.size(), 1u);
    ASSERT_EQ(scene.nodes[0].segments.size(), 2u);
    // Shares of total power (200): 50/200 and 30/200.
    EXPECT_DOUBLE_EQ(scene.nodes[0].segments[0].fraction, 0.25);
    EXPECT_DOUBLE_EQ(scene.nodes[0].segments[1].fraction, 0.15);
    // Default categorical colors assigned.
    EXPECT_NE(scene.nodes[0].segments[0].color,
              scene.nodes[0].segments[1].color);
}

TEST(Composition, LeavesGetNoCompositionPie)
{
    CompositionFixture f;
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::CompositionRule rule;
    rule.parts = {f.used_a};
    rule.total = f.power;
    mapping.setComposition(rule);

    va::HierarchyCut cut(f.trace);  // leaves visible
    va::View view = va::buildView(f.trace, cut, {0.0, 1.0},
                                  mapping.referencedMetrics());
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{{f.h1.value(), {0, 0}}, {f.h2.value(), {10, 0}}};
    vv::Scene scene =
        vv::composeScene(view, f.trace, pos, mapping, scaling);
    for (const auto &node : scene.nodes)
        EXPECT_TRUE(node.segments.empty());
}

TEST(Composition, StatePiesOverrideComposition)
{
    CompositionFixture f(true);

    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.g);
    va::View view = va::buildView(f.trace, cut, {0.0, 4.0},
                                  mapping.referencedMetrics());
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{{f.g.value(), {0.0, 0.0}}};
    vv::SceneOptions options;
    options.statePies = true;
    vv::Scene scene = vv::composeScene(view, f.trace, pos, mapping,
                                       scaling, options);
    ASSERT_EQ(scene.nodes.size(), 1u);
    ASSERT_EQ(scene.nodes[0].segments.size(), 2u);
    EXPECT_EQ(scene.nodes[0].segments[0].label, "idle");  // 75% first
    EXPECT_DOUBLE_EQ(scene.nodes[0].segments[0].fraction, 0.75);
}

TEST(Composition, PieRenderedInSvg)
{
    CompositionFixture f;
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::CompositionRule rule;
    rule.parts = {f.used_a, f.used_b};
    rule.total = f.power;
    mapping.setComposition(rule);

    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.g);
    va::View view = va::buildView(f.trace, cut, {0.0, 1.0},
                                  mapping.referencedMetrics());
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{{f.g.value(), {0.0, 0.0}}};
    vv::Scene scene =
        vv::composeScene(view, f.trace, pos, mapping, scaling);

    std::ostringstream out;
    vv::writeSvg(scene, out);
    EXPECT_NE(out.str().find("<path d=\"M"), std::string::npos);
}

TEST(CompositionDeath, BadRulesAssert)
{
    vv::VisualMapping mapping;
    vv::CompositionRule empty;
    empty.total = vt::MetricId{0};
    EXPECT_DEATH(mapping.setComposition(empty), "parts");
}

// --- statistical indicators -------------------------------------------------------

TEST(Indicators, HeterogeneityFlagsUnevenAggregates)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    b.beginGroup("uneven", vt::ContainerKind::Cluster);
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    b.endGroup();
    b.beginGroup("even", vt::ContainerKind::Cluster);
    auto h3 = b.host("h3");
    auto h4 = b.host("h4");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.variable(h1, power).set(0.0, 1.0);
    t.variable(h2, power).set(0.0, 99.0);   // wildly different
    t.variable(h3, power).set(0.0, 50.0);
    t.variable(h4, power).set(0.0, 50.0);   // identical
    vt::Trace trace = b.take();

    vv::VisualMapping mapping = vv::VisualMapping::defaults(trace);
    va::HierarchyCut cut(trace);
    cut.aggregateToDepth(1);
    va::View view =
        va::buildView(trace, cut, {0.0, 1.0},
                      mapping.referencedMetrics(), va::SpatialOp::Sum,
                      /*with_stats=*/true);
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{
        {trace.findByName("uneven").value(), {0, 0}},
        {trace.findByName("even").value(), {100, 0}}};
    vv::Scene scene =
        vv::composeScene(view, trace, pos, mapping, scaling);

    double uneven_h = -1, even_h = -1;
    for (const auto &n : scene.nodes) {
        if (n.label == "uneven")
            uneven_h = n.heterogeneity;
        if (n.label == "even")
            even_h = n.heterogeneity;
    }
    EXPECT_GT(uneven_h, 0.9);  // cv of {1, 99} is 0.98
    EXPECT_NEAR(even_h, 0.0, 1e-12);

    std::ostringstream out;
    vv::writeSvg(scene, out);
    EXPECT_NE(out.str().find("stroke-dasharray"), std::string::npos);
    EXPECT_NE(out.str().find("heterogeneity"), std::string::npos);
}

TEST(Indicators, NoRingWithoutStats)
{
    vt::Trace trace = vt::makeFigure1Trace();
    vap::Session session(std::move(trace));
    std::ostringstream out;
    vv::writeSvg(session.scene(), out);
    EXPECT_EQ(out.str().find("stroke-dasharray"), std::string::npos);
}

// --- colors -----------------------------------------------------------------------

TEST(Colors, CategoricalCycles)
{
    EXPECT_EQ(vv::palette::categorical(0), vv::palette::categorical(8));
    EXPECT_NE(vv::palette::categorical(0), vv::palette::categorical(1));
}

TEST(Colors, NameColorsAreStable)
{
    EXPECT_EQ(vv::colorForName("compute"), vv::colorForName("compute"));
}

TEST(Colors, XmlEscape)
{
    EXPECT_EQ(viva::support::xmlEscape("a<b>&\"'"),
              "a&lt;b&gt;&amp;&quot;&apos;");
}

// --- treemap ----------------------------------------------------------------------

namespace
{

vt::Trace
treemapFixture()
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    b.beginGroup("s1", vt::ContainerKind::Site);
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    b.endGroup();
    b.beginGroup("s2", vt::ContainerKind::Site);
    auto h3 = b.host("h3");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.variable(h1, power).set(0.0, 10.0);
    t.variable(h2, power).set(0.0, 30.0);
    t.variable(h3, power).set(0.0, 60.0);
    return b.take();
}

const vv::TreemapCell *
cellOf(const vv::Treemap &map, const std::string &label)
{
    for (const auto &cell : map.cells)
        if (cell.label == label)
            return &cell;
    return nullptr;
}

} // namespace

TEST(Treemap, AreasProportionalToValues)
{
    vt::Trace trace = treemapFixture();
    vv::TreemapOptions options;
    options.width = 100;
    options.height = 100;
    options.padding = 0;
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);

    const auto *s1 = cellOf(map, "s1");
    const auto *s2 = cellOf(map, "s2");
    const auto *h3 = cellOf(map, "h3");
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s2, nullptr);
    ASSERT_NE(h3, nullptr);
    // Total value 100 over a 10000 px^2 canvas: 100 px^2 per unit.
    EXPECT_NEAR(s1->area(), 4000.0, 1e-6);
    EXPECT_NEAR(s2->area(), 6000.0, 1e-6);
    EXPECT_NEAR(h3->area(), 6000.0, 1e-6);
    EXPECT_FALSE(s1->leaf);
    EXPECT_TRUE(h3->leaf);
}

TEST(Treemap, ChildrenNestInsideParents)
{
    vt::Trace trace = treemapFixture();
    vv::TreemapOptions options;
    options.width = 200;
    options.height = 100;
    options.padding = 2;
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);

    const auto *s1 = cellOf(map, "s1");
    for (const char *name : {"h1", "h2"}) {
        const auto *child = cellOf(map, name);
        ASSERT_NE(child, nullptr);
        EXPECT_GE(child->x, s1->x);
        EXPECT_GE(child->y, s1->y);
        EXPECT_LE(child->x + child->width, s1->x + s1->width + 1e-9);
        EXPECT_LE(child->y + child->height, s1->y + s1->height + 1e-9);
    }
}

TEST(Treemap, SiblingsDoNotOverlap)
{
    vt::Trace trace = treemapFixture();
    vv::TreemapOptions options;
    options.padding = 0;
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);
    const auto *h1 = cellOf(map, "h1");
    const auto *h2 = cellOf(map, "h2");
    bool disjoint_x = h1->x + h1->width <= h2->x + 1e-9 ||
                      h2->x + h2->width <= h1->x + 1e-9;
    bool disjoint_y = h1->y + h1->height <= h2->y + 1e-9 ||
                      h2->y + h2->height <= h1->y + 1e-9;
    EXPECT_TRUE(disjoint_x || disjoint_y);
}

TEST(Treemap, MaxDepthCutsSubtrees)
{
    vt::Trace trace = treemapFixture();
    vv::TreemapOptions options;
    options.maxDepth = 1;
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);
    EXPECT_EQ(cellOf(map, "h1"), nullptr);
    const auto *s1 = cellOf(map, "s1");
    ASSERT_NE(s1, nullptr);
    EXPECT_TRUE(s1->leaf);  // rendered as a leaf at the cut
}

TEST(Treemap, ZeroValueSubtreesDropped)
{
    vt::Trace trace = treemapFixture();
    // Bandwidth exists as a metric but no variable carries it.
    auto bw = trace.findMetric("bandwidth");
    vv::Treemap map =
        vv::buildTreemap(trace, bw, {0.0, 1.0}, vv::TreemapOptions());
    EXPECT_TRUE(map.cells.empty());
}

TEST(Treemap, SvgOutput)
{
    vt::Trace trace = treemapFixture();
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0},
        vv::TreemapOptions());
    std::ostringstream out;
    vv::writeTreemapSvg(map, out, "a map");
    EXPECT_NE(out.str().find("<svg"), std::string::npos);
    EXPECT_NE(out.str().find("a map"), std::string::npos);
    EXPECT_NE(out.str().find("<title>"), std::string::npos);
}

TEST(Treemap, GridScaleIsFast)
{
    vp::Platform p = vp::makeGrid5000();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    t.freeze();
    vv::Treemap map = vv::buildTreemap(t, t.findMetric("power"),
                                       {0.0, 1.0},
                                       vv::TreemapOptions());
    // 2170 host cells + 30 clusters + 12 sites + grid.
    EXPECT_GT(map.cells.size(), 2200u);
}

// --- gantt ------------------------------------------------------------------------

TEST(Gantt, RowsAndClipping)
{
    vt::TraceBuilder b;
    auto h1 = b.host("alpha");
    auto h2 = b.host("beta");
    vt::Trace &t = b.trace();
    t.addState(h1, 0.0, 5.0, "compute");
    t.addState(h1, 5.0, 8.0, "wait");
    t.addState(h2, 2.0, 6.0, "compute");
    vt::Trace trace = b.take();

    vv::GanttChart chart = vv::buildGantt(trace, {1.0, 7.0});
    ASSERT_EQ(chart.rows.size(), 2u);
    EXPECT_EQ(chart.rows[0].label, "alpha");  // sorted by name
    ASSERT_EQ(chart.rows[0].bars.size(), 2u);
    // Clipped to the window.
    EXPECT_DOUBLE_EQ(chart.rows[0].bars[0].begin, 1.0);
    EXPECT_DOUBLE_EQ(chart.rows[0].bars[1].end, 7.0);
    // Equal states share a color across rows.
    EXPECT_EQ(chart.rows[0].bars[0].color, chart.rows[1].bars[0].color);
}

TEST(Gantt, ScopeAndMaxRows)
{
    vt::TraceBuilder b;
    b.beginGroup("g1", vt::ContainerKind::Cluster);
    auto h1 = b.host("h1");
    b.endGroup();
    b.beginGroup("g2", vt::ContainerKind::Cluster);
    auto h2 = b.host("h2");
    auto h3 = b.host("h3");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.addState(h1, 0.0, 1.0, "s");
    t.addState(h2, 0.0, 1.0, "s");
    t.addState(h3, 0.0, 1.0, "s");
    vt::Trace trace = b.take();

    vv::GanttOptions options;
    options.scope = trace.findByName("g2");
    vv::GanttChart chart = vv::buildGantt(trace, {0.0, 1.0}, options);
    EXPECT_EQ(chart.rows.size(), 2u);

    options.scope = trace.root();
    options.maxRows = 2;
    chart = vv::buildGantt(trace, {0.0, 1.0}, options);
    EXPECT_EQ(chart.rows.size(), 2u);
}

TEST(Gantt, SvgOutput)
{
    vt::TraceBuilder b;
    auto h = b.host("h");
    b.trace().addState(h, 0.0, 2.0, "busy");
    vt::Trace trace = b.take();
    vv::GanttChart chart = vv::buildGantt(trace, {0.0, 2.0});
    std::ostringstream out;
    vv::GanttSvgOptions options;
    options.title = "timeline";
    vv::writeGanttSvg(chart, out, options);
    EXPECT_NE(out.str().find("timeline"), std::string::npos);
    EXPECT_NE(out.str().find("busy"), std::string::npos);
    EXPECT_NE(out.str().find("<line"), std::string::npos);  // axis
}

// --- session / commands plumbing ----------------------------------------------------

TEST(SessionExtensions, RenderTreemapAndGantt)
{
    vp::Platform plat = vp::makeTwoClusterPlatform();
    vs::SimulationRun run(plat);
    vw::DtParams params;
    params.cycles = 2;
    params.recordStates = true;
    vw::runNasDtWhiteHole(run, params,
                          vw::sequentialDeployment(plat, params));

    vap::Session session(std::move(run.trace));
    std::string dir = tempDir();
    EXPECT_TRUE(session.renderTreemap(dir + "/map.svg", "power"));
    EXPECT_FALSE(session.renderTreemap(dir + "/map.svg", "nope"));
    auto rows = session.renderGantt(dir + "/gantt.svg");
    ASSERT_TRUE(rows.ok()) << rows.error().toString();
    EXPECT_GT(*rows, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/map.svg"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/gantt.svg"));
}

TEST(CommandsExtensions, TreemapAndGantt)
{
    vap::Session session(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(session);
    std::string dir = tempDir();
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("treemap power " + dir + "/t.svg", out));
    EXPECT_FALSE(cli.execute("treemap bogus " + dir + "/t.svg", out));
    EXPECT_TRUE(cli.execute("gantt " + dir + "/g.svg", out));
    EXPECT_TRUE(std::filesystem::exists(dir + "/t.svg"));
}

// --- process containers -----------------------------------------------------------

TEST(ProcessContainers, DtRanksNestUnderHosts)
{
    vp::Platform plat = vp::makeTwoClusterPlatform();
    vs::SimulationRun run(plat);
    vw::DtParams params;
    params.cycles = 2;
    params.recordStates = true;
    params.createProcessContainers = true;
    vw::Deployment dep = vw::sequentialDeployment(plat, params);
    vw::runNasDtWhiteHole(run, params, dep);
    run.trace.freeze();

    // 21 rank containers, each a Process under the right host.
    auto processes =
        run.trace.containersOfKind(vt::ContainerKind::Process);
    ASSERT_EQ(processes.size(), 21u);
    auto rank0 = run.trace.findByName("rank-0");
    ASSERT_NE(rank0, vt::kNoContainer);
    EXPECT_EQ(run.trace.container(rank0).parent,
              run.mirror.hostContainer[dep[0].index()]);

    // States attach to ranks, not hosts.
    for (const auto &state : run.trace.states()) {
        EXPECT_EQ(run.trace.container(state.container).kind,
                  vt::ContainerKind::Process);
    }

    // Host-level aggregation still sees the host's power (the host is
    // no longer a leaf, but subtree aggregation keeps its variable).
    viva::agg::Aggregator agg(run.trace);
    double host_power = agg.value(run.mirror.hostContainer[dep[0].index()],
                                  run.mirror.power, {0.0, 1.0});
    EXPECT_GT(host_power, 0.0);
}

TEST(ProcessContainers, WorkerProcessesPerApp)
{
    vp::Platform plat = vp::makeTwoClusterPlatform();
    vs::SimulationRun run(plat, {"a", "b"});
    vw::MwParams pa;
    pa.name = "a";
    pa.master = vp::HostId{0};
    pa.workers = {vp::HostId{1}, vp::HostId{2}, vp::HostId{3}};
    pa.totalTasks = 6;
    pa.taskMflop = 100.0;
    pa.recordStates = true;
    pa.createProcessContainers = true;
    vw::MwParams pb = pa;
    pb.name = "b";

    vw::MasterWorkerApp a(run, pa, 1);
    vw::MasterWorkerApp b(run, pb, 2);
    a.start();
    b.start();
    run.engine.run();

    // Two process containers per worker host, one per app.
    auto host1 = run.mirror.hostContainer[1];
    EXPECT_NE(run.trace.findChild(host1, "worker-a"), vt::kNoContainer);
    EXPECT_NE(run.trace.findChild(host1, "worker-b"), vt::kNoContainer);

    // The Gantt over this trace has one row per active worker process.
    viva::viz::GanttChart chart =
        viva::viz::buildGantt(run.trace, run.trace.span());
    for (const auto &row : chart.rows) {
        EXPECT_EQ(run.trace.container(row.id).kind,
                  vt::ContainerKind::Process);
    }
    EXPECT_GE(chart.rows.size(), 2u);
}
