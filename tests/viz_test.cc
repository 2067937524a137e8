/**
 * @file
 * Tests for the visualization pipeline: mapping rules, the Fig. 4
 * scaling semantics, scene composition, and the SVG/ASCII renderers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "agg/aggregate.hh"
#include "trace/builder.hh"
#include "viz/ascii.hh"
#include "viz/mapping.hh"
#include "viz/scaling.hh"
#include "viz/scene.hh"
#include "viz/svg.hh"

namespace va = viva::agg;
namespace vt = viva::trace;
namespace vv = viva::viz;

namespace
{

struct Fig4Fixture
{
    vt::Trace trace;
    vt::ContainerId host_a, host_b, link_a;
    vt::MetricId power, power_used, bw, bw_used;

    Fig4Fixture()
    {
        trace = vt::makeFigure1Trace();
        host_a = trace.findByPath("HostA");
        host_b = trace.findByPath("HostB");
        link_a = trace.findByPath("LinkA");
        power = trace.findMetric("power");
        power_used = trace.findMetric("power_used");
        bw = trace.findMetric("bandwidth");
        bw_used = trace.findMetric("bandwidth_used");
    }

    va::View
    view(const va::TimeSlice &slice) const
    {
        va::HierarchyCut cut(trace);
        return va::buildView(trace, cut, slice,
                             {power, power_used, bw, bw_used});
    }

    viva::layout::Snapshot
    positions() const
    {
        return {{host_a.value(), {0.0, 0.0}},
                {host_b.value(), {100.0, 0.0}},
                {link_a.value(), {50.0, 30.0}}};
    }
};

} // namespace

// --- mapping ----------------------------------------------------------------

TEST(Mapping, DefaultsFollowThePaper)
{
    Fig4Fixture f;
    vv::VisualMapping m = vv::VisualMapping::defaults(f.trace);

    auto host = m.rule(vt::ContainerKind::Host);
    ASSERT_TRUE(host.has_value());
    EXPECT_EQ(host->shape, vv::ShapeKind::Square);
    EXPECT_EQ(host->sizeMetric, f.power);
    EXPECT_EQ(host->fillMetric, f.power_used);

    auto link = m.rule(vt::ContainerKind::Link);
    ASSERT_TRUE(link.has_value());
    EXPECT_EQ(link->shape, vv::ShapeKind::Diamond);
    EXPECT_EQ(link->sizeMetric, f.bw);

    EXPECT_FALSE(m.rule(vt::ContainerKind::Process).has_value());
}

TEST(Mapping, RulesCanBeChangedDynamically)
{
    Fig4Fixture f;
    vv::VisualMapping m = vv::VisualMapping::defaults(f.trace);
    vv::MappingRule r;
    r.shape = vv::ShapeKind::Circle;
    r.sizeMetric = f.bw_used;
    m.setRule(vt::ContainerKind::Host, r);
    EXPECT_EQ(m.rule(vt::ContainerKind::Host)->shape,
              vv::ShapeKind::Circle);
}

TEST(Mapping, ReferencedMetricsDeduplicated)
{
    Fig4Fixture f;
    vv::VisualMapping m = vv::VisualMapping::defaults(f.trace);
    auto metrics = m.referencedMetrics();
    EXPECT_EQ(metrics.size(), 4u);  // power, power_used, bw, bw_used
}

TEST(Mapping, ColorHex)
{
    vv::Color c{70, 130, 180};
    EXPECT_EQ(c.hex(), "#4682b4");
}

// --- scaling (Fig. 4 semantics) --------------------------------------------------

TEST(Scaling, LargestObjectOfEachTypeGetsMaxPixel)
{
    Fig4Fixture f;
    // Scheme A: t in [0, 4): HostA 100, HostB 25, LinkA 10000.
    va::View view = f.view({0.0, 4.0});
    vv::TypeScaling scaling(60.0);
    scaling.autoScale(view);

    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.power, 100.0), 60.0);
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.power, 25.0), 15.0);
    // The link's own scale: 10000 also maps to 60 px.
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.bw, 10000.0), 60.0);
}

TEST(Scaling, SchemeBRescalesAfterSliceChange)
{
    Fig4Fixture f;
    // Scheme B: t in [4, 8): HostA 10, HostB 40 -- the max moved.
    va::View view = f.view({4.0, 8.0});
    vv::TypeScaling scaling(60.0);
    scaling.autoScale(view);
    // HostB's 40 MFlops now maps to the maximum size (the paper's
    // "bigger size of a type of object within a time-slice").
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.power, 40.0), 60.0);
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.power, 10.0), 15.0);
}

TEST(Scaling, SlidersScaleIndependently)
{
    Fig4Fixture f;
    va::View view = f.view({4.0, 8.0});
    vv::TypeScaling scaling(60.0);
    scaling.autoScale(view);
    // Scheme C: hosts bigger, links smaller.
    scaling.setSlider(f.power, 2.0);
    scaling.setSlider(f.bw, 0.5);
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.power, 40.0), 120.0);
    EXPECT_DOUBLE_EQ(scaling.pixelSize(f.bw, 10000.0), 30.0);
    EXPECT_DOUBLE_EQ(scaling.slider(f.power_used), 1.0);  // untouched
}

TEST(Scaling, SliderClamped)
{
    vv::TypeScaling scaling;
    scaling.setSlider(vt::MetricId{0}, 100.0);
    EXPECT_DOUBLE_EQ(scaling.slider(vt::MetricId{0}), 20.0);
    scaling.setSlider(vt::MetricId{0}, 0.0);
    EXPECT_DOUBLE_EQ(scaling.slider(vt::MetricId{0}), 0.05);
}

TEST(Scaling, UnknownMetricGivesZero)
{
    vv::TypeScaling scaling;
    EXPECT_DOUBLE_EQ(scaling.pixelSize(vt::MetricId{3}, 10.0), 0.0);
}

// --- scene ------------------------------------------------------------------------

TEST(Scene, ComposesNodesWithMappedGlyphs)
{
    Fig4Fixture f;
    va::View view = f.view({0.0, 4.0});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::TypeScaling scaling(60.0);

    vv::Scene scene = vv::composeScene(view, f.trace, f.positions(),
                                       mapping, scaling);
    ASSERT_EQ(scene.nodes.size(), 3u);
    ASSERT_EQ(scene.edges.size(), 2u);

    const vv::SceneNode *ha = nullptr, *la = nullptr;
    for (const auto &n : scene.nodes) {
        if (n.id == f.host_a)
            ha = &n;
        if (n.id == f.link_a)
            la = &n;
    }
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(la, nullptr);
    EXPECT_EQ(ha->shape, vv::ShapeKind::Square);
    EXPECT_DOUBLE_EQ(ha->sizePx, 60.0);
    // Fill = power_used / power = 50 / 100 over [0, 4).
    EXPECT_DOUBLE_EQ(ha->fill, 0.5);
    EXPECT_EQ(la->shape, vv::ShapeKind::Diamond);
    EXPECT_DOUBLE_EQ(la->fill, 0.2);  // 2000 / 10000
}

TEST(Scene, CanvasTransformKeepsNodesInside)
{
    Fig4Fixture f;
    va::View view = f.view({0.0, 4.0});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::TypeScaling scaling;
    vv::SceneOptions options;
    options.width = 400;
    options.height = 300;
    options.margin = 40;

    vv::Scene scene = vv::composeScene(view, f.trace, f.positions(),
                                       mapping, scaling, options);
    for (const auto &n : scene.nodes) {
        EXPECT_GE(n.x, 40.0);
        EXPECT_LE(n.x, 360.0);
        EXPECT_GE(n.y, 40.0);
        EXPECT_LE(n.y, 260.0);
    }
}

TEST(Scene, AggregatedNodeGetsCompositeGlyph)
{
    Fig4Fixture f;
    va::HierarchyCut cut(f.trace);
    // Group everything under the root... the root has only leaves, so
    // build a grouped fixture instead.
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto bw = b.bandwidthMetric();
    b.beginGroup("g", vt::ContainerKind::Cluster);
    auto h = b.host("h");
    auto l = b.link("l");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.variable(h, power).set(0.0, 10.0);
    t.variable(l, bw).set(0.0, 100.0);
    vt::Trace trace = b.take();
    auto g = trace.findByPath("g");

    va::HierarchyCut cut2(trace);
    cut2.aggregate(g);
    va::View view = va::buildView(trace, cut2, {0.0, 1.0}, {power, bw});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(trace);
    vv::TypeScaling scaling;
    viva::layout::Snapshot pos{{g.value(), {0.0, 0.0}}};

    vv::Scene scene =
        vv::composeScene(view, trace, pos, mapping, scaling);
    ASSERT_EQ(scene.nodes.size(), 1u);
    EXPECT_TRUE(scene.nodes[0].aggregated);
    EXPECT_EQ(scene.nodes[0].shape, vv::ShapeKind::Square);
    EXPECT_TRUE(scene.nodes[0].hasSecondary);  // the Fig. 3 diamond
    EXPECT_EQ(scene.nodes[0].secondaryShape, vv::ShapeKind::Diamond);
    EXPECT_GT(scene.nodes[0].secondarySizePx, 0.0);
}

TEST(Scene, MissingPositionSkipsNodeWithWarning)
{
    Fig4Fixture f;
    va::View view = f.view({0.0, 4.0});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::TypeScaling scaling;
    viva::layout::Snapshot partial{{f.host_a.value(), {0.0, 0.0}}};

    viva::support::setQuiet(true);
    std::size_t warns = viva::support::warnCount();
    vv::Scene scene = vv::composeScene(view, f.trace, partial, mapping,
                                       scaling);
    viva::support::setQuiet(false);
    EXPECT_EQ(scene.nodes.size(), 1u);
    EXPECT_GT(viva::support::warnCount(), warns);
    EXPECT_TRUE(scene.edges.empty());  // both edges touched missing nodes
}

// --- svg --------------------------------------------------------------------------

TEST(Svg, ContainsExpectedElements)
{
    Fig4Fixture f;
    va::View view = f.view({0.0, 4.0});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::TypeScaling scaling;
    vv::Scene scene = vv::composeScene(view, f.trace, f.positions(),
                                       mapping, scaling);

    std::ostringstream out;
    vv::SvgOptions options;
    options.title = "figure one";
    options.labelsAggregatedOnly = false;
    vv::writeSvg(scene, out, options);
    std::string svg = out.str();

    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("<rect"), std::string::npos);      // squares
    EXPECT_NE(svg.find("<polygon"), std::string::npos);   // diamond
    EXPECT_NE(svg.find("<line"), std::string::npos);      // edges
    EXPECT_NE(svg.find("figure one"), std::string::npos); // title
    EXPECT_NE(svg.find("HostA"), std::string::npos);      // label
    EXPECT_NE(svg.find("time slice [0, 4)"), std::string::npos);
}

TEST(Svg, EscapesXmlSpecials)
{
    vv::Scene scene;
    scene.width = 100;
    scene.height = 100;
    vv::SceneNode n;
    n.label = "a<b&c>";
    n.aggregated = true;
    n.x = n.y = 50;
    n.sizePx = 10;
    scene.nodes.push_back(n);

    std::ostringstream out;
    vv::writeSvg(scene, out);
    std::string svg = out.str();
    EXPECT_NE(svg.find("a&lt;b&amp;c&gt;"), std::string::npos);
    EXPECT_EQ(svg.find("a<b"), std::string::npos);
}

namespace
{

/**
 * A hand-built scene that reaches every SVG primitive: square, diamond
 * and circle glyphs (outline plus proportional fill), the secondary
 * glyph of a composite aggregate, a full and a partial pie, the
 * heterogeneity ring, an XML-escaped label and edges. Coordinates are
 * non-dyadic so the golden pins the number formatting too.
 */
vv::Scene
goldenScene()
{
    vv::Scene scene;
    scene.width = 320.0;
    scene.height = 200.5;
    scene.slice = va::TimeSlice(0.1, 2.0 / 3.0);

    vv::SceneNode square;
    square.label = "site <a&b>";
    square.aggregated = true;
    square.leafCount = 4;
    square.x = 60.1;
    square.y = 70.3;
    square.shape = vv::ShapeKind::Square;
    square.sizePx = 40.0 / 3.0;
    square.fill = 0.3;
    square.color = vv::palette::aggregate;
    square.hasSecondary = true;
    square.secondaryShape = vv::ShapeKind::Diamond;
    square.secondarySizePx = 7.25;
    square.secondaryFill = 1.5;  // clamped to a full inner glyph
    square.secondaryColor = vv::palette::link;
    square.segments = {{0.25, vv::palette::categorical(0), "app0"},
                       {0.5, vv::palette::categorical(1), "app1"}};
    square.heterogeneity = 0.75;
    scene.nodes.push_back(square);

    vv::SceneNode diamond;
    diamond.label = "link";
    diamond.x = 150.0;
    diamond.y = 1e-7;
    diamond.shape = vv::ShapeKind::Diamond;
    diamond.sizePx = 9.0;
    diamond.fill = 0.0;  // outline only
    diamond.color = vv::palette::link;
    scene.nodes.push_back(diamond);

    vv::SceneNode circle;
    circle.label = "host";
    circle.aggregated = true;
    circle.x = 250.0 / 7.0;
    circle.y = 150.0;
    circle.shape = vv::ShapeKind::Circle;
    circle.sizePx = 12.5;
    circle.fill = 0.1;
    circle.color = vv::palette::host;
    circle.segments = {{1.0, vv::palette::categorical(2), "all"}};
    circle.heterogeneity = 0.2;  // below the ring threshold
    scene.nodes.push_back(circle);

    vv::SceneNode empty;  // zero size draws nothing but its label
    empty.label = "gone";
    empty.aggregated = true;
    empty.x = 300.0;
    empty.y = 10.0;
    scene.nodes.push_back(empty);

    scene.edges = {{0, 1, 1, 1.0 / 3.0}, {1, 2, 2, 2.0}};
    return scene;
}

} // namespace

TEST(Svg, MatchesTheCheckedInGolden)
{
    vv::SvgOptions options;
    options.title = "golden \"scene\" & <title>";
    std::ostringstream out;
    vv::writeSvg(goldenScene(), out, options);
    const std::string actual = out.str();

    const std::string fixture_path = VIVA_SVG_GOLDEN;
    if (std::getenv("VIVA_UPDATE_GOLDEN") != nullptr) {
        std::ofstream file(fixture_path, std::ios::binary);
        ASSERT_TRUE(file) << "cannot write " << fixture_path;
        file << actual;
        GTEST_SKIP() << "fixture regenerated: " << fixture_path;
    }

    std::ifstream in(fixture_path, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << fixture_path
                    << " -- regenerate with VIVA_UPDATE_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "SVG output drifted from the golden fixture; if the change "
           "is intentional, regenerate with VIVA_UPDATE_GOLDEN=1 "
           "./viz_test --gtest_filter=Svg.MatchesTheCheckedInGolden";
}

TEST(Svg, LargeScenesStreamInChunksWithoutLoss)
{
    // Thousands of nodes cross the writer's chunk size many times; the
    // streamed document must equal the per-node pieces concatenated.
    vv::Scene scene;
    scene.width = 1000.0;
    scene.height = 1000.0;
    vv::Scene single = scene;
    std::string pieces;
    for (int i = 0; i < 3000; ++i) {
        vv::SceneNode n;
        n.x = 0.1 * i;
        n.y = 1000.0 / (i + 1);
        n.sizePx = 3.0 + i % 7;
        n.fill = (i % 10) / 10.0;
        n.shape = vv::ShapeKind(i % 3);
        scene.nodes.push_back(n);
    }
    std::ostringstream whole;
    vv::SvgOptions options;
    options.drawLabels = false;
    vv::writeSvg(scene, whole, options);

    std::ostringstream head;
    vv::writeSvg(single, head, options);
    std::string expected = head.str();
    const std::string tail = "</svg>\n";
    expected.resize(expected.size() - tail.size());
    for (const vv::SceneNode &n : scene.nodes) {
        single.nodes = {n};
        std::ostringstream one;
        vv::writeSvg(single, one, options);
        std::string body = one.str();
        std::size_t from = head.str().size() - tail.size();
        expected += body.substr(from, body.size() - from - tail.size());
    }
    expected += tail;
    EXPECT_GT(whole.str().size(), std::size_t(256 * 1024));
    EXPECT_EQ(whole.str(), expected);
}

// --- ascii -------------------------------------------------------------------------

TEST(Ascii, RendersGlyphsAndFrame)
{
    Fig4Fixture f;
    va::View view = f.view({0.0, 4.0});
    vv::VisualMapping mapping = vv::VisualMapping::defaults(f.trace);
    vv::TypeScaling scaling;
    vv::Scene scene = vv::composeScene(view, f.trace, f.positions(),
                                       mapping, scaling);

    std::string text = vv::renderAscii(scene, {40, 12, true});
    // Frame lines.
    EXPECT_NE(text.find("+----"), std::string::npos);
    // Hosts at 50% fill draw as '#'; the 20%-filled diamond as 'x'.
    EXPECT_NE(text.find('#'), std::string::npos);
    EXPECT_NE(text.find('x'), std::string::npos);
    // Edge sampling dots appear.
    EXPECT_NE(text.find('`'), std::string::npos);
}

TEST(Ascii, EmptySceneStillFramed)
{
    vv::Scene scene;
    scene.width = 10;
    scene.height = 10;
    std::string text = vv::renderAscii(scene, {20, 6, true});
    EXPECT_NE(text.find('+'), std::string::npos);
}
