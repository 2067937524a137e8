/**
 * @file
 * Last-mile coverage of specific implementation paths: the fair-share
 * solver's buffer reuse across epochs (the stamped dense mapping), the
 * quadtree's depth cap, the pie renderer's full-circle branch, and
 * serialization of awkward variable histories.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "layout/quadtree.hh"
#include "sim/fairshare.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "viz/scene.hh"
#include "viz/svg.hh"

namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vv = viva::viz;

// --- FairShareSolver reuse ---------------------------------------------------

TEST(FairShareSolverReuse, EpochsIsolateConsecutiveSolves)
{
    vs::FairShareSolver solver;
    std::vector<double> rates;

    // First solve uses resources {0, 1}.
    std::vector<std::uint32_t> f0{0};
    std::vector<std::uint32_t> f1{0, 1};
    solver.solve({10.0, 100.0}, {&f0, &f1}, rates);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);

    // Second solve uses a disjoint resource {2} -- stale dense-map
    // entries for 0/1 must not leak in.
    std::vector<std::uint32_t> f2{2};
    solver.solve({10.0, 100.0, 42.0}, {&f2}, rates);
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_DOUBLE_EQ(rates[0], 42.0);

    // Third solve reuses resource 0 with a different capacity vector.
    solver.solve({8.0, 100.0, 42.0}, {&f0}, rates);
    EXPECT_DOUBLE_EQ(rates[0], 8.0);
}

TEST(FairShareSolverReuse, ManyEpochsStayConsistent)
{
    vs::FairShareSolver solver;
    std::vector<double> rates;
    std::vector<double> capacity{6.0, 12.0, 24.0};
    std::vector<std::uint32_t> flows_a{0, 1};
    std::vector<std::uint32_t> flows_b{1, 2};
    for (int epoch = 0; epoch < 1000; ++epoch) {
        solver.solve(capacity, {&flows_a, &flows_b}, rates);
        EXPECT_DOUBLE_EQ(rates[0], 6.0);
        EXPECT_DOUBLE_EQ(rates[1], 6.0);
    }
}

TEST(FairShareSolverReuse, GrowingResourceSpace)
{
    // The stamped dense map must resize when later solves reference
    // larger resource indices.
    vs::FairShareSolver solver;
    std::vector<double> rates;
    std::vector<std::uint32_t> small{0};
    solver.solve({5.0}, {&small}, rates);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);

    std::vector<double> big_caps(100, 1.0);
    big_caps[99] = 7.0;
    std::vector<std::uint32_t> big{99};
    solver.solve(big_caps, {&big}, rates);
    EXPECT_DOUBLE_EQ(rates[0], 7.0);
}

// --- QuadTree depth cap -------------------------------------------------------

TEST(QuadTreeDepth, NearCoincidentPointsMergeAtCap)
{
    // Points separated by less than the coincidence epsilon would
    // recurse forever without the Morton-cell merge.
    std::vector<viva::layout::QuadTree::Body> bodies;
    for (int i = 0; i < 20; ++i)
        bodies.push_back({{0.5 + i * 1e-13, 0.5}, 1.0});
    viva::layout::QuadTree tree;
    tree.build({0, 0}, {1, 1}, bodies);
    EXPECT_EQ(tree.pointCount(), 20u);
    // Field at distance 0.25: all 20 charges act from ~one point.
    viva::layout::Vec2 f = tree.forceAt({0.75, 0.5}, 0.0);
    EXPECT_NEAR(f.x, 20.0 * 0.25 / (0.25 * 0.25 * 0.25), 1e-3);
}

TEST(QuadTreeDepth, CellCountBoundedByMerging)
{
    viva::layout::QuadTree tree;
    tree.build({0, 0}, {1, 1},
               std::vector<viva::layout::QuadTree::Body>(
                   100, {{0.123456, 0.654321}, 1.0}));
    // Coincident bodies merge into the same leaf: no splitting storm.
    EXPECT_LT(tree.cellCount(), 16u);
}

// --- pie rendering edge ---------------------------------------------------------

TEST(PieRendering, FullCircleSegmentUsesCircleElement)
{
    vv::Scene scene;
    scene.width = scene.height = 100;
    vv::SceneNode node;
    node.x = node.y = 50;
    node.sizePx = 40;
    node.aggregated = true;
    node.segments.push_back({1.0, vv::palette::accent, "all"});
    scene.nodes.push_back(node);

    std::ostringstream out;
    vv::writeSvg(scene, out);
    // A 100% wedge degenerates to a circle, not an arc path.
    EXPECT_EQ(out.str().find("<path d=\"M"), std::string::npos);
    EXPECT_NE(out.str().find(vv::palette::accent.hex()),
              std::string::npos);
}

TEST(PieRendering, TinySegmentsSkipped)
{
    vv::Scene scene;
    scene.width = scene.height = 100;
    vv::SceneNode node;
    node.x = node.y = 50;
    node.sizePx = 40;
    node.segments.push_back({0.0, vv::palette::accent, "zero"});
    node.segments.push_back({-0.5, vv::palette::accent, "negative"});
    scene.nodes.push_back(node);

    std::ostringstream out;
    vv::writeSvg(scene, out);
    EXPECT_EQ(out.str().find("<path d=\"M"), std::string::npos);
}

// --- awkward variable histories through io ---------------------------------------

TEST(IoEdge, NegativeAndTinyValuesRoundTrip)
{
    vt::TraceBuilder b;
    auto gauge = b.trace().addMetric("delta", "",
                                     vt::MetricNature::Gauge);
    auto h = b.host("h");
    vt::Trace &t = b.trace();
    t.variable(h, gauge).set(0.0, -42.5);
    t.variable(h, gauge).set(1e-9, 3.14159265358979312e-20);
    t.variable(h, gauge).set(2.0, 1e300);
    vt::Trace trace = b.take();

    std::ostringstream out;
    vt::writeTrace(trace, out);
    std::istringstream in(out.str());
        auto back = vt::readTrace(in);
    ASSERT_TRUE(back.has_value()) << back.error().toString();
    const vt::Variable *v =
        back->findVariable(back->findByName("h"), gauge);
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(v->valueAt(0.5e-9), -42.5);
    EXPECT_DOUBLE_EQ(v->valueAt(1.0), 3.14159265358979312e-20);
    EXPECT_DOUBLE_EQ(v->valueAt(3.0), 1e300);
}

TEST(IoEdge, OutOfOrderHistorySerializesSorted)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto h = b.host("h");
    vt::Trace &t = b.trace();
    t.variable(h, power).set(5.0, 2.0);
    t.variable(h, power).set(1.0, 1.0);  // out-of-order insert
    vt::Trace trace = b.take();

    std::ostringstream out;
    vt::writeTrace(trace, out);
    std::istringstream in(out.str());
        auto back = vt::readTrace(in);
    ASSERT_TRUE(back.has_value()) << back.error().toString();
    EXPECT_DOUBLE_EQ(
        back->findVariable(back->findByName("h"), power)->valueAt(2.0),
        1.0);
}
