/**
 * @file
 * Cross-cutting property tests on randomized inputs: conservation laws
 * of the simulator, determinism, partition invariants of hierarchy
 * cuts, treemap geometry, routing consistency, and the layout of a
 * long interactive session. These pin down the global invariants that
 * unit tests of single modules cannot.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "trace/builder.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "trace/io.hh"
#include "viz/treemap.hh"

namespace va = viva::agg;
namespace vap = viva::app;
namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vv = viva::viz;

// --- simulator conservation laws ---------------------------------------------

class EngineConservation : public ::testing::TestWithParam<int>
{
  protected:
    /** Random mix of computes and comms on a synthetic grid. */
    struct Workload
    {
        double totalMflop = 0.0;
        double totalMbit = 0.0;
    };

    static Workload
    inject(vs::SimulationRun &run, viva::support::Rng &rng)
    {
        const vp::Platform &plat = run.engine.platform();
        Workload w;
        int n = 20 + int(rng.index(40));
        for (int i = 0; i < n; ++i) {
            double start = rng.uniform(0.0, 2.0);
            if (rng.uniform() < 0.5) {
                double mflop = rng.uniform(100.0, 5000.0);
                auto host = vp::HostId(rng.index(plat.hostCount()));
                w.totalMflop += mflop;
                run.engine.at(start, [&run, host, mflop] {
                    run.engine.startCompute(host, mflop, [] {});
                });
            } else {
                auto src = vp::HostId(rng.index(plat.hostCount()));
                auto dst = vp::HostId(rng.index(plat.hostCount()));
                if (src == dst)
                    continue;
                double mbits = rng.uniform(1.0, 200.0);
                // Each crossed link carries the full payload.
                w.totalMbit +=
                    mbits * double(plat.route(src, dst).links.size());
                run.engine.at(start, [&run, src, dst, mbits] {
                    run.engine.startComm(src, dst, mbits, [] {});
                });
            }
        }
        return w;
    }
};

TEST_P(EngineConservation, TracedWorkEqualsInjectedWork)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
    vs::SimulationRun run(plat);
    Workload injected = inject(run, rng);
    run.engine.run();
    ASSERT_TRUE(run.engine.idle());

    // Integrate the traced utilization over the whole run: it must
    // equal the injected work exactly (the fluid model conserves it).
    va::TimeSlice span = run.trace.span();
    va::Aggregator agg(run.trace);
    double traced_mflop =
        agg.value(run.trace.root(), run.mirror.powerUsed, span,
                  va::SpatialOp::Sum, va::TemporalOp::Integral);
    double traced_mbit =
        agg.value(run.trace.root(), run.mirror.bandwidthUsed, span,
                  va::SpatialOp::Sum, va::TemporalOp::Integral);

    EXPECT_NEAR(traced_mflop, injected.totalMflop,
                1e-6 * std::max(1.0, injected.totalMflop));
    EXPECT_NEAR(traced_mbit, injected.totalMbit,
                1e-6 * std::max(1.0, injected.totalMbit));
}

TEST_P(EngineConservation, DeterministicReplay)
{
    auto run_once = [&](int seed) {
        viva::support::Rng rng(seed);
        vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
        vs::SimulationRun run(plat);
        inject(run, rng);
        run.engine.run();
        std::ostringstream out;
        vt::writeTrace(run.trace, out);
        return out.str();
    };
    EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

TEST_P(EngineConservation, RunInPiecesMatchesRunWhole)
{
    auto run_with_steps = [&](int seed, bool stepped) {
        viva::support::Rng rng(seed);
        vp::Platform plat = vp::makeSyntheticGrid(2, 2, 3, rng);
        vs::SimulationRun run(plat);
        inject(run, rng);
        if (stepped) {
            for (double t = 0.5; !run.engine.idle() && t < 1000.0;
                 t += 0.7)
                run.engine.run(t);
        }
        run.engine.run();
        va::Aggregator agg(run.trace);
        return agg.value(run.trace.root(), run.mirror.powerUsed,
                         run.trace.span(), va::SpatialOp::Sum,
                         va::TemporalOp::Integral);
    };
    double whole = run_with_steps(GetParam(), false);
    double pieces = run_with_steps(GetParam(), true);
    EXPECT_NEAR(whole, pieces, 1e-6 * std::max(1.0, whole));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConservation,
                         ::testing::Range(1, 13));

// --- hierarchy cut partition invariant -------------------------------------------

class CutPartition : public ::testing::TestWithParam<int>
{
};

TEST_P(CutPartition, VisibleNodesPartitionTheLeaves)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(
        1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(5), rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);

    va::HierarchyCut cut(trace);
    // Random sequence of aggregate / disaggregate operations.
    for (int op = 0; op < 30; ++op) {
        auto id = vt::ContainerId(rng.index(trace.containerCount()));
        if (rng.uniform() < 0.6)
            cut.aggregate(id);
        else
            cut.disaggregate(id);
    }

    // Every leaf must be covered by exactly one visible node.
    auto visible = cut.visibleNodes();
    std::vector<int> covered(trace.containerCount(), 0);
    for (auto v : visible) {
        EXPECT_TRUE(cut.isVisible(v));
        for (auto leaf : trace.leavesUnder(v))
            ++covered[leaf.index()];
    }
    for (auto leaf : trace.leavesUnder(trace.root()))
        EXPECT_EQ(covered[leaf.index()], 1) << "leaf " << leaf;

    // representative() agrees with the covering node.
    for (auto v : visible)
        for (auto leaf : trace.leavesUnder(v))
            EXPECT_EQ(cut.representative(leaf), v);
}

TEST_P(CutPartition, ConservationUnderRandomCuts)
{
    viva::support::Rng rng(100 + GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(2, 2, 4, rng);
    vt::Trace trace;
    auto mirror = vp::mirrorPlatform(plat, trace);

    va::HierarchyCut cut(trace);
    for (int op = 0; op < 20; ++op)
        cut.aggregate(vt::ContainerId(rng.index(trace.containerCount())));

    va::Aggregator agg(trace);
    double total = 0.0;
    for (auto v : cut.visibleNodes())
        total += agg.value(v, mirror.power, {0.0, 1.0});
    double expected = 0.0;
    for (vp::HostId h{0}; h.index() < plat.hostCount(); ++h)
        expected += plat.host(h).powerMflops;
    EXPECT_NEAR(total, expected, 1e-9 * expected);
}

TEST_P(CutPartition, FocusShowsTargetAndAggregatesRest)
{
    viva::support::Rng rng(200 + GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(3, 2, 3, rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);

    auto target = trace.findByName("site1-c0");
    ASSERT_NE(target, vt::kNoContainer);
    va::HierarchyCut cut(trace);
    cut.focus({target});

    // Every leaf under the target is visible itself.
    for (auto leaf : trace.leavesUnder(target))
        EXPECT_TRUE(cut.isVisible(leaf));
    // Other sites are single aggregated nodes.
    auto site2 = trace.findByName("site2");
    ASSERT_NE(site2, vt::kNoContainer);
    EXPECT_TRUE(cut.isCollapsed(site2));
    EXPECT_EQ(cut.representative(trace.leavesUnder(site2)[0]), site2);
    // The sibling cluster of the target is aggregated, not expanded.
    auto sibling = trace.findByName("site1-c1");
    EXPECT_TRUE(cut.isCollapsed(sibling));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutPartition, ::testing::Range(1, 9));

// --- treemap geometry -----------------------------------------------------------

class TreemapGeometry : public ::testing::TestWithParam<int>
{
};

TEST_P(TreemapGeometry, CellsStayInCanvasAndNest)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeSyntheticGrid(
        1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(6), rng);
    vt::Trace trace;
    vp::mirrorPlatform(plat, trace);

    vv::TreemapOptions options;
    options.width = 640;
    options.height = 480;
    options.padding = rng.uniform(0.0, 3.0);
    vv::Treemap map = vv::buildTreemap(
        trace, trace.findMetric("power"), {0.0, 1.0}, options);
    ASSERT_FALSE(map.cells.empty());

    double leaf_area = 0.0;
    for (const auto &cell : map.cells) {
        EXPECT_GE(cell.x, -1e-9);
        EXPECT_GE(cell.y, -1e-9);
        EXPECT_LE(cell.x + cell.width, options.width + 1e-9);
        EXPECT_LE(cell.y + cell.height, options.height + 1e-9);
        EXPECT_GE(cell.width, 0.0);
        EXPECT_GE(cell.height, 0.0);
        if (cell.leaf)
            leaf_area += cell.area();
    }
    // With zero padding the leaves tile the canvas exactly; padding
    // only removes area.
    EXPECT_LE(leaf_area, 640.0 * 480.0 + 1e-6);
    if (options.padding < 1e-9) {
        EXPECT_NEAR(leaf_area, 640.0 * 480.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreemapGeometry, ::testing::Range(1, 9));

// --- routing consistency -----------------------------------------------------------

class RoutingConsistency : public ::testing::TestWithParam<int>
{
};

TEST_P(RoutingConsistency, RoutesAreConnectedPaths)
{
    viva::support::Rng rng(GetParam());
    vp::Platform plat = vp::makeGrid5000();

    for (int trial = 0; trial < 20; ++trial) {
        auto a = vp::HostId(rng.index(plat.hostCount()));
        auto b = vp::HostId(rng.index(plat.hostCount()));
        const vp::Route &route = plat.route(a, b);
        if (a == b) {
            EXPECT_TRUE(route.links.empty());
            continue;
        }
        ASSERT_FALSE(route.links.empty());

        // Forward and reverse routes have equal hop count (BFS).
        EXPECT_EQ(route.links.size(), plat.route(b, a).links.size());

        // The latency is the sum of the links' latencies.
        double latency = 0.0;
        for (auto l : route.links)
            latency += plat.link(l).latencyS;
        EXPECT_NEAR(route.latencyS, latency, 1e-12);

        // Consecutive links share a vertex (the path is connected):
        // verified through the adjacency lists.
        for (std::size_t i = 0; i + 1 < route.links.size(); ++i) {
            bool share = false;
            for (vp::VertexId v{0}; v.index() < plat.vertexCount() && !share;
                 ++v) {
                bool has_i = false, has_next = false;
                for (const auto &[other, l] : plat.edges(v)) {
                    has_i |= l == route.links[i];
                    has_next |= l == route.links[i + 1];
                }
                share = has_i && has_next;
            }
            EXPECT_TRUE(share) << "links " << i << " and " << i + 1
                               << " are disconnected";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingConsistency,
                         ::testing::Range(1, 4));

// --- long sessions behave like fresh ones ------------------------------------------

class GestureSequence : public ::testing::TestWithParam<int>
{
};

TEST_P(GestureSequence, LayoutMatchesARestoredSessionAfterEveryGesture)
{
    viva::support::Rng rng(GetParam());
    vt::Trace t;
    vp::TraceMirror mirror = vp::mirrorPlatform(vp::makeGrid5000(), t);
    std::vector<std::string> groups;
    for (vt::ContainerId id : mirror.groupContainer)
        groups.push_back(t.fullName(id));
    vap::Session s(std::move(t));
    s.setThreads(1);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("viva_gesture_sequence_" + std::to_string(GetParam()) +
          ".ckpt"))
            .string();
    vap::Session restored(vt::makeFigure1Trace());
    for (int gesture = 0; gesture < 12; ++gesture) {
        const std::string &group = groups[rng.index(groups.size())];
        switch (rng.index(6)) {
        case 0:
            ASSERT_TRUE(s.aggregate(group));
            break;
        case 1:
            ASSERT_TRUE(s.disaggregate(group));
            break;
        case 2:
            ASSERT_TRUE(s.focus(group));
            break;
        case 3:
            s.resetAggregation();
            break;
        case 4:
            s.aggregateToDepth(std::uint16_t(rng.index(4)));
            break;
        default:
            ASSERT_TRUE(s.stepLayout(1 + rng.index(3)).ok());
            break;
        }
        // The graph holds exactly the visible nodes: no dead slots.
        const viva::layout::LayoutGraph &g = s.layoutGraph();
        ASSERT_EQ(g.rawNodes().size(), g.nodeCount());
        ASSERT_EQ(g.nodeCount(), s.cut().visibleCount());

        // A restore rebuilds the graph from scratch at the same cut;
        // the long session must cost exactly what that one does.
        ASSERT_TRUE(s.checkpoint(path).ok());
        ASSERT_TRUE(restored.restore(path).ok());
        ASSERT_EQ(s.workingSetBytes(), restored.workingSetBytes())
            << "after gesture " << gesture;
        ASSERT_EQ(s.stateDigest(), restored.stateDigest());
    }

    // Same slot order, same edges: both evolve bitwise identically.
    ASSERT_TRUE(s.stepLayout(20).ok());
    ASSERT_TRUE(restored.stepLayout(20).ok());
    EXPECT_EQ(s.stateDigest(), restored.stateDigest());
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GestureSequence, ::testing::Range(1, 5));
