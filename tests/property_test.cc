/**
 * @file
 * Cross-cutting property tests on randomized inputs: conservation laws
 * of the simulator, determinism, partition invariants of hierarchy
 * cuts, treemap geometry, routing consistency, and the layout of a
 * long interactive session. These pin down the global invariants that
 * unit tests of single modules cannot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <sstream>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "trace/builder.hh"
#include "sim/tracer.hh"
#include "support/obs.hh"
#include "support/random.hh"
#include "trace/io.hh"
#include "layout/metrics.hh"
#include "support/clock.hh"
#include "viz/scene.hh"
#include "viz/treemap.hh"

#include "contraction_oracle.hh"

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
    run.trace.freeze();

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
        run.trace.freeze();
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
    trace.freeze();

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

// --- the cut projection equals its per-container oracles -----------------------

namespace
{

/** One random cut gesture on one of `groups`. */
void
randomCutGesture(va::HierarchyCut &cut,
                 const std::vector<vt::ContainerId> &groups,
                 viva::support::Rng &rng)
{
    vt::ContainerId group = groups[rng.index(groups.size())];
    switch (rng.index(5)) {
    case 0:
        cut.aggregate(group);
        break;
    case 1:
        cut.disaggregate(group);
        break;
    case 2:
        cut.focus({group});
        break;
    case 3:
        cut.aggregateToDepth(std::uint16_t(rng.index(5)));
        break;
    default:
        cut.reset();
        break;
    }
}

} // namespace

class CutProjectionOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(CutProjectionOracle, ProjectEqualsTheOracleUnderRandomCuts)
{
    viva::support::Rng rng(300 + GetParam());
    for (bool grid5000 : {true, false}) {
        vt::Trace t;
        vp::TraceMirror mirror = vp::mirrorPlatform(
            grid5000 ? vp::makeGrid5000()
                     : vp::makeSyntheticGrid(3, 3, 13, rng),
            t);
        t.freeze();
        std::vector<vt::ContainerId> groups = mirror.groupContainer;
        va::HierarchyCut cut(t);
        va::CutProjection prev;
        for (int op = 0; op < 25; ++op) {
            randomCutGesture(cut, groups, rng);
            va::CutProjection p = va::project(t, cut);
            va::CutProjection expect = va::testing::projectHashed(t, cut);
            ASSERT_EQ(p.nodes, expect.nodes) << "op " << op;
            ASSERT_EQ(p.leafCounts, expect.leafCounts) << "op " << op;
            ASSERT_EQ(p.edges.size(), expect.edges.size()) << "op " << op;
            for (std::size_t i = 0; i < p.edges.size(); ++i)
                ASSERT_EQ(p.edges[i], expect.edges[i])
                    << "op " << op << " edge " << i;
            ASSERT_EQ(va::visibleEdges(t, cut), expect.edges);

            // The cut delta names each node's index in the previous
            // projection, or marks it entering.
            std::vector<std::uint32_t> from = va::cutDelta(prev, p);
            ASSERT_EQ(from.size(), p.nodes.size());
            for (std::size_t j = 0; j < p.nodes.size(); ++j) {
                auto at = std::find(prev.nodes.begin(), prev.nodes.end(),
                                    p.nodes[j]);
                ASSERT_EQ(from[j],
                          at == prev.nodes.end()
                              ? va::kEntering
                              : std::uint32_t(at - prev.nodes.begin()))
                    << "op " << op << " node " << j;
            }
            prev = std::move(p);
        }
    }
}

/**
 * The slot-chained contraction equals the hashed one, compared whole
 * (nodes, leaf counts, edges in first-occurrence order with their
 * multiplicities, slot map) after every gesture of a random sequence,
 * on a synthetic grid with extra host-to-host relations (so collapsed
 * clusters merge parallel edges, given in both orientations) and on
 * the Figure 1 trace.
 */
TEST_P(CutProjectionOracle, ProjectEqualsTheHashedContraction)
{
    viva::support::Rng rng(400 + GetParam());
    bool merged = false;
    for (bool figure1 : {false, true}) {
        vt::Trace t;
        if (figure1) {
            t = vt::makeFigure1Trace();
        } else {
            vp::TraceMirror mirror =
                vp::mirrorPlatform(vp::makeSyntheticGrid(3, 3, 6, rng), t);
            const std::vector<vt::ContainerId> &hosts = mirror.hostContainer;
            for (int i = 0; i < 40; ++i)
                t.addRelation(hosts[rng.index(hosts.size())],
                              hosts[rng.index(hosts.size())]);
            t.freeze();
        }
        std::vector<vt::ContainerId> groups;
        for (vt::ContainerId id{0}; id.index() < t.containerCount(); ++id)
            if (!t.container(id).leaf())
                groups.push_back(id);
        va::HierarchyCut cut(t);
        for (int op = 0; op < 40; ++op) {
            randomCutGesture(cut, groups, rng);
            va::CutProjection p = va::project(t, cut);
            ASSERT_EQ(p, va::testing::projectHashed(t, cut)) << "op " << op;
            for (const va::ViewEdge &e : p.edges)
                merged = merged || e.multiplicity > 1;
        }
    }
    EXPECT_TRUE(merged) << "no gesture merged parallel edges";
}

namespace
{

/** A random cut gesture through the session's entry points. */
void
randomSessionGesture(vap::Session &s, const std::vector<std::string> &groups,
                     viva::support::Rng &rng)
{
    const std::string &group = groups[rng.index(groups.size())];
    switch (rng.index(5)) {
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
        s.aggregateToDepth(std::uint16_t(rng.index(5)));
        break;
    default:
        s.resetAggregation();
        break;
    }
}

} // namespace

/**
 * After each random gesture, the cut projected from the previous
 * projection equals the session's (which syncLayout projects the same
 * way), the hashed oracle and the projection from nothing, compared
 * whole (representatives and first relations included); at least one
 * gesture must contract only some relations. Three traces: a
 * Grid'5000 mirror, a synthetic grid with extra host-to-host relations
 * (so parallel edges merge, in both orientations) and the Figure 1
 * trace. A checkpoint restored halfway restarts the session's chain
 * from an empty projection.
 */
TEST_P(CutProjectionOracle, IncrementalEqualsTheHashedContraction)
{
    viva::support::Rng rng(500 + GetParam());
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId contracted = reg.counter("agg.project.relations");
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("viva_incremental_projection_" + std::to_string(GetParam()) +
          ".ckpt"))
            .string();
    bool merged = false;
    bool partial = false;
    for (int which = 0; which < 3; ++which) {
        vt::Trace t;
        if (which == 0) {
            vp::mirrorPlatform(vp::makeGrid5000(), t);
        } else if (which == 1) {
            vp::TraceMirror mirror =
                vp::mirrorPlatform(vp::makeSyntheticGrid(3, 3, 6, rng), t);
            const std::vector<vt::ContainerId> &hosts = mirror.hostContainer;
            for (int i = 0; i < 40; ++i)
                t.addRelation(hosts[rng.index(hosts.size())],
                              hosts[rng.index(hosts.size())]);
        } else {
            t = vt::makeFigure1Trace();
        }
        std::vector<std::string> groups;
        for (vt::ContainerId id{0}; id.index() < t.containerCount(); ++id)
            if (!t.container(id).leaf())
                groups.push_back(t.fullName(id));
        vap::Session s(std::move(t));
        const std::size_t relations = s.trace().relations().size();
        for (int op = 0; op < 40; ++op) {
            if (op == 20) {
                ASSERT_TRUE(s.checkpoint(path).ok());
                ASSERT_TRUE(s.restore(path).ok());
            }
            const va::CutProjection prev = s.projection();
            randomSessionGesture(s, groups, rng);
            const std::uint64_t before = reg.counterValue(contracted);
            const va::CutProjection p =
                va::project(s.trace(), s.cut(), prev);
            partial = partial || reg.counterValue(contracted) - before <
                                     relations;
            ASSERT_TRUE(p == s.projection())
                << "trace " << which << " op " << op;
            ASSERT_TRUE(p == va::testing::projectHashed(s.trace(), s.cut()))
                << "trace " << which << " op " << op;
            ASSERT_TRUE(p == va::project(s.trace(), s.cut()))
                << "trace " << which << " op " << op;
            for (const va::ViewEdge &e : p.edges)
                merged = merged || e.multiplicity > 1;
        }
    }
    std::filesystem::remove(path);
    EXPECT_TRUE(merged) << "no gesture merged parallel edges";
    EXPECT_TRUE(partial) << "no gesture contracted only some relations";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutProjectionOracle, ::testing::Range(1, 5));

/**
 * The work counters of a projection from the previous one: a site
 * aggregated at cluster level rewrites exactly the site's subtree and
 * contracts exactly the relations incident to it; a reset from a
 * focus view contracts every relation.
 */
TEST(CutProjection, SiteAggregateCountsItsSubtree)
{
    namespace obs = viva::support::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId containers = reg.counter("agg.project.containers");
    const obs::CounterId relations = reg.counter("agg.project.relations");
    auto counted = [&](auto &&project) {
        const std::uint64_t c0 = reg.counterValue(containers);
        const std::uint64_t r0 = reg.counterValue(relations);
        va::CutProjection p = project();
        return std::array<std::uint64_t, 3>{
            reg.counterValue(containers) - c0,
            reg.counterValue(relations) - r0, p.size()};
    };

    viva::support::Rng rng(7);
    vt::Trace t;
    vp::TraceMirror mirror =
        vp::mirrorPlatform(vp::makeSyntheticGrid(5, 3, 4, rng), t);
    t.freeze();
    std::vector<vt::ContainerId> sites;
    std::uint16_t cluster_depth = 0;
    for (vt::ContainerId g : mirror.groupContainer) {
        if (t.container(g).kind == vt::ContainerKind::Site)
            sites.push_back(g);
        if (t.container(g).kind == vt::ContainerKind::Cluster)
            cluster_depth = t.container(g).depth;
    }
    ASSERT_EQ(sites.size(), 5u);

    va::HierarchyCut cut(t);
    cut.aggregateToDepth(cluster_depth);
    va::CutProjection prev = va::project(t, cut);
    for (vt::ContainerId site : sites) {
        va::HierarchyCut next = cut;
        next.aggregate(site);
        std::array<std::uint64_t, 3> work =
            counted([&] { return va::project(t, next, prev); });
        EXPECT_EQ(work[0], t.cachedSubtree(site).size()) << t.fullName(site);
        std::uint64_t incident = 0;
        for (const vt::Trace::Relation &r : t.relations())
            incident += t.isAncestorOrSelf(site, r.a) ||
                        t.isAncestorOrSelf(site, r.b);
        EXPECT_EQ(work[1], incident) << t.fullName(site);
        EXPECT_LT(work[1], t.relations().size());
    }

    cut.focus({mirror.hostContainer.front()});
    prev = va::project(t, cut, prev);
    cut.reset();
    std::array<std::uint64_t, 3> work =
        counted([&] { return va::project(t, cut, prev); });
    EXPECT_EQ(work[1], t.relations().size());
    EXPECT_EQ(work[2], cut.visibleCount());
}

TEST(HierarchyCut, VisibleCountEqualsTheVisibleNodes)
{
    viva::support::Rng rng(11);
    vt::Trace t;
    vp::TraceMirror mirror =
        vp::mirrorPlatform(vp::makeSyntheticGrid(3, 3, 5, rng), t);
    t.freeze();
    va::HierarchyCut cut(t);
    for (int op = 0; op < 60; ++op) {
        randomCutGesture(cut, mirror.groupContainer, rng);
        ASSERT_EQ(cut.visibleCount(), cut.visibleNodes().size())
            << "op " << op;
    }
}

// --- a cut change folds only what it brings in -------------------------------------

class IncrementalFold : public ::testing::TestWithParam<int>
{
};

TEST_P(IncrementalFold, ViewsEqualAFreshBuildAfterEveryGesture)
{
    // Differential: random cut, slice and mapping changes; after each,
    // the session's view (its stored rows carried over a cut change,
    // the entering ones folded) is bitwise a fresh build, at 1 and 4
    // threads.
    for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        viva::support::Rng rng(500 + GetParam());
        vt::Trace t;
        vp::TraceMirror mirror =
            vp::mirrorPlatform(vp::makeSyntheticGrid(3, 4, 24, rng), t);
        for (vt::ContainerId host : mirror.hostContainer) {
            vt::Variable &used = t.variable(host, mirror.powerUsed);
            double time = 0.0;
            for (int k = 0; k < 5; ++k) {
                used.set(time, rng.uniform(0.0, 1000.0));
                time += rng.uniform(0.5, 2.0);
            }
        }
        std::vector<std::string> groups;
        for (vt::ContainerId id : mirror.groupContainer)
            groups.push_back(t.fullName(id));
        vap::Session s(std::move(t));
        s.setThreads(threads);
        const vt::MetricId power = s.trace().findMetric("power");
        const vt::MetricId power_used = s.trace().findMetric("power_used");

        namespace obs = viva::support::obs;
        obs::Registry &reg = obs::Registry::global();
        const obs::CounterId values = reg.counter("agg.values");
        std::size_t incremental = 0;
        for (int gesture = 0; gesture < 60; ++gesture) {
            const std::string &group = groups[rng.index(groups.size())];
            switch (rng.index(8)) {
            case 0:
            case 1:
                ASSERT_TRUE(s.aggregate(group));
                break;
            case 2:
            case 3:
                ASSERT_TRUE(s.disaggregate(group));
                break;
            case 4:
                ASSERT_TRUE(s.focus(group));
                break;
            case 5:
                if (rng.index(2))
                    s.resetAggregation();
                else
                    s.aggregateToDepth(std::uint16_t(rng.index(4)));
                break;
            case 6: {
                std::size_t n = 1 + rng.index(6);
                s.setSliceOf(va::SliceIndex(std::uint32_t(rng.index(n))),
                             n);
                break;
            }
            default: {
                vv::MappingRule host =
                    *s.mapping().rule(vt::ContainerKind::Host);
                host.fillMetric = host.fillMetric == power_used
                                      ? (rng.index(2) ? power
                                                      : vt::kNoMetric)
                                      : power_used;
                s.mapping().setRule(vt::ContainerKind::Host, host);
                break;
            }
            }
            if (gesture % 10 == 9) {
                ASSERT_TRUE(s.auditInvariants().empty());
            }
            // Now and then no view between two gestures: a cut change
            // while rows still wait folds plainly.
            if (rng.index(4) == 0)
                continue;
            const std::uint64_t before = reg.counterValue(values);
            const va::View got = s.view();
            const std::uint64_t folded = reg.counterValue(values) - before;
            if (folded > 0 &&
                folded < got.nodes.size() * got.requests.size())
                ++incremental;
            const va::View want =
                va::buildView(s.trace(), s.projection(), s.timeSlice(),
                              got.requests, false, threads)
                    .value();
            ASSERT_EQ(got.nodes.size(), want.nodes.size());
            for (std::size_t i = 0; i < got.nodes.size(); ++i) {
                ASSERT_EQ(got.nodes[i].id, want.nodes[i].id);
                for (std::size_t k = 0; k < got.requests.size(); ++k)
                    ASSERT_EQ(
                        std::bit_cast<std::uint64_t>(got.value(i, k)),
                        std::bit_cast<std::uint64_t>(want.value(i, k)))
                        << "gesture " << gesture << " node " << i
                        << " metric " << k;
            }
        }
        // The sequence exercised the carried rows, not only full folds.
        EXPECT_GT(incremental, 5u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFold, ::testing::Range(1, 4));

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
    trace.freeze();

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
  protected:
    /** Same nodes, values (to the bit) and edges. */
    static void
    expectBitwiseEqual(const va::View &got, const va::View &want)
    {
        ASSERT_EQ(got.nodes.size(), want.nodes.size());
        ASSERT_EQ(got.requests.size(), want.requests.size());
        ASSERT_EQ(got.values.size(), want.values.size());
        for (std::size_t i = 0; i < got.nodes.size(); ++i) {
            const va::ViewNode &a = got.nodes[i];
            const va::ViewNode &b = want.nodes[i];
            ASSERT_EQ(a.id, b.id) << "node " << i;
            ASSERT_EQ(a.aggregated, b.aggregated) << "node " << i;
            ASSERT_EQ(a.leafCount, b.leafCount) << "node " << i;
            for (std::size_t k = 0; k < got.requests.size(); ++k)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value(i, k)),
                          std::bit_cast<std::uint64_t>(want.value(i, k)))
                    << "node " << i << " metric " << k;
        }
        ASSERT_EQ(got.edges, want.edges);
    }

    /** Same bits in every field a renderer reads. */
    static void
    expectBitwiseEqual(const vv::Scene &got, const vv::Scene &want)
    {
        auto same = [](double a, double b) {
            return std::bit_cast<std::uint64_t>(a) ==
                   std::bit_cast<std::uint64_t>(b);
        };
        ASSERT_TRUE(same(got.width, want.width));
        ASSERT_TRUE(same(got.height, want.height));
        ASSERT_TRUE(same(got.slice.begin, want.slice.begin));
        ASSERT_TRUE(same(got.slice.end, want.slice.end));
        ASSERT_EQ(got.nodes.size(), want.nodes.size());
        for (std::size_t i = 0; i < got.nodes.size(); ++i) {
            const vv::SceneNode &a = got.nodes[i];
            const vv::SceneNode &b = want.nodes[i];
            ASSERT_EQ(a.id, b.id) << "node " << i;
            ASSERT_EQ(a.label, b.label) << "node " << i;
            ASSERT_EQ(a.aggregated, b.aggregated) << "node " << i;
            ASSERT_EQ(a.leafCount, b.leafCount) << "node " << i;
            ASSERT_EQ(a.shape, b.shape) << "node " << i;
            ASSERT_EQ(a.color, b.color) << "node " << i;
            ASSERT_EQ(a.hasSecondary, b.hasSecondary) << "node " << i;
            for (auto [x, y] : {std::pair{a.x, b.x}, {a.y, b.y},
                                {a.sizePx, b.sizePx}, {a.fill, b.fill},
                                {a.secondarySizePx, b.secondarySizePx},
                                {a.secondaryFill, b.secondaryFill},
                                {a.heterogeneity, b.heterogeneity}})
                ASSERT_TRUE(same(x, y)) << "node " << i;
            ASSERT_EQ(a.segments.size(), b.segments.size()) << "node " << i;
            for (std::size_t k = 0; k < a.segments.size(); ++k)
                ASSERT_TRUE(same(a.segments[k].fraction,
                                 b.segments[k].fraction))
                    << "node " << i << " segment " << k;
        }
        ASSERT_EQ(got.edges.size(), want.edges.size());
        for (std::size_t i = 0; i < got.edges.size(); ++i) {
            ASSERT_EQ(got.edges[i].a, want.edges[i].a) << "edge " << i;
            ASSERT_EQ(got.edges[i].b, want.edges[i].b) << "edge " << i;
            ASSERT_EQ(got.edges[i].multiplicity,
                      want.edges[i].multiplicity)
                << "edge " << i;
            ASSERT_TRUE(same(got.edges[i].widthPx, want.edges[i].widthPx))
                << "edge " << i;
        }
    }

    /**
     * view(), view(true) and scene() are bitwise a fresh build of the
     * current cut, slice and mapping, at 1 and 4 threads: the stored
     * values never serve a view they were not folded for.
     */
    static void
    expectFreshViews(vap::Session &s, const std::string &after)
    {
        SCOPED_TRACE(after);
        std::vector<va::MetricRequest> requests;
        for (vt::MetricId m : s.mapping().referencedMetrics())
            requests.emplace_back(m);
        for (std::size_t threads : {1u, 4u}) {
            s.setThreads(threads);
            for (bool with_stats : {false, true}) {
                va::View want = va::buildView(s.trace(), s.cut(),
                                              s.timeSlice(), requests,
                                              with_stats, threads)
                                    .value();
                expectBitwiseEqual(s.view(with_stats), want);
            }
            vv::TypeScaling scaling = s.scaling();
            vv::Scene want = vv::composeScene(
                va::buildView(s.trace(), s.cut(), s.timeSlice(), requests,
                              false, threads)
                    .value(),
                s.trace(), viva::layout::snapshotPositions(s.layoutGraph()),
                s.mapping(), scaling);
            expectBitwiseEqual(s.scene(), want);
        }
        s.setThreads(1);
    }
};

TEST_P(GestureSequence, LayoutMatchesARestoredSessionAfterEveryGesture)
{
    viva::support::Rng rng(GetParam());
    vt::Trace t;
    vp::TraceMirror mirror = vp::mirrorPlatform(vp::makeGrid5000(), t);
    std::vector<std::string> groups;
    for (vt::ContainerId id : mirror.groupContainer)
        groups.push_back(t.fullName(id));
    // A utilization history per host, so every slice folds to its own
    // values.
    for (vt::ContainerId host : mirror.hostContainer) {
        vt::Variable &used = t.variable(host, mirror.powerUsed);
        double time = 0.0;
        for (int k = 0; k < 4; ++k) {
            used.set(time, rng.uniform(0.0, 1000.0));
            time += rng.uniform(0.5, 2.0);
        }
    }
    vap::Session s(std::move(t));
    s.setThreads(1);
    const vt::MetricId power = s.trace().findMetric("power");
    const vt::MetricId power_used = s.trace().findMetric("power_used");
    const std::string frames =
        (std::filesystem::temp_directory_path() /
         ("viva_gesture_frames_" + std::to_string(GetParam())))
            .string();

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("viva_gesture_sequence_" + std::to_string(GetParam()) +
          ".ckpt"))
            .string();
    vap::Session restored(vt::makeFigure1Trace());
    for (int gesture = 0; gesture < 12; ++gesture) {
        const std::string &group = groups[rng.index(groups.size())];
        switch (rng.index(9)) {
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
        case 5:
            ASSERT_TRUE(s.stepLayout(1 + rng.index(3)).ok());
            break;
        case 6: {
            // A slice change, then a remap: hosts filled by another
            // metric, or by none, changes the view's metric set.
            std::size_t n = 1 + rng.index(8);
            s.setSliceOf(va::SliceIndex(std::uint32_t(rng.index(n))), n);
            expectFreshViews(s, "slice change");
            vv::MappingRule host = *s.mapping().rule(vt::ContainerKind::Host);
            host.fillMetric = host.fillMetric == power_used
                                  ? (rng.index(2) ? power : vt::kNoMetric)
                                  : power_used;
            s.mapping().setRule(vt::ContainerKind::Host, host);
            break;
        }
        default: {
            // Store the current view, then render another slice (or
            // animate) under a deadline that trips mid-fold (or never,
            // on a small cut), and come back to the stored slice: an
            // aborted fold must leave nothing stored, or its partial
            // values would be served here.
            const va::TimeSlice stored = s.timeSlice();
            (void)s.view();
            viva::support::FakeClock clock(0, 1000);
            viva::support::ClockOverride guard(clock);
            s.setOperationDeadline(1000 * (1 + rng.index(64)));
            if (rng.index(2)) {
                s.setSliceOf(va::SliceIndex(std::uint32_t(rng.index(5))),
                             5);
                viva::support::Expected<void> drawn =
                    s.renderSvg(frames + ".svg");
                ASSERT_TRUE(drawn.ok() ||
                            drawn.error().code() ==
                                viva::support::Errc::Deadline);
                s.setTimeSlice(stored);
            } else {
                // An abort rolls the slice back to the stored one.
                viva::support::Expected<std::size_t> drawn =
                    s.animate(2, frames, "frame", 1);
                ASSERT_TRUE(drawn.ok() ||
                            drawn.error().code() ==
                                viva::support::Errc::Deadline);
            }
            s.setOperationDeadline(0);
            break;
        }
        }
        // The graph holds exactly the visible nodes: no dead slots.
        const viva::layout::LayoutGraph &g = s.layoutGraph();
        ASSERT_EQ(g.rawNodes().size(), g.nodeCount());
        ASSERT_EQ(g.nodeCount(), s.cut().visibleCount());

        // The stored projection is the cut's, and the session's views
        // and scene are bitwise freshly built ones, for any thread
        // count.
        ASSERT_TRUE(s.projection() == va::project(s.trace(), s.cut()))
            << "after gesture " << gesture;
        expectFreshViews(s, "gesture " + std::to_string(gesture));
        ASSERT_TRUE(s.auditInvariants().empty());

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
    std::filesystem::remove(frames + ".svg");
    std::filesystem::remove_all(frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GestureSequence, ::testing::Range(1, 5));
