/**
 * @file
 * Tests for the multi-scale aggregation core: time slices, the
 * hierarchy cut, Equation-1 values, edge contraction, and conservation
 * properties across scales.
 */

#include <gtest/gtest.h>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "agg/timeslice.hh"
#include "support/random.hh"
#include "trace/builder.hh"

namespace va = viva::agg;
namespace vt = viva::trace;

namespace
{

/**
 * GroupB > GroupA > {h1, h2, l1}, plus h3 outside GroupA -- the Fig. 3
 * shape. Host powers 10 and 30 (plus 5 for h3); utilizations half of
 * that; link bandwidth 100, used 40.
 */
struct Fig3Fixture
{
    vt::Trace trace;
    vt::ContainerId group_b, group_a, h1, h2, l1, h3;
    vt::MetricId power, power_used, bw, bw_used;

    Fig3Fixture()
    {
        vt::TraceBuilder b;
        power = b.powerMetric();
        power_used = b.powerUsedMetric();
        bw = b.bandwidthMetric();
        bw_used = b.bandwidthUsedMetric();

        b.beginGroup("GroupB", vt::ContainerKind::Site);
        group_b = b.currentGroup();
        b.beginGroup("GroupA", vt::ContainerKind::Cluster);
        group_a = b.currentGroup();
        h1 = b.host("h1");
        h2 = b.host("h2");
        l1 = b.link("l1");
        b.endGroup();
        h3 = b.host("h3");
        b.endGroup();

        vt::Trace &t = b.trace();
        t.addRelation(h1, l1);
        t.addRelation(l1, h2);
        t.addRelation(h2, h3);  // direct relation for contraction tests

        t.variable(h1, power).set(0.0, 10.0);
        t.variable(h2, power).set(0.0, 30.0);
        t.variable(h3, power).set(0.0, 5.0);
        t.variable(h1, power_used).set(0.0, 5.0);
        t.variable(h2, power_used).set(0.0, 15.0);
        t.variable(h3, power_used).set(0.0, 2.5);
        t.variable(l1, bw).set(0.0, 100.0);
        t.variable(l1, bw_used).set(0.0, 40.0);
        // close the span at t = 10
        t.variable(h1, power).set(10.0, 10.0);

        trace = b.take();
        // ids survive the move; refresh nothing.
    }
};

} // namespace

// --- time slices ---------------------------------------------------------------

TEST(TimeSlice, UniformSlicesPartitionTheSpan)
{
    auto slices = va::uniformSlices({0.0, 10.0}, 4);
    ASSERT_EQ(slices.size(), 4u);
    EXPECT_DOUBLE_EQ(slices[0].begin, 0.0);
    EXPECT_DOUBLE_EQ(slices[0].end, 2.5);
    EXPECT_DOUBLE_EQ(slices[3].begin, 7.5);
    EXPECT_DOUBLE_EQ(slices[3].end, 10.0);
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_DOUBLE_EQ(slices[i].begin, slices[i - 1].end);
}

TEST(TimeSlice, SliceAt)
{
    auto s = va::sliceAt({0.0, 12.0}, va::SliceIndex{1}, 3);
    EXPECT_DOUBLE_EQ(s.begin, 4.0);
    EXPECT_DOUBLE_EQ(s.end, 8.0);
}

TEST(TimeSlice, SlidingWindows)
{
    auto w = va::slidingSlices({0.0, 10.0}, 4.0, 2.0);
    ASSERT_EQ(w.size(), 5u);
    EXPECT_DOUBLE_EQ(w[0].begin, 0.0);
    EXPECT_DOUBLE_EQ(w[0].end, 4.0);
    EXPECT_DOUBLE_EQ(w[4].begin, 8.0);
    EXPECT_DOUBLE_EQ(w[4].end, 10.0);  // clipped at the span end
}

// --- hierarchy cut ----------------------------------------------------------------

TEST(HierarchyCut, StartsFullyDisaggregated)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    auto visible = cut.visibleNodes();
    // h1, h2, l1, h3 are the leaves.
    EXPECT_EQ(visible.size(), 4u);
    EXPECT_TRUE(cut.isVisible(f.h1));
    EXPECT_FALSE(cut.isVisible(f.group_a));
    EXPECT_EQ(cut.representative(f.h1), f.h1);
}

TEST(HierarchyCut, AggregateHidesSubtree)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_a);
    EXPECT_TRUE(cut.isCollapsed(f.group_a));
    EXPECT_TRUE(cut.isVisible(f.group_a));
    EXPECT_FALSE(cut.isVisible(f.h1));
    EXPECT_EQ(cut.representative(f.h1), f.group_a);
    EXPECT_EQ(cut.representative(f.h3), f.h3);
    // Visible: GroupA (aggregated) + h3.
    EXPECT_EQ(cut.visibleCount(), 2u);
}

TEST(HierarchyCut, NestedAggregationTopmostWins)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_a);
    cut.aggregate(f.group_b);
    EXPECT_EQ(cut.representative(f.h1), f.group_b);
    EXPECT_FALSE(cut.isVisible(f.group_a));
    EXPECT_EQ(cut.visibleCount(), 1u);  // just GroupB
}

TEST(HierarchyCut, DisaggregateExpandsOneLevel)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_b);
    cut.disaggregate(f.group_b);
    // GroupA becomes collapsed, h3 visible.
    EXPECT_TRUE(cut.isCollapsed(f.group_a));
    EXPECT_TRUE(cut.isVisible(f.h3));
    EXPECT_EQ(cut.visibleCount(), 2u);
    cut.disaggregate(f.group_a);
    EXPECT_EQ(cut.visibleCount(), 4u);  // back to all leaves
}

TEST(HierarchyCut, AggregateLeafIsNoop)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.h1);
    EXPECT_FALSE(cut.isCollapsed(f.h1));
    EXPECT_EQ(cut.visibleCount(), 4u);
}

TEST(HierarchyCut, AggregateToDepthLevels)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregateToDepth(1);  // GroupB level
    EXPECT_EQ(cut.visibleCount(), 1u);
    cut.aggregateToDepth(2);  // GroupA level: GroupA + h3
    EXPECT_EQ(cut.visibleCount(), 2u);
    cut.reset();
    EXPECT_EQ(cut.visibleCount(), 4u);
}

TEST(HierarchyCut, PreorderIsStable)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    auto a = cut.visibleNodes();
    auto b = cut.visibleNodes();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[0], f.h1);  // preorder: first leaf first
}

// --- aggregated values -----------------------------------------------------------

TEST(Aggregator, LeafValueIsTimeAverage)
{
    Fig3Fixture f;
    va::Aggregator agg(f.trace);
    EXPECT_DOUBLE_EQ(agg.value(f.h1, f.power, {0.0, 10.0}), 10.0);
    EXPECT_DOUBLE_EQ(agg.value(f.l1, f.bw_used, {0.0, 10.0}), 40.0);
}

TEST(Aggregator, SumOverGroup)
{
    Fig3Fixture f;
    va::Aggregator agg(f.trace);
    // GroupA: h1 + h2 power = 40 (the link has no 'power' variable).
    EXPECT_DOUBLE_EQ(agg.value(f.group_a, f.power, {0.0, 10.0}), 40.0);
    // GroupB adds h3: 45.
    EXPECT_DOUBLE_EQ(agg.value(f.group_b, f.power, {0.0, 10.0}), 45.0);
    // Bandwidth aggregates only over the link.
    EXPECT_DOUBLE_EQ(agg.value(f.group_a, f.bw, {0.0, 10.0}), 100.0);
}

TEST(Aggregator, OtherOps)
{
    Fig3Fixture f;
    va::Aggregator agg(f.trace);
    EXPECT_DOUBLE_EQ(
        agg.value(f.group_b, f.power, {0.0, 10.0}, va::SpatialOp::Max),
        30.0);
    EXPECT_DOUBLE_EQ(
        agg.value(f.group_b, f.power, {0.0, 10.0}, va::SpatialOp::Min),
        5.0);
    EXPECT_DOUBLE_EQ(
        agg.value(f.group_b, f.power, {0.0, 10.0},
                  va::SpatialOp::Average),
        15.0);
}

TEST(Aggregator, TimeVaryingEquation1)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto h = b.host("h");
    vt::Trace &t = b.trace();
    t.variable(h, power).set(0.0, 100.0);
    t.variable(h, power).set(4.0, 10.0);
    t.variable(h, power).set(8.0, 100.0);
    vt::Trace trace = b.take();

    va::Aggregator agg(trace);
    // Over [2, 6): 2s at 100 + 2s at 10 -> average 55.
    EXPECT_DOUBLE_EQ(agg.value(h, power, {2.0, 6.0}), 55.0);
    // Zero-length slice: instantaneous value.
    EXPECT_DOUBLE_EQ(agg.value(h, power, {5.0, 5.0}), 10.0);
}

TEST(Aggregator, DistributionForIndicators)
{
    Fig3Fixture f;
    va::Aggregator agg(f.trace);
    auto d = agg.distribution(f.group_b, f.power, {0.0, 10.0});
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.median(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_GT(d.variance(), 0.0);
}

// --- conservation across scales (the core multi-scale property) ---------------

TEST(Aggregation, SumConservedAcrossCuts)
{
    Fig3Fixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};

    for (int level = 0; level < 4; ++level) {
        va::HierarchyCut cut(f.trace);
        if (level > 0)
            cut.aggregateToDepth(std::uint16_t(level));
        double total = 0.0;
        for (auto id : cut.visibleNodes())
            total += agg.value(id, f.power, slice);
        EXPECT_DOUBLE_EQ(total, 45.0) << "level " << level;
    }
}

// --- edge contraction ------------------------------------------------------------

TEST(VisibleEdges, LeafLevelKeepsAllRelations)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    auto edges = va::visibleEdges(f.trace, cut);
    EXPECT_EQ(edges.size(), 3u);
}

TEST(VisibleEdges, ContractionMergesAndDrops)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_a);
    auto edges = va::visibleEdges(f.trace, cut);
    // h1-l1 and l1-h2 vanish inside GroupA; h2-h3 becomes GroupA-h3.
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].multiplicity, 1u);
    EXPECT_EQ(std::min(edges[0].a, edges[0].b),
              std::min(f.group_a, f.h3));
}

TEST(VisibleEdges, MultiplicityCounts)
{
    vt::TraceBuilder b;
    b.beginGroup("g1", vt::ContainerKind::Cluster);
    auto a1 = b.host("a1");
    auto a2 = b.host("a2");
    b.endGroup();
    b.beginGroup("g2", vt::ContainerKind::Cluster);
    auto b1 = b.host("b1");
    auto b2 = b.host("b2");
    b.endGroup();
    vt::Trace &t = b.trace();
    t.addRelation(a1, b1);
    t.addRelation(a2, b2);
    t.addRelation(a1, b2);
    vt::Trace trace = b.take();

    va::HierarchyCut cut(trace);
    cut.aggregateToDepth(1);
    auto edges = va::visibleEdges(trace, cut);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].multiplicity, 3u);
}

// --- buildView -----------------------------------------------------------------

TEST(BuildView, NodesEdgesAndValues)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_a);

    va::View view = va::buildView(f.trace, cut, {0.0, 10.0},
                                  {f.power, f.power_used});
    ASSERT_EQ(view.nodes.size(), 2u);
    ASSERT_EQ(view.edges.size(), 1u);

    std::size_t ga = view.indexOf(f.group_a);
    ASSERT_NE(ga, va::View::npos);
    EXPECT_TRUE(view.nodes[ga].aggregated);
    EXPECT_EQ(view.nodes[ga].leafCount, 3u);  // h1, h2, l1
    EXPECT_DOUBLE_EQ(view.valueOf(f.group_a, f.power), 40.0);
    EXPECT_DOUBLE_EQ(view.valueOf(f.group_a, f.power_used), 20.0);
    EXPECT_DOUBLE_EQ(view.valueOf(f.h3, f.power), 5.0);
    EXPECT_DOUBLE_EQ(view.valueOf(f.h3, f.bw), 0.0);  // not requested
}

TEST(BuildView, WithStats)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_b);
    va::View view =
        va::buildView(f.trace, cut, {0.0, 10.0}, {f.power},
                      va::SpatialOp::Sum, /*with_stats=*/true);
    ASSERT_EQ(view.nodes.size(), 1u);
    ASSERT_EQ(view.nodes[0].stats.size(), 1u);
    EXPECT_DOUBLE_EQ(view.nodes[0].values[0], 45.0);
    EXPECT_DOUBLE_EQ(view.nodes[0].stats[0].median, 10.0);
    EXPECT_DOUBLE_EQ(view.nodes[0].stats[0].max, 30.0);
    EXPECT_GT(view.nodes[0].stats[0].variance, 0.0);
}

TEST(BuildView, StatsAgreeWithValuesForEveryOp)
{
    Fig3Fixture f;
    va::HierarchyCut cut(f.trace);
    cut.aggregate(f.group_b);
    for (auto op : {va::SpatialOp::Sum, va::SpatialOp::Average,
                    va::SpatialOp::Max, va::SpatialOp::Min}) {
        va::View plain =
            va::buildView(f.trace, cut, {0.0, 10.0}, {f.power}, op);
        va::View stats = va::buildView(f.trace, cut, {0.0, 10.0},
                                       {f.power}, op, true);
        EXPECT_DOUBLE_EQ(plain.nodes[0].values[0],
                         stats.nodes[0].values[0]);
    }
}

// --- randomized parallel-vs-serial stress ---------------------------------------

namespace
{

/**
 * A randomized container hierarchy: recursive groups with random
 * fan-out, hosts (sometimes without the variable, to exercise the
 * skip-missing path), and piecewise-constant histories with random
 * change points. Everything derives from the seed, so a failure
 * reproduces exactly.
 */
struct RandomTrace
{
    vt::Trace trace;
    vt::MetricId metric = vt::kNoMetric;
    std::vector<vt::ContainerId> groups;  ///< every internal container

    explicit RandomTrace(std::uint64_t seed)
    {
        viva::support::Rng rng(seed);
        vt::TraceBuilder b;
        metric = b.powerUsedMetric();
        groups.push_back(b.currentGroup());  // the root
        buildLevel(b, rng, 0);
        trace = b.take();
    }

  private:
    void buildLevel(vt::TraceBuilder &b, viva::support::Rng &rng,
                    int depth)
    {
        std::size_t nhosts = 1 + rng.index(6);
        for (std::size_t i = 0; i < nhosts; ++i) {
            vt::ContainerId h =
                b.host("h" + std::to_string(depth) + "_" +
                       std::to_string(i));
            if (rng.uniform() < 0.85) {
                vt::Variable &v = b.trace().variable(h, metric);
                double t = 0.0;
                std::size_t points = 1 + rng.index(5);
                for (std::size_t k = 0; k < points; ++k) {
                    v.set(t, rng.uniform(0.0, 100.0));
                    t += rng.uniform(0.2, 3.0);
                }
            }
        }
        if (depth >= 3)
            return;
        std::size_t nsub = rng.index(4 - std::size_t(depth));
        for (std::size_t i = 0; i < nsub; ++i) {
            b.beginGroup("g" + std::to_string(depth) + "_" +
                         std::to_string(i));
            groups.push_back(b.currentGroup());
            buildLevel(b, rng, depth + 1);
            b.endGroup();
        }
    }
};

} // namespace

/**
 * Stress: on randomized hierarchies and random time slices, every
 * Equation-1 combination computed with 2 and 8 workers must be bitwise
 * identical to the serial value, for every group of the hierarchy.
 */
TEST(ParallelStress, RandomHierarchiesMatchSerialExhaustively)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RandomTrace rt(seed);
        viva::support::Rng rng(seed * 1000 + 1);
        va::Aggregator serial(rt.trace, 1);
        va::Aggregator par2(rt.trace, 2);
        va::Aggregator par8(rt.trace, 8);
        for (int s = 0; s < 4; ++s) {
            double a = rng.uniform(0.0, 10.0);
            double len = rng.uniform(0.1, 8.0);
            va::TimeSlice slice{a, a + len};
            for (vt::ContainerId g : rt.groups) {
                for (auto sop :
                     {va::SpatialOp::Sum, va::SpatialOp::Average,
                      va::SpatialOp::Max, va::SpatialOp::Min}) {
                    for (auto top :
                         {va::TemporalOp::Average, va::TemporalOp::Max,
                          va::TemporalOp::Min,
                          va::TemporalOp::Integral}) {
                        double v1 =
                            serial.value(g, rt.metric, slice, sop, top);
                        ASSERT_EQ(v1, par2.value(g, rt.metric, slice,
                                                 sop, top))
                            << "seed " << seed << " group " << g;
                        ASSERT_EQ(v1, par8.value(g, rt.metric, slice,
                                                 sop, top))
                            << "seed " << seed << " group " << g;
                    }
                }
            }
        }
    }
}

/**
 * Stress: random cuts of random hierarchies, viewed in parallel, are
 * bitwise identical to the serial build -- values and indicators.
 */
TEST(ParallelStress, RandomCutsViewIdentically)
{
    for (std::uint64_t seed = 20; seed <= 26; ++seed) {
        RandomTrace rt(seed);
        viva::support::Rng rng(seed * 77);
        va::HierarchyCut cut(rt.trace);
        for (vt::ContainerId g : rt.groups)
            if (rng.uniform() < 0.4)
                cut.aggregate(g);
        va::TimeSlice slice{rng.uniform(0.0, 2.0), rng.uniform(3.0, 9.0)};
        std::vector<va::MetricRequest> req{
            va::MetricRequest(rt.metric, va::SpatialOp::Average,
                              va::TemporalOp::Integral)};
        va::View v1 =
            va::buildView(rt.trace, cut, slice, req, true, 1).value();
        va::View v8 =
            va::buildView(rt.trace, cut, slice, req, true, 8).value();
        ASSERT_EQ(v1.nodes.size(), v8.nodes.size()) << "seed " << seed;
        for (std::size_t i = 0; i < v1.nodes.size(); ++i) {
            ASSERT_EQ(v1.nodes[i].id, v8.nodes[i].id);
            ASSERT_EQ(v1.nodes[i].values[0], v8.nodes[i].values[0]);
            ASSERT_EQ(v1.nodes[i].stats[0].variance,
                      v8.nodes[i].stats[0].variance);
            ASSERT_EQ(v1.nodes[i].stats[0].median,
                      v8.nodes[i].stats[0].median);
        }
    }
}
