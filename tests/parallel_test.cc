/**
 * @file
 * The differential determinism suite for the parallel engine: the
 * ThreadPool primitives themselves (coverage, ordered reduction,
 * exception and shutdown safety), then the load-bearing guarantee --
 * layouts and Equation-1 aggregations run with threads in {1, 2, 8}
 * produce *bitwise identical* results, so the thread knob can never
 * change an analysis, only its wall-clock time.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "app/commands.hh"
#include "app/session.hh"
#include "layout/force.hh"
#include "layout/graph.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/random.hh"
#include "support/threadpool.hh"
#include "trace/trace.hh"

namespace vl = viva::layout;
namespace va = viva::agg;
namespace vp = viva::platform;
namespace vt = viva::trace;
using viva::support::ThreadPool;

// --- ThreadPool primitives ---------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 10000;
    std::vector<int> hits(n, 0);
    ThreadPool::global().parallelFor(0, n, 7, 8,
                                     [&](std::size_t lo, std::size_t hi) {
                                         for (std::size_t i = lo; i < hi;
                                              ++i)
                                             ++hits[i];
                                     });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    bool ran = false;
    ThreadPool::global().parallelFor(
        5, 5, 4, 8, [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReduceOrderedIsThreadCountInvariant)
{
    // A deliberately non-associative-friendly float sum: magnitudes
    // spanning 12 orders. The reduction must be bitwise identical for
    // every thread count because the chunking is.
    constexpr std::size_t n = 5000;
    std::vector<double> data(n);
    viva::support::Rng rng(99);
    for (double &d : data)
        d = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(-6.0, 6.0));

    auto sum_with = [&](std::size_t threads) {
        return ThreadPool::global().reduceOrdered<double>(
            0, n, 64, threads, 0.0,
            [&](std::size_t lo, std::size_t hi) {
                double s = 0.0;
                for (std::size_t i = lo; i < hi; ++i)
                    s += data[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    double serial = sum_with(1);
    EXPECT_EQ(serial, sum_with(2));
    EXPECT_EQ(serial, sum_with(8));
    // And it really is a sum of everything.
    double naive = std::accumulate(data.begin(), data.end(), 0.0);
    EXPECT_NEAR(serial, naive, 1e-9 * std::abs(naive));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    EXPECT_THROW(
        ThreadPool::global().parallelFor(
            0, 1000, 8, 8,
            [&](std::size_t lo, std::size_t) {
                if (lo >= 500)
                    throw std::runtime_error("chunk failed");
            }),
        std::runtime_error);

    // The pool must survive: the next batch runs to completion.
    std::vector<int> hits(256, 0);
    ThreadPool::global().parallelFor(0, 256, 16, 8,
                                     [&](std::size_t lo, std::size_t hi) {
                                         for (std::size_t i = lo; i < hi;
                                              ++i)
                                             ++hits[i];
                                     });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelCallsRunInline)
{
    std::vector<int> hits(400, 0);
    ThreadPool::global().parallelFor(
        0, 4, 1, 4, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t outer = lo; outer < hi; ++outer) {
                // A chunk body calling back into the pool must not
                // deadlock; the inner call runs inline.
                ThreadPool::global().parallelFor(
                    outer * 100, (outer + 1) * 100, 10, 8,
                    [&](std::size_t ilo, std::size_t ihi) {
                        for (std::size_t i = ilo; i < ihi; ++i)
                            ++hits[i];
                    });
            }
        });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ShutdownJoinsCleanly)
{
    // Construction, work, destruction -- repeatedly, so a leaked or
    // wedged worker thread would show up as a hang or TSan report.
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        EXPECT_EQ(pool.workerCount(), 4u);
        std::vector<int> hits(1000, 0);
        pool.parallelFor(0, 1000, 13, 5,
                         [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i)
                                 ++hits[i];
                         });
        for (int h : hits)
            ASSERT_EQ(h, 1);
    }
}

TEST(ThreadPool, ResizeGrowsAndShrinks)
{
    ThreadPool pool;
    EXPECT_EQ(pool.workerCount(), 0u);
    pool.resize(3);
    EXPECT_EQ(pool.workerCount(), 3u);
    pool.resize(1);
    EXPECT_EQ(pool.workerCount(), 1u);
    // Still works after shrinking.
    int total = pool.reduceOrdered<int>(
        0, 100, 10, 2, 0,
        [](std::size_t lo, std::size_t hi) { return int(hi - lo); },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(total, 100);
}

// --- differential layout determinism -----------------------------------------

namespace
{

/** The bench generator: a random tree plus chords, n nodes. */
vl::LayoutGraph
makeGraph(std::size_t n, std::uint64_t seed)
{
    viva::support::Rng rng(seed);
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    ids.reserve(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(g.addNode(i,
                                {rng.uniform(0.0, extent),
                                 rng.uniform(0.0, extent)},
                                rng.uniform(0.5, 4.0)));
    for (std::size_t i = 1; i < n; ++i)
        g.addEdge(ids[i], ids[rng.index(i)]);
    for (std::size_t i = 0; i < n / 4; ++i) {
        std::size_t a = rng.index(n);
        std::size_t b = rng.index(n);
        if (a != b)
            g.addEdge(ids[a], ids[b]);
    }
    return g;
}

/** Positions after `steps` iterations with a given thread count. */
std::vector<vl::Vec2>
layoutWith(std::size_t threads, bool barnes_hut, std::size_t steps,
           std::size_t n = 600)
{
    vl::LayoutGraph g = makeGraph(n, 42);
    vl::ForceLayout layout(g);
    layout.params().useBarnesHut = barnes_hut;
    layout.params().threads = threads;
    for (std::size_t s = 0; s < steps; ++s)
        layout.step().value();
    std::vector<vl::Vec2> out;
    for (const vl::Node &node : g.rawNodes())
        out.push_back(node.position);
    return out;
}

/** Bitwise equality of two position sets. */
void
expectIdentical(const std::vector<vl::Vec2> &a,
                const std::vector<vl::Vec2> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // EXPECT_EQ on doubles is exact comparison: bitwise identity
        // (positions are never NaN).
        ASSERT_EQ(a[i].x, b[i].x) << "node " << i;
        ASSERT_EQ(a[i].y, b[i].y) << "node " << i;
    }
}

} // namespace

TEST(ParallelLayout, BarnesHutStepsAreBitwiseThreadCountInvariant)
{
    auto serial = layoutWith(1, true, 25);
    expectIdentical(serial, layoutWith(2, true, 25));
    expectIdentical(serial, layoutWith(8, true, 25));
    // The grouped field at scale: hundreds of groups over many chunks.
    auto big = layoutWith(1, true, 4, 5000);
    for (std::size_t threads : {2, 4, 8})
        expectIdentical(big, layoutWith(threads, true, 4, 5000));
}

TEST(ParallelLayout, NaiveStepsAreBitwiseThreadCountInvariant)
{
    auto serial = layoutWith(1, false, 10, 300);
    expectIdentical(serial, layoutWith(2, false, 10, 300));
    expectIdentical(serial, layoutWith(8, false, 10, 300));
}

TEST(ParallelLayout, StabilizeIsBitwiseThreadCountInvariant)
{
    auto run = [](std::size_t threads) {
        vl::LayoutGraph g = makeGraph(200, 7);
        vl::ForceLayout layout(g);
        layout.params().threads = threads;
        std::size_t iters =
            layout.stabilize(400, 1e-4).value();
        std::vector<vl::Vec2> out;
        for (const vl::Node &node : g.rawNodes())
            out.push_back(node.position);
        return std::make_pair(iters, out);
    };
    auto [it1, pos1] = run(1);
    auto [it2, pos2] = run(2);
    auto [it8, pos8] = run(8);
    // Same energies => same cooling schedule => same iteration count.
    EXPECT_EQ(it1, it2);
    EXPECT_EQ(it1, it8);
    expectIdentical(pos1, pos2);
    expectIdentical(pos1, pos8);
}

// --- differential aggregation determinism ------------------------------------

namespace
{

/**
 * A 3-site synthetic grid with a busy piecewise-constant utilization
 * history per host, plus a random cut -- the aggregation workload for
 * the differential checks.
 */
struct GridFixture
{
    vt::Trace trace;
    vt::MetricId power = vt::kNoMetric;
    vt::MetricId used = vt::kNoMetric;

    explicit GridFixture(std::uint64_t seed)
    {
        viva::support::Rng rng(seed);
        vp::Platform p = vp::makeSyntheticGrid(3, 3, 13, rng);
        auto mirror = vp::mirrorPlatform(p, trace);
        power = mirror.power;
        used = mirror.powerUsed;
        viva::support::Rng vals(seed + 1);
        for (auto c : mirror.hostContainer) {
            vt::Variable &v = trace.variable(c, used);
            double t = 0.0;
            for (int k = 0; k < 6; ++k) {
                v.set(t, vals.uniform(0.0, 3000.0));
                t += vals.uniform(0.1, 1.5);
            }
        }
        trace.freeze();
    }
};

} // namespace

TEST(ParallelAggregation, ValueIsBitwiseThreadCountInvariant)
{
    GridFixture f(31);
    va::TimeSlice slice{0.2, 4.7};
    for (auto sop : {va::SpatialOp::Sum, va::SpatialOp::Average,
                     va::SpatialOp::Max, va::SpatialOp::Min}) {
        for (auto top : {va::TemporalOp::Average, va::TemporalOp::Max,
                         va::TemporalOp::Min, va::TemporalOp::Integral}) {
            va::Aggregator a1(f.trace, 1);
            va::Aggregator a2(f.trace, 2);
            va::Aggregator a8(f.trace, 8);
            double v1 = a1.value(f.trace.root(), f.used, slice, sop, top);
            double v2 = a2.value(f.trace.root(), f.used, slice, sop, top);
            double v8 = a8.value(f.trace.root(), f.used, slice, sop, top);
            EXPECT_EQ(v1, v2);
            EXPECT_EQ(v1, v8);
        }
    }
}

TEST(ParallelAggregation, DistributionIsBitwiseThreadCountInvariant)
{
    GridFixture f(32);
    va::TimeSlice slice{0.0, 3.0};
    va::Aggregator a1(f.trace, 1);
    va::Aggregator a8(f.trace, 8);
    auto d1 = a1.distribution(f.trace.root(), f.used, slice);
    auto d8 = a8.distribution(f.trace.root(), f.used, slice);
    ASSERT_EQ(d1.count(), d8.count());
    // Same sample *sequence*, not just the same multiset.
    for (std::size_t i = 0; i < d1.count(); ++i)
        ASSERT_EQ(d1.data()[i], d8.data()[i]) << "sample " << i;
    EXPECT_EQ(d1.median(), d8.median());
    EXPECT_EQ(d1.variance(), d8.variance());
}

TEST(ParallelAggregation, BuildViewIsBitwiseThreadCountInvariant)
{
    GridFixture f(33);
    va::HierarchyCut cut(f.trace);
    viva::support::Rng rng(5);
    for (int op = 0; op < 10; ++op)
        cut.aggregate(
            vt::ContainerId(rng.index(f.trace.containerCount())));

    std::vector<va::MetricRequest> requests{
        va::MetricRequest(f.power, va::SpatialOp::Sum),
        va::MetricRequest(f.used, va::SpatialOp::Average,
                          va::TemporalOp::Max)};
    for (bool with_stats : {false, true}) {
        va::View v1 = va::buildView(f.trace, cut, {0.3, 2.9}, requests,
                                    with_stats, 1)
                            .value();
        va::View v8 = va::buildView(f.trace, cut, {0.3, 2.9}, requests,
                                    with_stats, 8)
                            .value();
        ASSERT_EQ(v1.nodes.size(), v8.nodes.size());
        ASSERT_EQ(v1.values.size(), v8.values.size());
        for (std::size_t i = 0; i < v1.nodes.size(); ++i) {
            ASSERT_EQ(v1.nodes[i].id, v8.nodes[i].id);
            ASSERT_EQ(v1.nodes[i].leafCount, v8.nodes[i].leafCount);
            for (std::size_t k = 0; k < requests.size(); ++k)
                ASSERT_EQ(v1.value(i, k), v8.value(i, k))
                    << "node " << i << " metric " << k;
        }
        ASSERT_EQ(v1.stats.size(), v8.stats.size());
        for (std::size_t c = 0; c < v1.stats.size(); ++c) {
            ASSERT_EQ(v1.stats[c].variance, v8.stats[c].variance);
            ASSERT_EQ(v1.stats[c].median, v8.stats[c].median);
            ASSERT_EQ(v1.stats[c].min, v8.stats[c].min);
            ASSERT_EQ(v1.stats[c].max, v8.stats[c].max);
        }
        ASSERT_EQ(v1.edges.size(), v8.edges.size());
    }
}

TEST(ParallelAggregation, WithStatsValuesAreBitwisePlainValues)
{
    // The root aggregate covers all 117 hosts, so its fold spans two
    // 64-carrier chunks: a sequential sum or a running mean over the
    // samples would differ from value() in the low bits.
    GridFixture f(34);
    va::HierarchyCut whole(f.trace);
    whole.aggregate(f.trace.root());
    va::HierarchyCut sites(f.trace);
    sites.aggregateToDepth(2);
    ASSERT_GT(f.trace.leavesUnder(f.trace.root()).size(), 64u);

    const va::TimeSlice slice{0.4, 3.7};
    for (const va::HierarchyCut *cut : {&whole, &sites}) {
        for (auto sop : {va::SpatialOp::Sum, va::SpatialOp::Average,
                         va::SpatialOp::Max, va::SpatialOp::Min}) {
            for (auto top :
                 {va::TemporalOp::Average, va::TemporalOp::Max,
                  va::TemporalOp::Min, va::TemporalOp::Integral}) {
                std::vector<va::MetricRequest> requests{
                    va::MetricRequest(f.used, sop, top),
                    va::MetricRequest(f.power, sop, top)};
                for (std::size_t threads : {1u, 4u}) {
                    va::View plain =
                        va::buildView(f.trace, *cut, slice, requests,
                                      false, threads)
                            .value();
                    va::View stats =
                        va::buildView(f.trace, *cut, slice, requests,
                                      true, threads)
                            .value();
                    ASSERT_EQ(plain.nodes.size(), stats.nodes.size());
                    for (std::size_t i = 0; i < plain.nodes.size();
                         ++i)
                        for (std::size_t k = 0; k < requests.size();
                             ++k)
                            ASSERT_EQ(plain.value(i, k),
                                      stats.value(i, k))
                                << "spatial " << int(sop)
                                << " temporal " << int(top)
                                << " threads " << threads << " node "
                                << i << " metric " << k;
                }
            }
        }
    }
}

TEST(ParallelAggregation, InlineFoldEqualsTheChunkedFoldBitwise)
{
    // Up to one 64-term chunk folds inline; 65 terms take the pool in
    // both, so the boundary is covered from both sides.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    viva::support::Rng rng(41);
    for (std::size_t n : {0u, 1u, 63u, 64u, 65u}) {
        // Finite terms, then NaN, +inf, -inf and both infinities
        // planted at the first, a middle and the last position.
        std::vector<std::vector<double>> cases;
        std::vector<double> finite(n);
        for (double &x : finite)
            x = rng.uniform(-1e3, 1e3);
        cases.push_back(finite);
        for (std::size_t at : {std::size_t(0), n / 2, n - 1}) {
            if (n == 0)
                break;
            for (double special : {nan, inf, -inf}) {
                cases.push_back(finite);
                cases.back()[at] = special;
            }
            cases.push_back(finite);
            cases.back()[at] = inf;
            cases.back()[(at + 1) % n] = -inf;
        }
        for (const std::vector<double> &terms : cases) {
            for (auto op : {va::SpatialOp::Sum, va::SpatialOp::Average,
                            va::SpatialOp::Max, va::SpatialOp::Min}) {
                for (std::size_t threads : {1u, 4u}) {
                    double inline_fold = va::spatialFold(terms, op, threads);
                    double chunked = va::chunkedFold(terms, op, threads);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(inline_fold),
                              std::bit_cast<std::uint64_t>(chunked))
                        << "n " << n << " op " << int(op) << " threads "
                        << threads << ": " << inline_fold << " vs "
                        << chunked;
                }
            }
        }
    }
}

// --- the session knob --------------------------------------------------------

TEST(ParallelSession, SetThreadsCommandAndStatus)
{
    GridFixture f(40);
    viva::app::Session sess(std::move(f.trace));
    viva::app::CommandInterpreter cli(sess);

    std::ostringstream out;
    EXPECT_TRUE(cli.execute("set threads 4", out));
    EXPECT_EQ(sess.threads(), 4u);
    EXPECT_EQ(sess.forceParams().threads, 4u);
    EXPECT_NE(out.str().find("threads = 4"), std::string::npos);

    out.str("");
    EXPECT_TRUE(cli.execute("status", out));
    EXPECT_NE(out.str().find("threads 4"), std::string::npos);
    EXPECT_NE(out.str().find("visible"), std::string::npos);

    out.str("");
    EXPECT_FALSE(cli.execute("set threads 0", out));
    EXPECT_FALSE(cli.execute("set threads x", out));
    EXPECT_FALSE(cli.execute("set sliders 2", out));
    EXPECT_EQ(sess.threads(), 4u);  // unchanged by the rejects
}

TEST(ParallelSession, ViewIdenticalAcrossThreadSettings)
{
    auto values_with = [](std::size_t threads) {
        GridFixture f(41);
        viva::app::Session sess(std::move(f.trace));
        sess.setThreads(threads);
        sess.aggregateToDepth(2);
        va::View v = sess.view(/*with_stats=*/true);
        return v.values;
    };
    auto v1 = values_with(1);
    auto v8 = values_with(8);
    ASSERT_EQ(v1.size(), v8.size());
    for (std::size_t i = 0; i < v1.size(); ++i)
        ASSERT_EQ(v1[i], v8[i]);
}
