/**
 * @file
 * Differential tests of the slice-query index (indexed vs linear-scan
 * temporal reductions) and of the hierarchy-closure cache behind the
 * parallel Equation-1 fold: the accelerated paths must agree with the
 * reference scans to 1e-12 relative error, and every mutating Trace
 * call must invalidate the caches so stale answers are impossible.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/trace.hh"
#include "trace/variable.hh"

namespace va = viva::agg;
namespace vt = viva::trace;

namespace
{

/** Relative error normalized the way the Equation-1 audit does. */
double
relErr(double a, double b)
{
    return std::fabs(a - b) /
           std::max({1.0, std::fabs(a), std::fabs(b)});
}

constexpr double kTol = 1e-12;

/** A variable with `n` random change points on [0, 100). */
vt::Variable
randomVariable(std::size_t n, std::uint64_t seed)
{
    viva::support::Rng rng(seed);
    vt::Variable v;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.uniform(0.01, 100.0 / double(n ? n : 1));
        v.set(t, rng.uniform(-50.0, 50.0));
    }
    return v;
}

/** Every reduction, indexed vs scan, on one slice. */
void
expectAllOpsAgree(const vt::Variable &v, double a, double b)
{
    ASSERT_TRUE(v.indexed());
    EXPECT_LE(relErr(v.integrate(a, b), v.integrateScan(a, b)), kTol)
        << "integrate over [" << a << ", " << b << ")";
    EXPECT_EQ(v.maxOver(a, b), v.maxOverScan(a, b))
        << "maxOver over [" << a << ", " << b << ")";
    EXPECT_EQ(v.minOver(a, b), v.minOverScan(a, b))
        << "minOver over [" << a << ", " << b << ")";
    // average = integrate / width, so it inherits the integral bound;
    // check it anyway because it is the Equation-1 default.
    double width = b - a;
    if (width > 0.0) {
        EXPECT_LE(relErr(v.average(a, b),
                         v.integrateScan(a, b) / width),
                  kTol);
    }
}

} // namespace

// --- indexed vs scan, per TemporalOp --------------------------------------

TEST(AggIndexDifferential, RandomSlicesAllOpsAgree)
{
    vt::Variable v = randomVariable(500, 1);
    v.buildIndex();
    ASSERT_TRUE(v.indexConsistent());

    viva::support::Rng rng(2);
    double span = v.lastTime() - v.firstTime();
    for (int i = 0; i < 400; ++i) {
        double a = rng.uniform(v.firstTime() - 0.1 * span,
                               v.lastTime() + 0.1 * span);
        double b = a + rng.uniform(0.0, 0.5 * span);
        expectAllOpsAgree(v, a, b);
    }
}

TEST(AggIndexDifferential, TinySlicesDeepIntoTheTrace)
{
    // The cancellation stress: a slice much narrower than the prefix
    // integral it would naively be computed from.
    vt::Variable v = randomVariable(2000, 3);
    v.buildIndex();
    viva::support::Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        double a = rng.uniform(v.firstTime(), v.lastTime());
        double b = a + rng.uniform(0.0, 1e-6);
        expectAllOpsAgree(v, a, b);
    }
}

TEST(AggIndexDifferential, SliceBoundariesOnChangePoints)
{
    vt::Variable v = randomVariable(64, 5);
    v.buildIndex();
    const auto &pts = v.changePoints();
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = i; j < pts.size(); j += 7)
            expectAllOpsAgree(v, pts[i].time, pts[j].time);
}

TEST(AggIndexDifferential, EmptyVariable)
{
    vt::Variable v;
    v.buildIndex();
    EXPECT_TRUE(v.indexed());
    expectAllOpsAgree(v, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(v.average(0.0, 10.0), 0.0);
}

TEST(AggIndexDifferential, SinglePointVariable)
{
    vt::Variable v;
    v.set(5.0, 42.0);
    v.buildIndex();
    expectAllOpsAgree(v, 0.0, 4.0);    // entirely before
    expectAllOpsAgree(v, 6.0, 9.0);    // entirely after the point
    expectAllOpsAgree(v, 0.0, 10.0);   // spanning
    EXPECT_DOUBLE_EQ(v.integrate(5.0, 7.0), 84.0);
}

TEST(AggIndexDifferential, DegenerateAndOutOfRangeSlices)
{
    vt::Variable v = randomVariable(100, 6);
    v.buildIndex();
    double lo = v.firstTime(), hi = v.lastTime();

    // Degenerate: a == b.
    expectAllOpsAgree(v, lo + 1.0, lo + 1.0);
    EXPECT_DOUBLE_EQ(v.integrate(lo + 1.0, lo + 1.0), 0.0);
    EXPECT_DOUBLE_EQ(v.average(lo + 1.0, lo + 1.0),
                     v.valueAt(lo + 1.0));

    // Entirely before the first point: the variable is 0 there.
    expectAllOpsAgree(v, lo - 20.0, lo - 10.0);
    EXPECT_DOUBLE_EQ(v.integrate(lo - 20.0, lo - 10.0), 0.0);

    // Entirely after the last point: the last value holds.
    expectAllOpsAgree(v, hi + 10.0, hi + 20.0);

    // Spanning far beyond both ends.
    expectAllOpsAgree(v, lo - 100.0, hi + 100.0);
}

// --- index invalidation ----------------------------------------------------

TEST(AggIndexDifferential, SetInvalidatesTheIndex)
{
    vt::Variable v = randomVariable(50, 7);
    v.buildIndex();
    ASSERT_TRUE(v.indexed());

    v.set(1e6, 3.0);
    EXPECT_FALSE(v.indexed());
    // Queries on a dirty index fall back to the scan -- identical by
    // construction, but assert the contract anyway.
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 2e6), v.integrateScan(0.0, 2e6));

    v.buildIndex();
    EXPECT_TRUE(v.indexed());
    EXPECT_TRUE(v.indexConsistent());
    expectAllOpsAgree(v, 0.0, 2e6);
}

TEST(AggIndexDifferential, AddAndCompactInvalidate)
{
    vt::Variable v;
    v.set(0.0, 5.0);
    v.set(1.0, 5.0);  // redundant: compact() removes it
    v.buildIndex();
    ASSERT_TRUE(v.indexed());

    v.add(2.0, 1.0);
    EXPECT_FALSE(v.indexed());
    v.buildIndex();
    ASSERT_TRUE(v.indexed());

    EXPECT_EQ(v.compact(), 1u);
    EXPECT_FALSE(v.indexed());
    v.buildIndex();
    EXPECT_TRUE(v.indexConsistent());
}

// --- the hierarchy-closure cache ------------------------------------------

namespace
{

/** Two sites of two hosts each, with power set on every host. */
struct ClosureFixture
{
    vt::Trace trace;
    vt::ContainerId s1, s2, h1, h2, h3, h4;
    vt::MetricId power;
    vt::MetricId idle;  ///< registered but carried by no container

    ClosureFixture()
    {
        vt::TraceBuilder b;
        power = b.powerMetric();
        b.beginGroup("s1", vt::ContainerKind::Site);
        s1 = b.currentGroup();
        h1 = b.host("h1");
        h2 = b.host("h2");
        b.endGroup();
        b.beginGroup("s2", vt::ContainerKind::Site);
        s2 = b.currentGroup();
        h3 = b.host("h3");
        h4 = b.host("h4");
        b.endGroup();

        vt::Trace &t = b.trace();
        idle = t.addMetric("idle", "ratio", vt::MetricNature::Gauge);
        t.variable(h1, power).set(0.0, 10.0);
        t.variable(h2, power).set(0.0, 20.0);
        t.variable(h3, power).set(0.0, 30.0);
        t.variable(h4, power).set(0.0, 40.0);
        t.variable(h1, power).set(10.0, 10.0);

        trace = b.take();  // take() builds the acceleration structures
    }
};

} // namespace

TEST(ClosureCache, BuilderTakeBuildsAcceleration)
{
    ClosureFixture f;
    EXPECT_TRUE(f.trace.closureFresh());
    const vt::Variable *v = f.trace.findVariable(f.h1, f.power);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->indexed());
}

TEST(ClosureCache, CachedSubtreeMatchesRecomputation)
{
    ClosureFixture f;
    for (vt::ContainerId id :
         {f.trace.root(), f.s1, f.s2, f.h1, f.h4}) {
        std::vector<vt::ContainerId> fresh = f.trace.subtree(id);
        std::span<const vt::ContainerId> cached =
            f.trace.cachedSubtree(id);
        ASSERT_EQ(cached.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(cached[i], fresh[i]);
    }
}

TEST(ClosureCache, CarriersMatchFindVariable)
{
    ClosureFixture f;
    for (vt::ContainerId id : {f.trace.root(), f.s1, f.s2, f.h2}) {
        std::vector<const vt::Variable *> fresh;
        for (vt::ContainerId member : f.trace.subtree(id))
            if (const vt::Variable *v =
                    f.trace.findVariable(member, f.power);
                v && !v->empty())
                fresh.push_back(v);
        std::span<const vt::Variable *const> cached =
            f.trace.carriers(id, f.power);
        ASSERT_EQ(cached.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(cached[i], fresh[i]);
        // A metric nobody carries has an empty list everywhere.
        EXPECT_TRUE(f.trace.carriers(id, f.idle).empty());
    }
}

TEST(ClosureCache, MutationInvalidatesAndFallbackStaysCorrect)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};

    ASSERT_TRUE(f.trace.closureFresh());
    double cached_total = agg.value(f.trace.root(), f.power, slice);
    EXPECT_DOUBLE_EQ(cached_total, 100.0);

    std::uint64_t before = f.trace.version();
    f.trace.variable(f.h1, f.power).set(10.0, 50.0);
    EXPECT_GT(f.trace.version(), before);
    EXPECT_FALSE(f.trace.closureFresh());

    // The stale-cache path answers from the recomputed carrier list --
    // same value for an unchanged slice.
    EXPECT_DOUBLE_EQ(agg.value(f.trace.root(), f.power, slice),
                     cached_total);

    // Rebuilding re-arms the cache and the answers still agree.
    f.trace.ensureQueryAcceleration();
    EXPECT_TRUE(f.trace.closureFresh());
    EXPECT_DOUBLE_EQ(agg.value(f.trace.root(), f.power, slice),
                     cached_total);
}

TEST(ClosureCache, EveryMutatorBumpsTheVersion)
{
    ClosureFixture f;
    std::uint64_t v = f.trace.version();

    vt::ContainerId extra = f.trace.addContainer(
        "h5", vt::ContainerKind::Host, f.s2);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.addRelation(f.h1, extra);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.addMetric("load", "ratio", vt::MetricNature::Gauge);
    EXPECT_GT(f.trace.version(), v);
    v = f.trace.version();

    f.trace.variable(extra, f.power);
    EXPECT_GT(f.trace.version(), v);
}

TEST(ClosureCache, CachedAndFallbackAggregationsAgreeOnAllOps)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{2.0, 8.0};

    const va::SpatialOp sops[] = {va::SpatialOp::Sum,
                                  va::SpatialOp::Average,
                                  va::SpatialOp::Max, va::SpatialOp::Min};
    const va::TemporalOp tops[] = {
        va::TemporalOp::Average, va::TemporalOp::Max, va::TemporalOp::Min,
        va::TemporalOp::Integral};

    // Compute once against the fresh closure, then dirty the trace (a
    // no-op mutation: variable() on an existing pair) and recompute via
    // the fallback. Bitwise equality is the contract: the cached fold
    // runs the same chunk decomposition over the same variable list.
    for (va::SpatialOp s : sops) {
        for (va::TemporalOp t : tops) {
            f.trace.ensureQueryAcceleration();
            ASSERT_TRUE(f.trace.closureFresh());
            double cached =
                agg.value(f.s1, f.power, slice, s, t);
            f.trace.variable(f.h2, f.power);  // bump: cache goes stale
            ASSERT_FALSE(f.trace.closureFresh());
            double fallback =
                agg.value(f.s1, f.power, slice, s, t);
            EXPECT_EQ(cached, fallback)
                << "spatial " << int(s) << " temporal " << int(t);
        }
    }
}

TEST(ClosureCache, DistributionAgreesCachedAndStale)
{
    ClosureFixture f;
    va::Aggregator agg(f.trace);
    va::TimeSlice slice{0.0, 10.0};

    f.trace.ensureQueryAcceleration();
    viva::support::Samples cached =
        agg.distribution(f.trace.root(), f.power, slice);
    f.trace.variable(f.h3, f.power);  // stale
    viva::support::Samples stale =
        agg.distribution(f.trace.root(), f.power, slice);
    ASSERT_EQ(cached.count(), stale.count());
    ASSERT_EQ(cached.count(), 4u);
    for (std::size_t i = 0; i < cached.count(); ++i)
        EXPECT_EQ(cached.data()[i], stale.data()[i]);
}
