/**
 * @file
 * Differential tests of the slice-query index (indexed vs linear-scan
 * temporal reductions) and of the hierarchy closure behind the
 * parallel Equation-1 fold: integrals must agree with the reference
 * scans to 1e-12 relative error, extrema bit for bit; every mutation
 * made before freeze() must reach the index and the closure; a
 * copied trace must aggregate exactly like its original; and the
 * carrier-ordered store must fold, look up and copy exactly like the
 * variables it was frozen from.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "support/obs.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/trace.hh"
#include "trace/variable.hh"

#include "scan_oracle.hh"

namespace va = viva::agg;
namespace vt = viva::trace;

using vt::testing::integrateScan;
using vt::testing::maxOverScan;
using vt::testing::minOverScan;

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

/** The bits of a double: tells -0.0 from 0.0 where == does not. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Every reduction, indexed vs scan, on one slice. */
void
expectAllOpsAgree(const vt::Variable &v, double a, double b)
{
    ASSERT_TRUE(v.frozen());
    EXPECT_LE(relErr(v.integrate(a, b), integrateScan(v, a, b)), kTol)
        << "integrate over [" << a << ", " << b << ")";
    EXPECT_EQ(bits(v.maxOver(a, b)), bits(maxOverScan(v, a, b)))
        << "maxOver over [" << a << ", " << b << ") of "
        << v.pointCount() << " points";
    EXPECT_EQ(bits(v.minOver(a, b)), bits(minOverScan(v, a, b)))
        << "minOver over [" << a << ", " << b << ") of "
        << v.pointCount() << " points";
    // average = integrate / width, so it inherits the integral bound;
    // check it anyway because it is the Equation-1 default.
    double width = b - a;
    if (width > 0.0) {
        EXPECT_LE(relErr(v.average(a, b), integrateScan(v, a, b) / width),
                  kTol);
    }
}

/** Points per block of the slice index's max/min decomposition. */
constexpr std::size_t kBlock = 32;

/**
 * Slices of every shape the block decomposition distinguishes: inside
 * one block, across two adjacent blocks, over many blocks, on and
 * between change points, and outside the points altogether.
 */
std::vector<std::pair<double, double>>
blockSlices(const vt::Variable &v, viva::support::Rng &rng)
{
    const auto &pts = v.changePoints();
    const std::size_t n = pts.size();
    std::vector<std::pair<double, double>> out{{-10.0, -5.0},
                                               {-10.0, 1e9},
                                               {1e9, 2e9}};
    if (n == 0)
        return out;
    auto at = [&](std::size_t i) { return pts[std::min(i, n - 1)].time; };
    auto between = [&](std::size_t i) {
        return i + 1 < n ? 0.5 * (pts[i].time + pts[i + 1].time)
                         : pts[n - 1].time + 1.0;
    };
    for (int round = 0; round < 40; ++round) {
        std::size_t i = std::size_t(rng.uniform(0.0, double(n)));
        i = std::min(i, n - 1);
        std::size_t block_end = (i / kBlock + 1) * kBlock - 1;
        std::size_t j = i + std::size_t(rng.uniform(0.0, double(kBlock)));
        out.push_back({at(i), at(std::min(j, block_end))});  // one block
        out.push_back({between(i), between(std::min(j, block_end))});
        out.push_back({at(i), at(block_end + 1 + (j - i))});  // adjacent
        out.push_back({between(i), between(block_end + 1 + (j - i))});
        out.push_back({at(i % kBlock), at(n - 1 - i % kBlock)});  // many
        out.push_back({between(i % kBlock), at(n - 1) + 5.0});
        out.push_back({at(0) - 3.0, between(i)});  // from before the points
    }
    for (auto &[a, b] : out)
        if (a > b)
            std::swap(a, b);
    return out;
}

} // namespace

// --- indexed vs scan, per TemporalOp --------------------------------------

TEST(AggIndexDifferential, RandomSlicesAllOpsAgree)
{
    vt::Variable v = randomVariable(500, 1);
    v.freeze();
    ASSERT_TRUE(v.indexConsistent());

    viva::support::Rng rng(2);
    double span = v.lastTime() - v.firstTime();
    for (int i = 0; i < 400; ++i) {
        double a = rng.uniform(v.firstTime() - 0.1 * span,
                               v.lastTime() + 0.1 * span);
        double b = a + rng.uniform(0.0, 0.5 * span);
        expectAllOpsAgree(v, a, b);
    }

    // Block boundaries of the max/min decomposition: point counts on
    // either side of one and two blocks, then random sizes, each with
    // plain values and with values drawn from a set full of ties
    // (-0.0 against 0.0 included) that only a left-to-right pick
    // resolves as the scan does.
    std::vector<std::size_t> sizes{0,          1,          kBlock - 1,
                                   kBlock,     kBlock + 1, 2 * kBlock + 1};
    for (int extra = 0; extra < 8; ++extra)
        sizes.push_back(std::size_t(rng.uniform(2.0, 4000.0)));
    const double ties[] = {-1.0, -0.0, 0.0, 1.0};
    for (std::size_t n : sizes) {
        for (bool tied : {false, true}) {
            vt::Variable w = randomVariable(n, 100 + n);
            if (tied) {
                vt::Variable t;
                for (const auto &p : w.changePoints())
                    t.set(p.time, ties[std::size_t(rng.uniform(0.0, 4.0)) % 4]);
                w = t;
            }
            w.freeze();
            ASSERT_TRUE(w.indexConsistent());
            for (const auto &[a, b] : blockSlices(w, rng))
                expectAllOpsAgree(w, a, b);
        }
    }
}

TEST(AggIndexDifferential, TinySlicesDeepIntoTheTrace)
{
    // The cancellation stress: a slice much narrower than the prefix
    // integral it would naively be computed from.
    vt::Variable v = randomVariable(2000, 3);
    v.freeze();
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
    v.freeze();
    const auto &pts = v.changePoints();
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = i; j < pts.size(); j += 7)
            expectAllOpsAgree(v, pts[i].time, pts[j].time);
}

TEST(AggIndexDifferential, EmptyVariable)
{
    vt::Variable v;
    v.freeze();
    EXPECT_TRUE(v.frozen());
    expectAllOpsAgree(v, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(v.average(0.0, 10.0), 0.0);
}

TEST(AggIndexDifferential, SinglePointVariable)
{
    vt::Variable v;
    v.set(5.0, 42.0);
    v.freeze();
    expectAllOpsAgree(v, 0.0, 4.0);    // entirely before
    expectAllOpsAgree(v, 6.0, 9.0);    // entirely after the point
    expectAllOpsAgree(v, 0.0, 10.0);   // spanning
    EXPECT_DOUBLE_EQ(v.integrate(5.0, 7.0), 84.0);
}

TEST(AggIndexDifferential, DegenerateAndOutOfRangeSlices)
{
    vt::Variable v = randomVariable(100, 6);
    v.freeze();
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

// --- what freeze() indexes -------------------------------------------------
// A frozen index cannot go stale: every mutator aborts on a frozen
// variable (TraceDeath.FrozenVariableRefusesMutation). These check the
// other half: every mutation made before freeze() reaches the index.

TEST(AggIndexDifferential, SetInvalidatesTheIndex)
{
    vt::Variable v = randomVariable(50, 7);
    const auto &pts = v.changePoints();
    double mid = pts[pts.size() / 2].time;
    double before = pts[pts.size() / 2 - 1].time;
    v.set(1e6, 3.0);                          // past the last point
    v.set(mid, 1e3);                          // replaces a point
    v.set(0.5 * (before + mid), -1e3);        // inserted out of order
    v.freeze();
    ASSERT_TRUE(v.frozen());
    EXPECT_TRUE(v.indexConsistent());
    EXPECT_EQ(v.pointCount(), 52u);
    EXPECT_EQ(v.maxOver(0.0, 2e6), 1e3);
    EXPECT_EQ(v.minOver(0.0, 2e6), -1e3);
    EXPECT_EQ(v.maxOver(1e6, 2e6), 3.0);
    EXPECT_EQ(v.minOver(1e6, 2e6), 3.0);
    expectAllOpsAgree(v, 0.0, 2e6);
    expectAllOpsAgree(v, before, mid);
    expectAllOpsAgree(v, mid, 1e6 + 1.0);
}

TEST(AggIndexDifferential, AddAndCompactInvalidate)
{
    vt::Variable v;
    v.set(0.0, 5.0);
    v.set(1.0, 5.0);  // redundant: compact() removes it
    v.add(2.0, 1.0);
    EXPECT_EQ(v.compact(), 1u);
    v.freeze();
    ASSERT_TRUE(v.frozen());
    EXPECT_TRUE(v.indexConsistent());
    EXPECT_EQ(v.pointCount(), 2u);
    EXPECT_EQ(v.maxOver(0.0, 3.0), 6.0);
    EXPECT_EQ(v.minOver(0.0, 3.0), 5.0);
    EXPECT_EQ(v.integrate(0.0, 3.0), 16.0);
    expectAllOpsAgree(v, 0.0, 3.0);
    expectAllOpsAgree(v, 0.5, 2.5);
    expectAllOpsAgree(v, 2.0, 10.0);
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

        trace = b.take();  // take() freezes
    }
};

} // namespace

TEST(ClosureCache, BuilderTakeBuildsAcceleration)
{
    ClosureFixture f;
    EXPECT_TRUE(f.trace.frozen());
    const vt::Variable *v = f.trace.findVariable(f.h1, f.power);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->frozen());
    EXPECT_TRUE(f.trace.auditInvariants().empty());
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
        std::span<const vt::Variable> cached =
            f.trace.carriers(id, f.power);
        ASSERT_EQ(cached.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(&cached[i], fresh[i]);
        // A metric nobody carries has an empty list everywhere.
        EXPECT_TRUE(f.trace.carriers(id, f.idle).empty());
    }
}

TEST(ClosureCache, MutationInvalidatesAndFallbackStaysCorrect)
{
    // A frozen closure cannot go stale: every mutator aborts on a
    // frozen trace (TraceDeath.FrozenTraceRefusesEveryMutator). A
    // mutation made before freeze() reaches the answers, and a plain
    // copy of the frozen trace gives the same ones.
    vt::Trace t;
    vt::ContainerId s = t.addContainer("s", vt::ContainerKind::Site,
                                       t.root());
    vt::ContainerId h1 = t.addContainer("h1", vt::ContainerKind::Host, s);
    vt::ContainerId h2 = t.addContainer("h2", vt::ContainerKind::Host, s);
    vt::MetricId power = t.addMetric("power", "MFlops",
                                     vt::MetricNature::Capacity);
    t.variable(h1, power).set(0.0, 10.0);
    t.variable(h2, power).set(0.0, 20.0);
    t.variable(h1, power).set(10.0, 50.0);
    t.freeze();

    const vt::Trace copy = t;
    va::Aggregator agg(t);
    va::Aggregator copied(copy);
    va::TimeSlice before{0.0, 10.0}, after{10.0, 20.0};
    EXPECT_DOUBLE_EQ(agg.value(t.root(), power, before), 30.0);
    EXPECT_DOUBLE_EQ(agg.value(t.root(), power, after), 70.0);
    EXPECT_DOUBLE_EQ(agg.value(h1, power, after), 50.0);
    EXPECT_EQ(copied.value(copy.root(), power, before),
              agg.value(t.root(), power, before));
    EXPECT_EQ(copied.value(copy.root(), power, after),
              agg.value(t.root(), power, after));
}

TEST(ClosureCache, EveryMutatorBumpsTheVersion)
{
    // The effect of every mutator called before freeze() reaches the
    // frozen closure and the audit.
    vt::TraceBuilder b;
    vt::Trace &t = b.trace();
    vt::ContainerId s = t.addContainer("s", vt::ContainerKind::Site,
                                       t.root());
    vt::ContainerId h1 = t.addContainer("h1", vt::ContainerKind::Host, s);
    vt::MetricId power = t.addMetric("power", "MFlops",
                                     vt::MetricNature::Capacity);
    t.variable(h1, power).set(0.0, 1.0);

    vt::ContainerId h2 = t.addContainer("h2", vt::ContainerKind::Host, s);
    vt::MetricId load = t.addMetric("load", "ratio",
                                    vt::MetricNature::Gauge);
    t.variable(h2, load).set(0.0, 0.5);
    t.variable(h2, power).set(1.0, 2.0);
    t.addRelation(h1, h2);
    t.addState(h1, 0.0, 1.0, "run");

    vt::Trace frozen = b.take();
    ASSERT_TRUE(frozen.frozen());
    EXPECT_TRUE(frozen.auditInvariants().empty());
    EXPECT_EQ(frozen.cachedSubtree(s).size(), 3u);
    ASSERT_EQ(frozen.carriers(s, power).size(), 2u);
    EXPECT_EQ(&frozen.carriers(s, power)[1],
              frozen.findVariable(h2, power));
    ASSERT_EQ(frozen.carriers(s, load).size(), 1u);
    EXPECT_EQ(&frozen.carriers(s, load)[0], frozen.findVariable(h2, load));
    EXPECT_TRUE(frozen.carriers(h1, load).empty());
    EXPECT_EQ(frozen.relations().size(), 1u);
    EXPECT_EQ(frozen.states().size(), 1u);
}

namespace
{

const va::TemporalOp kTemporalOps[] = {
    va::TemporalOp::Average, va::TemporalOp::Max, va::TemporalOp::Min,
    va::TemporalOp::Integral};

} // namespace

TEST(ClosureCache, CachedAndFallbackAggregationsAgreeOnAllOps)
{
    // The store take() built against a plain copy of it, which holds
    // its own variables: every aggregate must be bitwise equal.
    ClosureFixture f;
    const vt::Trace copy = f.trace;
    ASSERT_TRUE(copy.frozen());
    EXPECT_TRUE(copy.auditInvariants().empty());
    ASSERT_EQ(copy.carriers(copy.root(), f.power).size(), 4u);
    EXPECT_EQ(&copy.carriers(copy.root(), f.power)[0],
              copy.findVariable(f.h1, f.power));
    EXPECT_NE(&copy.carriers(copy.root(), f.power)[0],
              f.trace.findVariable(f.h1, f.power));

    va::Aggregator original(f.trace);
    va::Aggregator copied(copy);
    va::TimeSlice slice{2.0, 8.0};
    const va::SpatialOp sops[] = {va::SpatialOp::Sum,
                                  va::SpatialOp::Average,
                                  va::SpatialOp::Max, va::SpatialOp::Min};
    for (vt::ContainerId node : {f.trace.root(), f.s1, f.s2, f.h3})
        for (va::TemporalOp t : kTemporalOps)
            for (va::SpatialOp s : sops)
                EXPECT_EQ(original.value(node, f.power, slice, s, t),
                          copied.value(node, f.power, slice, s, t))
                    << "spatial " << int(s) << " temporal " << int(t);
}

TEST(ClosureCache, DistributionAgreesCachedAndStale)
{
    // As above, for the per-carrier distributions behind the spatial ops.
    ClosureFixture f;
    const vt::Trace copy = f.trace;
    va::Aggregator original(f.trace);
    va::Aggregator copied(copy);
    va::TimeSlice slice{0.0, 10.0};
    for (vt::ContainerId node : {f.trace.root(), f.s1, f.s2, f.h3}) {
        for (va::TemporalOp t : kTemporalOps) {
            viva::support::Samples a =
                original.distribution(node, f.power, slice, t);
            viva::support::Samples b =
                copied.distribution(node, f.power, slice, t);
            ASSERT_EQ(a.count(), b.count());
            if (node == f.trace.root()) {
                EXPECT_EQ(a.count(), 4u);
            }
            for (std::size_t i = 0; i < a.count(); ++i)
                EXPECT_EQ(a.data()[i], b.data()[i]);
        }
    }
}

// --- the carrier-ordered variable store ------------------------------------

namespace
{

/**
 * A random grid (3 sites x 3 clusters x 30 hosts) with three metrics:
 * power on most hosts with up to 100 points, so slices cross 32-point
 * blocks and the root and site folds run over more than one 64-carrier
 * chunk; load on some clusters and hosts; "idle" on nobody. A variable
 * drawn with no point is created and left empty. Values are
 * non-negative, so no fold cancels and a relative tolerance holds.
 */
vt::Trace
randomGrid(std::uint64_t seed)
{
    viva::support::Rng rng(seed);
    vt::Trace t;
    vt::MetricId power =
        t.addMetric("power", "MFlops", vt::MetricNature::Capacity);
    vt::MetricId load = t.addMetric("load", "ratio", vt::MetricNature::Gauge);
    t.addMetric("idle", "ratio", vt::MetricNature::Gauge);
    auto fill = [&](vt::ContainerId c, vt::MetricId m, std::int64_t n) {
        vt::Variable &v = t.variable(c, m);
        double time = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
            time += rng.uniform(0.01, 2.0);
            v.set(time, rng.uniform(0.0, 100.0));
        }
    };
    for (int s = 0; s < 3; ++s) {
        vt::ContainerId site = t.addContainer(
            "s" + std::to_string(s), vt::ContainerKind::Site, t.root());
        for (int c = 0; c < 3; ++c) {
            vt::ContainerId cluster =
                t.addContainer("c" + std::to_string(c),
                               vt::ContainerKind::Cluster, site);
            if (rng.uniform() < 0.5)
                fill(cluster, load, rng.uniformInt(0, 40));
            for (int h = 0; h < 30; ++h) {
                vt::ContainerId host =
                    t.addContainer("h" + std::to_string(h),
                                   vt::ContainerKind::Host, cluster);
                double pick = rng.uniform();
                if (pick < 0.9)
                    fill(host, power, rng.uniformInt(0, 100));
                if (pick < 0.3)
                    fill(host, load, rng.uniformInt(1, 70));
            }
        }
    }
    return t;
}

/**
 * Slices of every shape: the span, outside it on either side, around
 * it, zero-width ones (at the span's ends, on a change point, at a
 * random time), ones whose bounds sit on 32-point block boundaries of
 * a long variable, and random ones.
 */
std::vector<va::TimeSlice>
storeSlices(const vt::Trace &t, viva::support::Rng &rng)
{
    const viva::support::Interval span = t.span();
    std::vector<va::TimeSlice> out{
        span,
        {span.begin - 10.0, span.begin - 1.0},
        {span.end + 1.0, span.end + 10.0},
        {span.begin - 1e6, span.end + 1e6},
        {span.begin, span.begin},
        {span.end, span.end},
        {span.end + 5.0, span.end + 5.0},
    };
    vt::MetricId power = t.findMetric("power");
    for (const vt::Variable &v : t.carriers(t.root(), power)) {
        std::span<const vt::Variable::Point> pts = v.changePoints();
        if (pts.size() <= 2 * kBlock)
            continue;
        for (std::size_t lo : {kBlock - 1, kBlock, kBlock + 1})
            for (std::size_t hi : {2 * kBlock - 1, 2 * kBlock})
                out.emplace_back(pts[lo].time, pts[hi].time);
        out.emplace_back(pts[0].time, pts[kBlock].time);
        out.emplace_back(pts[kBlock].time, pts[kBlock].time);
        break;
    }
    for (int i = 0; i < 16; ++i) {
        double a = rng.uniform(span.begin - 5.0, span.end + 5.0);
        double b = rng.uniform(span.begin - 5.0, span.end + 5.0);
        out.emplace_back(std::min(a, b), std::max(a, b));
    }
    return out;
}

/** One variable's temporal reduction, through its query. */
double
reduceQuery(const vt::Variable &v, const va::TimeSlice &s, va::TemporalOp op)
{
    switch (op) {
      case va::TemporalOp::Average: return v.average(s);
      case va::TemporalOp::Max: return v.maxOver(s.begin, s.end);
      case va::TemporalOp::Min: return v.minOver(s.begin, s.end);
      case va::TemporalOp::Integral: return v.integrate(s);
    }
    return 0.0;
}

/** The same reduction by the scan oracle (average and integral). */
double
reduceScan(const vt::Variable &v, const va::TimeSlice &s, va::TemporalOp op)
{
    if (op == va::TemporalOp::Integral)
        return integrateScan(v, s.begin, s.end);
    return s.begin == s.end ? v.valueAt(s.begin)
                            : integrateScan(v, s.begin, s.end) /
                                  (s.end - s.begin);
}

/** How often trace.closure.build has been recorded in this process. */
std::uint64_t
closureBuilds()
{
    for (const viva::support::obs::HistogramValue &h :
         viva::support::obs::Registry::global().snapshot().histograms)
        if (h.name == "trace.closure.build")
            return h.count;
    return 0;
}

const va::SpatialOp kSpatialOps[] = {va::SpatialOp::Sum,
                                     va::SpatialOp::Average,
                                     va::SpatialOp::Max, va::SpatialOp::Min};

} // namespace

TEST(CarrierStore, FoldEqualsPreorderFoldOfFoundVariables)
{
    for (std::uint64_t seed : {1u, 2u}) {
        vt::Trace trace = randomGrid(seed);
        trace.freeze();
        ASSERT_TRUE(trace.auditInvariants().empty());

        // Every container, every metric under every pair of operators.
        va::CutProjection every;
        for (vt::ContainerId c{0}; c.index() < trace.containerCount(); ++c)
            every.nodes.push_back(c);
        std::vector<va::MetricRequest> requests;
        for (vt::MetricId m{0}; m.index() < trace.metricCount(); ++m)
            for (va::SpatialOp s : kSpatialOps)
                for (va::TemporalOp t : kTemporalOps)
                    requests.emplace_back(m, s, t);
        const std::size_t k = requests.size();

        viva::support::Rng rng(seed);
        std::vector<double> values;
        for (const va::TimeSlice &slice : storeSlices(trace, rng)) {
            ASSERT_TRUE(
                va::foldValues(trace, every, slice, requests, values).ok());
            for (std::size_t i = 0; i < every.size(); ++i) {
                const std::vector<vt::ContainerId> members =
                    trace.subtree(every.nodes[i]);
                for (std::size_t j = 0; j < k; ++j) {
                    const va::MetricRequest &r = requests[j];
                    std::vector<double> terms;
                    std::vector<double> scans;
                    for (vt::ContainerId member : members) {
                        const vt::Variable *v =
                            trace.findVariable(member, r.metric);
                        if (!v || v->empty())
                            continue;
                        terms.push_back(reduceQuery(*v, slice, r.temporal));
                        scans.push_back(reduceScan(*v, slice, r.temporal));
                    }
                    const double got = values[i * k + j];
                    ASSERT_EQ(bits(got), bits(va::spatialFold(terms,
                                                              r.spatial)))
                        << "seed " << seed << " node " << every.nodes[i]
                        << " request " << j << " slice [" << slice.begin
                        << ", " << slice.end << ")";
                    if (r.temporal == va::TemporalOp::Average ||
                        r.temporal == va::TemporalOp::Integral) {
                        EXPECT_LE(relErr(got, va::spatialFold(scans,
                                                              r.spatial)),
                                  kTol)
                            << "node " << every.nodes[i] << " request "
                            << j;
                    }
                }
            }
        }
    }
}

TEST(CarrierStore, FrozenLookupsAgreeWithUnfrozen)
{
    const vt::Trace unfrozen = randomGrid(3);
    vt::Trace frozen = unfrozen;
    frozen.freeze();
    ASSERT_TRUE(frozen.auditInvariants().empty());
    EXPECT_EQ(frozen.variableCount(), unfrozen.variableCount());
    EXPECT_EQ(frozen.pointCount(), unfrozen.pointCount());
    EXPECT_EQ(frozen.span(), unfrozen.span());

    std::size_t never_set = 0;
    std::size_t empty = 0;
    for (vt::ContainerId c{0}; c.index() < unfrozen.containerCount(); ++c)
        for (vt::MetricId m{0}; m.index() < unfrozen.metricCount(); ++m) {
            const vt::Variable *u = unfrozen.findVariable(c, m);
            const vt::Variable *f = frozen.findVariable(c, m);
            EXPECT_EQ(frozen.hasVariable(c, m), unfrozen.hasVariable(c, m))
                << "container " << c << ", metric " << m;
            ASSERT_EQ(f == nullptr, u == nullptr)
                << "container " << c << ", metric " << m;
            if (!u) {
                ++never_set;
                continue;
            }
            empty += u->empty();
            EXPECT_TRUE(f->frozen());
            EXPECT_EQ(f->pointCount(), u->pointCount());
            EXPECT_TRUE(
                std::ranges::equal(f->changePoints(), u->changePoints()))
                << "container " << c << ", metric " << m;
        }
    EXPECT_GT(never_set, 0u);
    EXPECT_GT(empty, 0u);
    // Ids outside the trace find nothing, as in the hash map.
    EXPECT_EQ(frozen.findVariable(frozen.root(), vt::kNoMetric), nullptr);
    EXPECT_EQ(frozen.findVariable(vt::kNoContainer, vt::MetricId{0}),
              nullptr);
}

TEST(CarrierStore, CopyOfAFrozenTraceIsAPlainCopy)
{
    // The phase is live: a freeze records one closure build.
    vt::Trace original = randomGrid(4);
    std::uint64_t builds = closureBuilds();
    original.freeze();
    ASSERT_EQ(closureBuilds(), builds + 1);

    const vt::Trace copy = original;
    vt::Trace assigned;
    assigned = original;
    EXPECT_EQ(closureBuilds(), builds + 1);

    viva::support::Rng rng(4);
    const std::vector<va::TimeSlice> slices = storeSlices(original, rng);
    const vt::Trace *const others[] = {&copy, &assigned};
    for (const vt::Trace *other : others) {
        ASSERT_TRUE(other->frozen());
        EXPECT_TRUE(other->auditInvariants().empty());
        EXPECT_EQ(other->variableCount(), original.variableCount());
        va::Aggregator a(original);
        va::Aggregator b(*other);
        for (vt::ContainerId c{0}; c.index() < original.containerCount();
             ++c)
            for (vt::MetricId m{0}; m.index() < original.metricCount();
                 ++m) {
                const vt::Variable *v = original.findVariable(c, m);
                const vt::Variable *w = other->findVariable(c, m);
                ASSERT_EQ(v == nullptr, w == nullptr);
                if (v) {
                    EXPECT_NE(v, w);
                    EXPECT_TRUE(std::ranges::equal(v->changePoints(),
                                                   w->changePoints()));
                }
                EXPECT_EQ(other->carriers(c, m).size(),
                          original.carriers(c, m).size());
                for (const va::TimeSlice &slice : slices)
                    for (va::TemporalOp t : kTemporalOps)
                        EXPECT_EQ(bits(a.value(c, m, slice,
                                               va::SpatialOp::Sum, t)),
                                  bits(b.value(c, m, slice,
                                               va::SpatialOp::Sum, t)));
            }
    }
}
