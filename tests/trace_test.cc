/**
 * @file
 * Unit tests for viva::trace: variables, the container hierarchy,
 * metrics, relations, serialization and the builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "support/strings.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/trace.hh"
#include "trace/variable.hh"

namespace vp = viva::platform;
namespace vs = viva::support;
namespace vt = viva::trace;

// --- Variable ---------------------------------------------------------------

TEST(Variable, EmptyIsZeroEverywhere)
{
    vt::Variable v;
    EXPECT_TRUE(v.empty());
    EXPECT_DOUBLE_EQ(v.valueAt(0.0), 0.0);
    EXPECT_DOUBLE_EQ(v.valueAt(100.0), 0.0);
    v.freeze();
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 10.0), 0.0);
}

TEST(Variable, ValueHoldsUntilNextChange)
{
    vt::Variable v;
    v.set(1.0, 10.0);
    v.set(5.0, 20.0);
    EXPECT_DOUBLE_EQ(v.valueAt(0.5), 0.0);   // before first point
    EXPECT_DOUBLE_EQ(v.valueAt(1.0), 10.0);
    EXPECT_DOUBLE_EQ(v.valueAt(4.999), 10.0);
    EXPECT_DOUBLE_EQ(v.valueAt(5.0), 20.0);
    EXPECT_DOUBLE_EQ(v.valueAt(1000.0), 20.0);
}

TEST(Variable, SetAtSameTimeOverwrites)
{
    vt::Variable v;
    v.set(2.0, 5.0);
    v.set(2.0, 7.0);
    EXPECT_EQ(v.pointCount(), 1u);
    EXPECT_DOUBLE_EQ(v.valueAt(2.0), 7.0);
}

TEST(Variable, OutOfOrderInsert)
{
    vt::Variable v;
    v.set(10.0, 3.0);
    v.set(5.0, 1.0);
    v.set(7.5, 2.0);
    EXPECT_DOUBLE_EQ(v.valueAt(6.0), 1.0);
    EXPECT_DOUBLE_EQ(v.valueAt(8.0), 2.0);
    EXPECT_DOUBLE_EQ(v.valueAt(11.0), 3.0);
    EXPECT_EQ(v.pointCount(), 3u);
}

TEST(Variable, PushThenSortMatchesSequentialSets)
{
    // Shuffled times with repeats: sorting once must leave exactly the
    // points the same sequence of set() calls leaves, -0 vs 0 included.
    vs::Rng rng(5);
    std::vector<vt::Variable::Point> events;
    for (int i = 0; i < 500; ++i)
        events.push_back({double(rng.uniformInt(0, 120)) * 0.25,
                          double(rng.uniformInt(-3, 3))});
    events.push_back({0.0, 1.0});
    events.push_back({-0.0, 2.0});
    vt::Variable by_set;
    vt::Variable by_push;
    for (const vt::Variable::Point &e : events) {
        by_set.set(e.time, e.value);
        by_push.push(e.time, e.value);
    }
    by_push.sortPoints();
    ASSERT_EQ(by_push.pointCount(), by_set.pointCount());
    for (std::size_t i = 0; i < by_set.pointCount(); ++i) {
        const vt::Variable::Point &a = by_set.changePoints()[i];
        const vt::Variable::Point &b = by_push.changePoints()[i];
        EXPECT_EQ(vs::formatDouble(a.time), vs::formatDouble(b.time));
        EXPECT_EQ(vs::formatDouble(a.value), vs::formatDouble(b.value));
    }
}

TEST(Variable, PushReportsOrder)
{
    vt::Variable v;
    EXPECT_TRUE(v.push(1.0, 1.0));
    EXPECT_TRUE(v.push(2.0, 1.0));
    EXPECT_TRUE(v.push(2.0, 3.0));  // same time: replaces the value
    EXPECT_FALSE(v.push(1.5, 2.0));
    EXPECT_EQ(v.pointCount(), 3u);
    v.sortPoints();
    EXPECT_DOUBLE_EQ(v.valueAt(1.7), 2.0);
    EXPECT_DOUBLE_EQ(v.valueAt(2.0), 3.0);
}

TEST(Variable, AddIsRelative)
{
    vt::Variable v;
    v.set(0.0, 10.0);
    v.add(5.0, -3.0);
    v.add(5.0, -2.0);  // stacking at the same instant
    EXPECT_DOUBLE_EQ(v.valueAt(5.0), 5.0);
    EXPECT_DOUBLE_EQ(v.valueAt(4.0), 10.0);
}

TEST(Variable, IntegrateExactRectangles)
{
    vt::Variable v;
    v.set(0.0, 2.0);
    v.set(4.0, 6.0);
    v.set(8.0, 0.0);
    v.freeze();
    // [0,4): 2*4 = 8 ; [4,8): 6*4 = 24 ; [8,12): 0
    EXPECT_DOUBLE_EQ(v.integrate(0.0, 12.0), 32.0);
    EXPECT_DOUBLE_EQ(v.integrate(2.0, 6.0), 2.0 * 2 + 6.0 * 2);
    EXPECT_DOUBLE_EQ(v.integrate(5.0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(v.integrate(-4.0, 2.0), 2.0 * 2);  // zero before t=0
}

TEST(Variable, IntegrateIsAdditive)
{
    vt::Variable v;
    v.set(0.0, 1.0);
    v.set(1.5, 4.0);
    v.set(3.25, 2.5);
    v.set(9.0, 0.5);
    v.freeze();
    double whole = v.integrate(0.0, 12.0);
    double parts = v.integrate(0.0, 2.0) + v.integrate(2.0, 7.7) +
                   v.integrate(7.7, 12.0);
    EXPECT_NEAR(whole, parts, 1e-12);
}

TEST(Variable, AverageMatchesIntegral)
{
    vt::Variable v;
    v.set(0.0, 10.0);
    v.set(5.0, 0.0);
    v.freeze();
    EXPECT_DOUBLE_EQ(v.average(0.0, 10.0), 5.0);
    // Zero-length slice degenerates to the instantaneous value.
    EXPECT_DOUBLE_EQ(v.average(3.0, 3.0), 10.0);
}

TEST(Variable, MinMaxOverWindow)
{
    vt::Variable v;
    v.set(0.0, 5.0);
    v.set(2.0, 9.0);
    v.set(4.0, 1.0);
    v.freeze();
    EXPECT_DOUBLE_EQ(v.maxOver(0.0, 10.0), 9.0);
    EXPECT_DOUBLE_EQ(v.minOver(0.0, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(v.maxOver(0.0, 2.0), 5.0);  // change at 2 excluded
    EXPECT_DOUBLE_EQ(v.maxOver(2.5, 3.5), 9.0);
}

TEST(Variable, CompactRemovesRepeats)
{
    vt::Variable v;
    v.set(0.0, 1.0);
    v.set(1.0, 1.0);
    v.set(2.0, 2.0);
    v.set(3.0, 2.0);
    v.set(4.0, 1.0);
    EXPECT_EQ(v.compact(), 2u);
    EXPECT_EQ(v.pointCount(), 3u);
    EXPECT_DOUBLE_EQ(v.valueAt(1.5), 1.0);
    EXPECT_DOUBLE_EQ(v.valueAt(3.5), 2.0);
    EXPECT_DOUBLE_EQ(v.valueAt(4.5), 1.0);
}

TEST(Variable, FreezeSortsTrimsAndIndexes)
{
    vt::Variable by_set;
    vt::Variable by_push;
    for (double t : {4.0, 1.0, 3.0, 1.0, 2.0}) {
        by_set.set(t, t * 10.0);
        by_push.push(t, t * 10.0);
    }
    by_push.freeze();
    EXPECT_TRUE(by_push.frozen());
    EXPECT_TRUE(std::ranges::equal(by_push.changePoints(),
                                   by_set.changePoints()));
    EXPECT_EQ(by_push.changePoints().size(), by_push.pointCount());
    EXPECT_TRUE(by_push.indexConsistent());
    // A copy owns its own block; a moved-from variable is empty.
    vt::Variable copy = by_push;
    EXPECT_TRUE(copy.frozen());
    EXPECT_NE(copy.changePoints().data(), by_push.changePoints().data());
    EXPECT_TRUE(std::ranges::equal(copy.changePoints(),
                                   by_push.changePoints()));
    EXPECT_TRUE(copy.indexConsistent());
    vt::Variable moved = std::move(copy);
    EXPECT_TRUE(moved.indexConsistent());
    EXPECT_TRUE(copy.empty());
    EXPECT_FALSE(copy.frozen());
    by_push.freeze();  // idempotent
    EXPECT_DOUBLE_EQ(by_push.integrate(1.0, 3.0), 10.0 + 20.0);
    EXPECT_DOUBLE_EQ(by_push.maxOver(0.0, 3.5), 30.0);
}

TEST(Variable, FirstLastTime)
{
    vt::Variable v;
    v.set(3.0, 1.0);
    v.set(8.0, 2.0);
    EXPECT_DOUBLE_EQ(v.firstTime(), 3.0);
    EXPECT_DOUBLE_EQ(v.lastTime(), 8.0);
}

// --- Trace containers ------------------------------------------------------

TEST(Trace, RootExists)
{
    vt::Trace t;
    EXPECT_EQ(t.containerCount(), 1u);
    EXPECT_EQ(t.container(t.root()).kind, vt::ContainerKind::Root);
    EXPECT_EQ(t.container(t.root()).depth, 0);
}

TEST(Trace, HierarchyConstruction)
{
    vt::Trace t;
    auto site = t.addContainer("lyon", vt::ContainerKind::Site, t.root());
    auto cluster =
        t.addContainer("sagittaire", vt::ContainerKind::Cluster, site);
    auto host = t.addContainer("sagittaire-1", vt::ContainerKind::Host,
                               cluster);
    EXPECT_EQ(t.container(host).depth, 3);
    EXPECT_EQ(t.container(host).parent, cluster);
    EXPECT_EQ(t.fullName(host), "lyon/sagittaire/sagittaire-1");
    EXPECT_EQ(t.findByPath("lyon/sagittaire/sagittaire-1"), host);
    EXPECT_EQ(t.findByPath("lyon/nope"), vt::kNoContainer);
    EXPECT_EQ(t.findByPath(""), t.root());
    EXPECT_EQ(t.findChild(site, "sagittaire"), cluster);
    EXPECT_EQ(t.findChild(site, "x"), vt::kNoContainer);
}

TEST(Trace, FindByNameUniqueAndAmbiguous)
{
    vt::Trace t;
    auto a = t.addContainer("a", vt::ContainerKind::Site, t.root());
    auto b = t.addContainer("b", vt::ContainerKind::Site, t.root());
    t.addContainer("h", vt::ContainerKind::Host, a);
    EXPECT_EQ(t.findByName("h"), t.findByPath("a/h"));
    t.addContainer("h", vt::ContainerKind::Host, b);
    EXPECT_EQ(t.findByName("h"), vt::kNoContainer);  // ambiguous now
}

TEST(TraceDeath, DuplicateSiblingIsFatal)
{
    vt::Trace t;
    t.addContainer("x", vt::ContainerKind::Host, t.root());
    EXPECT_DEATH(t.addContainer("x", vt::ContainerKind::Host, t.root()),
                 "duplicate");
}

// Freezing: mutators abort on a frozen trace or variable, slice and
// closure queries on an unfrozen one.

TEST(TraceDeath, FrozenVariableRefusesMutation)
{
    vt::Variable v;
    v.set(1.0, 2.0);
    v.set(3.0, 4.0);
    v.freeze();
    EXPECT_DEATH(v.set(5.0, 1.0), "frozen variable");
    EXPECT_DEATH(v.push(5.0, 1.0), "frozen variable");
    EXPECT_DEATH(v.add(2.0, 1.0), "frozen variable");
    EXPECT_DEATH(v.sortPoints(), "frozen variable");
    EXPECT_DEATH(v.compact(), "frozen variable");
    EXPECT_EQ(v.pointCount(), 2u);
}

TEST(TraceDeath, FrozenTraceRefusesEveryMutator)
{
    vt::TraceBuilder b;
    vt::ContainerId h1 = b.host("h1");
    vt::ContainerId h2 = b.host("h2");
    vt::MetricId power = b.powerMetric();
    b.set(h1, "power", 0.0, 1.0);
    vt::Trace t = b.take();
    ASSERT_TRUE(t.frozen());
    EXPECT_DEATH(t.addContainer("h3", vt::ContainerKind::Host, t.root()),
                 "frozen trace");
    EXPECT_DEATH(t.addMetric("load", "ratio", vt::MetricNature::Gauge),
                 "frozen trace");
    EXPECT_DEATH(t.variable(h1, power), "frozen trace");
    EXPECT_DEATH(t.addRelation(h1, h2), "frozen trace");
    EXPECT_DEATH(t.addState(h1, 0.0, 1.0, "run"), "frozen trace");
    // A copy is frozen too.
    vt::Trace copy = t;
    EXPECT_TRUE(copy.frozen());
    EXPECT_DEATH(copy.variable(h2, power), "frozen trace");
}

TEST(TraceDeath, UnfrozenQueriesAreFatal)
{
    vt::Variable v;
    v.set(1.0, 2.0);
    EXPECT_DEATH((void)v.integrate(0.0, 2.0), "unfrozen variable");
    EXPECT_DEATH((void)v.average(0.0, 2.0), "unfrozen variable");
    EXPECT_DEATH((void)v.maxOver(0.0, 2.0), "unfrozen variable");
    EXPECT_DEATH((void)v.minOver(0.0, 2.0), "unfrozen variable");

    vt::Trace t;
    vt::ContainerId h = t.addContainer("h", vt::ContainerKind::Host, t.root());
    vt::MetricId m = t.addMetric("power", "MFlops",
                                 vt::MetricNature::Capacity);
    t.variable(h, m).set(0.0, 1.0);
    EXPECT_DEATH((void)t.carriers(t.root(), m), "unfrozen trace");
    EXPECT_DEATH((void)t.cachedSubtree(t.root()), "unfrozen trace");
    EXPECT_DEATH((void)t.leafCount(t.root()), "unfrozen trace");
    EXPECT_DEATH((void)t.incidentRelations(t.root()), "unfrozen trace");
    t.freeze();
    EXPECT_EQ(t.carriers(t.root(), m).size(), 1u);
    EXPECT_EQ(t.cachedSubtree(t.root()).size(), 2u);
}

TEST(Trace, SubtreeAndLeaves)
{
    vt::Trace t;
    auto s = t.addContainer("s", vt::ContainerKind::Site, t.root());
    auto c1 = t.addContainer("c1", vt::ContainerKind::Cluster, s);
    auto c2 = t.addContainer("c2", vt::ContainerKind::Cluster, s);
    auto h1 = t.addContainer("h1", vt::ContainerKind::Host, c1);
    auto h2 = t.addContainer("h2", vt::ContainerKind::Host, c1);
    auto h3 = t.addContainer("h3", vt::ContainerKind::Host, c2);

    auto sub = t.subtree(s);
    EXPECT_EQ(sub.size(), 6u);
    EXPECT_EQ(sub[0], s);  // preorder: s first

    auto leaves = t.leavesUnder(s);
    EXPECT_EQ(leaves, (std::vector<vt::ContainerId>{h1, h2, h3}));
    EXPECT_EQ(t.leavesUnder(h1),
              (std::vector<vt::ContainerId>{h1}));
}

TEST(Trace, AncestorQueries)
{
    vt::Trace t;
    auto s = t.addContainer("s", vt::ContainerKind::Site, t.root());
    auto c = t.addContainer("c", vt::ContainerKind::Cluster, s);
    auto h = t.addContainer("h", vt::ContainerKind::Host, c);
    EXPECT_TRUE(t.isAncestorOrSelf(s, h));
    EXPECT_TRUE(t.isAncestorOrSelf(h, h));
    EXPECT_FALSE(t.isAncestorOrSelf(h, s));
    EXPECT_EQ(t.ancestorAtDepth(h, 0), t.root());
    EXPECT_EQ(t.ancestorAtDepth(h, 1), s);
    EXPECT_EQ(t.ancestorAtDepth(h, 2), c);
    EXPECT_EQ(t.ancestorAtDepth(h, 3), h);
    EXPECT_EQ(t.ancestorAtDepth(h, 9), h);
}

TEST(Trace, ContainersOfKind)
{
    vt::Trace t;
    auto s = t.addContainer("s", vt::ContainerKind::Site, t.root());
    t.addContainer("h1", vt::ContainerKind::Host, s);
    t.addContainer("l1", vt::ContainerKind::Link, s);
    t.addContainer("h2", vt::ContainerKind::Host, s);
    EXPECT_EQ(t.containersOfKind(vt::ContainerKind::Host).size(), 2u);
    EXPECT_EQ(t.containersOfKind(vt::ContainerKind::Link).size(), 1u);
    EXPECT_EQ(t.containersOfKind(vt::ContainerKind::Router).size(), 0u);
}

// --- metrics and variables ----------------------------------------------------

TEST(Trace, MetricRegistrationIsIdempotent)
{
    vt::Trace t;
    auto power = t.addMetric("power", "MFlops",
                             vt::MetricNature::Capacity);
    auto again = t.addMetric("power", "ignored",
                             vt::MetricNature::Gauge);
    EXPECT_EQ(power, again);
    EXPECT_EQ(t.metricCount(), 1u);
    EXPECT_EQ(t.metric(power).unit, "MFlops");
    EXPECT_EQ(t.metric(power).nature, vt::MetricNature::Capacity);
    EXPECT_EQ(t.findMetric("power"), power);
    EXPECT_EQ(t.findMetric("nope"), vt::kNoMetric);
}

TEST(Trace, UtilizationLinksToCapacity)
{
    vt::Trace t;
    auto cap = t.addMetric("bandwidth", "Mbit/s",
                           vt::MetricNature::Capacity);
    auto used = t.addMetric("bandwidth_used", "Mbit/s",
                            vt::MetricNature::Utilization, cap);
    EXPECT_EQ(t.metric(used).capacityOf, cap);
}

TEST(Trace, VariablesCreatedOnDemand)
{
    vt::Trace t;
    auto h = t.addContainer("h", vt::ContainerKind::Host, t.root());
    auto m = t.addMetric("power", "MFlops", vt::MetricNature::Capacity);
    EXPECT_EQ(t.findVariable(h, m), nullptr);
    EXPECT_FALSE(t.hasVariable(h, m));
    t.variable(h, m).set(0.0, 100.0);
    EXPECT_TRUE(t.hasVariable(h, m));
    EXPECT_DOUBLE_EQ(t.findVariable(h, m)->valueAt(1.0), 100.0);
    EXPECT_EQ(t.variableCount(), 1u);
    EXPECT_EQ(t.pointCount(), 1u);
}

// --- relations and states ---------------------------------------------------

TEST(Trace, RelationsDeduplicateAndIgnoreSelf)
{
    vt::Trace t;
    auto a = t.addContainer("a", vt::ContainerKind::Host, t.root());
    auto b = t.addContainer("b", vt::ContainerKind::Host, t.root());
    t.addRelation(a, b);
    t.addRelation(b, a);  // same undirected edge
    t.addRelation(a, a);  // self loop dropped
    EXPECT_EQ(t.relations().size(), 1u);
    EXPECT_EQ(t.neighbors(a), (std::vector<vt::ContainerId>{b}));
    EXPECT_EQ(t.neighbors(b), (std::vector<vt::ContainerId>{a}));
}

TEST(Trace, StatesRecorded)
{
    vt::Trace t;
    auto h = t.addContainer("h", vt::ContainerKind::Host, t.root());
    t.addState(h, 0.0, 2.0, "compute");
    t.addState(h, 2.0, 3.0, "wait");
    ASSERT_EQ(t.states().size(), 2u);
    EXPECT_EQ(t.states()[1].state, "wait");
}

TEST(Trace, SpanCoversVariablesAndStates)
{
    vt::Trace t;
    auto h = t.addContainer("h", vt::ContainerKind::Host, t.root());
    auto m = t.addMetric("power", "", vt::MetricNature::Capacity);
    t.variable(h, m).set(2.0, 1.0);
    t.variable(h, m).set(9.0, 2.0);
    t.addState(h, 0.5, 3.0, "s");
    EXPECT_DOUBLE_EQ(t.span().begin, 0.5);
    EXPECT_DOUBLE_EQ(t.span().end, 9.0);
}

// --- io ----------------------------------------------------------------------

TEST(TraceIo, RoundTrip)
{
    vt::Trace t = vt::makeFigure1Trace();
    std::ostringstream out;
    vt::writeTrace(t, out);

    std::istringstream in(out.str());
        auto back = vt::readTrace(in);
    ASSERT_TRUE(back.has_value()) << back.error().toString();

    EXPECT_EQ(back->containerCount(), t.containerCount());
    EXPECT_EQ(back->metricCount(), t.metricCount());
    EXPECT_EQ(back->relations().size(), t.relations().size());
    EXPECT_EQ(back->pointCount(), t.pointCount());

    // Identical serialization is the strongest round-trip check.
    std::ostringstream out2;
    vt::writeTrace(*back, out2);
    EXPECT_EQ(out.str(), out2.str());
}

TEST(TraceIo, NamesWithSpacesSurvive)
{
    vt::Trace t;
    auto h = t.addContainer("my host 1", vt::ContainerKind::Host,
                            t.root());
    auto m = t.addMetric("power used now", "MFlops",
                         vt::MetricNature::Gauge);
    t.variable(h, m).set(1.0, 2.0);
    t.addState(h, 0.0, 1.0, "waiting for data");

    std::ostringstream out;
    vt::writeTrace(t, out);
    std::istringstream in(out.str());
        auto back = vt::readTrace(in);
    ASSERT_TRUE(back.has_value()) << back.error().toString();
    EXPECT_NE(back->findByPath("my host 1"), vt::kNoContainer);
    EXPECT_NE(back->findMetric("power used now"), vt::kNoMetric);
    EXPECT_EQ(back->states()[0].state, "waiting for data");
}

TEST(TraceIo, RejectsMissingHeader)
{
    std::istringstream in("container 1 - host h\n");
    auto result = vt::readTrace(in);
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().toString().find("header"),
              std::string::npos);
}

TEST(TraceIo, RejectsBadParent)
{
    std::istringstream in("viva-trace 1\ncontainer 1 99 host h\n");
    auto result = vt::readTrace(in);
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().toString().find("parent"),
              std::string::npos);
}

TEST(TraceIo, RejectsUnknownVerb)
{
    std::istringstream in("viva-trace 1\nfrobnicate 1 2\n");
        EXPECT_FALSE(vt::readTrace(in).has_value());
}

TEST(TraceIo, RejectsPointWithUnknownIds)
{
    std::istringstream in("viva-trace 1\np 5 0 0 1\n");
    EXPECT_FALSE(vt::readTrace(in).has_value());
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::istringstream in(
        "viva-trace 1\n\n# a comment\ncontainer 1 - host h\n");
        auto t = vt::readTrace(in);
    ASSERT_TRUE(t.has_value()) << t.error().toString();
    EXPECT_EQ(t->containerCount(), 2u);
}

namespace
{

std::string
serialized(const vt::Trace &t)
{
    std::ostringstream out;
    vt::writeTrace(t, out);
    return out.str();
}

vt::Trace
parsed(const std::string &text)
{
    std::istringstream in(text);
    auto back = vt::readTrace(in);
    EXPECT_TRUE(back.has_value()) << back.error().toString();
    return back ? std::move(*back) : vt::Trace();
}

/**
 * The trace of a short simulation on `plat`: every host computes one
 * or two seeded jobs, and every tenth host also sends to a seeded peer,
 * so hosts and links carry simulated change points.
 */
vt::Trace
simulatedTrace(const vp::Platform &plat, std::uint64_t seed)
{
    vs::Rng rng(seed);
    viva::sim::SimulationRun run(plat);
    for (vp::HostId h{0}; h.index() < plat.hostCount(); ++h) {
        std::int64_t jobs = rng.uniformInt(1, 2);
        for (std::int64_t j = 0; j < jobs; ++j) {
            double start = 5.0 * double(rng.uniformInt(0, 5));
            double mflop =
                plat.host(h).powerMflops * double(rng.uniformInt(1, 8));
            run.engine.at(start, [&run, h, mflop] {
                run.engine.startCompute(h, mflop, [] {});
            });
        }
        if (h.index() % 10 == 0) {
            vp::HostId peer = vp::HostId::fromIndex(
                std::size_t(rng.index(plat.hostCount())));
            double start = 5.0 * double(rng.uniformInt(0, 5));
            run.engine.at(start, [&run, h, peer] {
                run.engine.startComm(h, peer, 200.0, [] {});
            });
        }
    }
    run.engine.run();
    EXPECT_TRUE(run.engine.idle());
    return std::move(run.trace);
}

/** The Grid'5000 and a small synthetic grid, with simulated points. */
std::vector<vt::Trace>
simulatedTraces()
{
    vs::Rng rng(41);
    std::vector<vt::Trace> out;
    out.push_back(simulatedTrace(vp::makeGrid5000(), 7));
    out.push_back(simulatedTrace(vp::makeSyntheticGrid(3, 4, 25, rng), 8));
    return out;
}

/** The trace's point lines, and everything else, in file order. */
void
splitPointLines(const std::string &text, std::vector<std::string> &other,
                std::vector<std::string> &points)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        (line.rfind("p ", 0) == 0 ? points : other).push_back(line);
}

std::string
joinLines(const std::vector<std::string> &a,
          const std::vector<std::string> &b)
{
    std::string out;
    for (const std::vector<std::string> *part : {&a, &b})
        for (const std::string &line : *part)
            out += line + "\n";
    return out;
}

} // namespace

TEST(TraceIo, SimulatedTracesRoundTripByteForByte)
{
    for (const vt::Trace &t : simulatedTraces()) {
        ASSERT_GT(t.pointCount(), 1000u);
        std::string text = serialized(t);
        vt::Trace back = parsed(text);
        EXPECT_EQ(serialized(back), text);
        EXPECT_TRUE(back.auditInvariants().empty());
    }
}

TEST(TraceIo, OutOfOrderPointsLoadLikeSortedOnes)
{
    for (const vt::Trace &t : simulatedTraces()) {
        std::string text = serialized(t);
        std::vector<std::string> other;
        std::vector<std::string> points;
        splitPointLines(text, other, points);

        // Every variable's points in descending time.
        std::vector<std::string> reversed(points.rbegin(), points.rend());
        EXPECT_EQ(serialized(parsed(joinLines(other, reversed))), text);

        // Shuffled, each point preceded somewhere by a decoy at the same
        // time whose value the real point overwrites.
        std::vector<std::pair<std::string, std::size_t>> lines;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::string decoy =
                points[i].substr(0, points[i].rfind(' ') + 1) + "12345.5";
            lines.push_back({decoy, 2 * i});
            lines.push_back({points[i], 2 * i + 1});
        }
        vs::Rng rng(3);
        rng.shuffle(lines);
        // Put each decoy/real pair back in file order.
        std::vector<std::size_t> where(lines.size());
        for (std::size_t slot = 0; slot < lines.size(); ++slot)
            where[lines[slot].second] = slot;
        for (std::size_t i = 0; i < points.size(); ++i)
            if (where[2 * i] > where[2 * i + 1])
                std::swap(lines[where[2 * i]], lines[where[2 * i + 1]]);
        std::vector<std::string> shuffled;
        for (const auto &line : lines)
            shuffled.push_back(line.first);
        EXPECT_EQ(serialized(parsed(joinLines(other, shuffled))), text);
    }
}

TEST(TraceClosure, CarriersEqualTheirRecomputation)
{
    for (vt::Trace &t : simulatedTraces()) {
        t.freeze();
        for (vt::ContainerId c{0}; c.index() < t.containerCount(); ++c)
            for (vt::MetricId m{0}; m.index() < t.metricCount(); ++m) {
                std::span<const vt::Variable> cached = t.carriers(c, m);
                std::vector<const vt::Variable *> fresh;
                for (vt::ContainerId member : t.subtree(c))
                    if (t.hasVariable(member, m))
                        fresh.push_back(t.findVariable(member, m));
                ASSERT_TRUE(std::ranges::equal(
                    cached, fresh, {},
                    [](const vt::Variable &v) { return &v; }))
                    << "container " << c << ", metric " << m;
            }
    }
}

TEST(Trace, FrozenIncidenceAndLeafCounts)
{
    // A random tree, with relations between any two containers (a
    // container-to-itself one is dropped by addRelation, so it must be
    // listed nowhere).
    vs::Rng rng(5);
    vt::Trace copy;
    {
        vt::Trace t;
        for (int i = 0; i < 60; ++i)
            t.addContainer("c" + std::to_string(i), vt::ContainerKind::Custom,
                           vt::ContainerId::fromIndex(
                               rng.index(t.containerCount())));
        for (int i = 0; i < 120; ++i) {
            vt::ContainerId a =
                vt::ContainerId::fromIndex(rng.index(t.containerCount()));
            t.addRelation(a, i % 10 == 0 ? a
                                         : vt::ContainerId::fromIndex(
                                               rng.index(t.containerCount())));
        }
        t.freeze();
        ASSERT_TRUE(t.auditInvariants().empty());
        copy = t;
    }
    // The copy outlives the original and carries both indexes.
    const vt::Trace &t = copy;
    ASSERT_TRUE(t.frozen());
    const std::vector<vt::Trace::Relation> &rels = t.relations();
    for (vt::ContainerId c{0}; c.index() < t.containerCount(); ++c) {
        std::vector<std::uint32_t> incident;
        for (std::uint32_t ri = 0; ri < rels.size(); ++ri)
            if (rels[ri].a == c || rels[ri].b == c)
                incident.push_back(ri);
        std::span<const std::uint32_t> row = t.incidentRelations(c);
        EXPECT_TRUE(std::ranges::equal(row, incident)) << "container " << c;

        std::vector<std::uint32_t> below;
        std::size_t leaves = 0;
        for (vt::ContainerId d : t.cachedSubtree(c)) {
            std::span<const std::uint32_t> r = t.incidentRelations(d);
            below.insert(below.end(), r.begin(), r.end());
            leaves += t.container(d).leaf() ? 1 : 0;
        }
        EXPECT_TRUE(std::ranges::equal(t.subtreeIncidence(c), below))
            << "container " << c;
        EXPECT_EQ(t.leafCount(c), leaves) << "container " << c;
    }
    EXPECT_EQ(t.subtreeIncidence(t.root()).size(), 2 * rels.size());
}

// --- builder -------------------------------------------------------------------

TEST(TraceBuilder, GroupNesting)
{
    vt::TraceBuilder b;
    b.beginGroup("site", vt::ContainerKind::Site);
    b.beginGroup("cluster", vt::ContainerKind::Cluster);
    auto h = b.host("h1");
    b.endGroup();
    b.endGroup();
    EXPECT_EQ(b.trace().fullName(h), "site/cluster/h1");
}

TEST(TraceBuilder, ConventionalMetrics)
{
    vt::TraceBuilder b;
    auto used = b.powerUsedMetric();
    auto power = b.powerMetric();
    EXPECT_EQ(b.trace().metric(used).capacityOf, power);
    EXPECT_EQ(b.trace().metric(used).nature,
              vt::MetricNature::Utilization);
}

TEST(Figure1Trace, MatchesThePaperScenario)
{
    vt::Trace t = vt::makeFigure1Trace();
    auto host_a = t.findByPath("HostA");
    auto host_b = t.findByPath("HostB");
    auto link_a = t.findByPath("LinkA");
    ASSERT_NE(host_a, vt::kNoContainer);
    ASSERT_NE(host_b, vt::kNoContainer);
    ASSERT_NE(link_a, vt::kNoContainer);

    auto power = t.findMetric("power");
    // Cursor A (t=1): HostA at 100, HostB at 25 (four-times smaller).
    EXPECT_DOUBLE_EQ(t.findVariable(host_a, power)->valueAt(1.0), 100.0);
    EXPECT_DOUBLE_EQ(t.findVariable(host_b, power)->valueAt(1.0), 25.0);
    // Cursor B (t=6): HostB (40) now bigger than HostA (10) -- Fig. 4 B.
    EXPECT_DOUBLE_EQ(t.findVariable(host_a, power)->valueAt(6.0), 10.0);
    EXPECT_DOUBLE_EQ(t.findVariable(host_b, power)->valueAt(6.0), 40.0);
    // The link is related to both hosts.
    EXPECT_EQ(t.neighbors(link_a).size(), 2u);
    EXPECT_DOUBLE_EQ(t.span().end, 12.0);
}
