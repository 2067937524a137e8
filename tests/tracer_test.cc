/**
 * @file
 * Tests for the simulation tracer: traces must contain exactly the
 * piecewise-constant utilization the engine produced, including per-tag
 * application metrics.
 */

#include <gtest/gtest.h>

#include "platform/platform.hh"
#include "sim/tracer.hh"

namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;

namespace
{

vp::Platform
makePair()
{
    vp::Platform p("t");
    auto s = p.addSite("s");
    auto h0 = p.addHost("h0", 1000.0, s);
    auto h1 = p.addHost("h1", 500.0, s);
    auto l = p.addLink("l", 100.0, 0.0, s);
    p.connect(p.host(h0).vertex, p.host(h1).vertex, l);
    return p;
}

} // namespace

TEST(Tracer, RecordsComputeUtilization)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    run.engine.startCompute(vp::HostId{0}, 2000.0, [] {});
    run.engine.run();
    run.trace.freeze();

    const vt::Variable *used = run.trace.findVariable(
        run.mirror.hostContainer[0], run.mirror.powerUsed);
    ASSERT_NE(used, nullptr);
    // 1000 MFlop/s over [0, 2), zero after.
    EXPECT_DOUBLE_EQ(used->valueAt(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(used->valueAt(2.5), 0.0);
    EXPECT_DOUBLE_EQ(used->integrate(0.0, 3.0), 2000.0);
}

TEST(Tracer, RecordsLinkUtilization)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    run.engine.startComm(vp::HostId{0}, vp::HostId{1}, 200.0, [] {});  // 2 s at 100 Mbit/s
    run.engine.run();
    run.trace.freeze();

    const vt::Variable *used = run.trace.findVariable(
        run.mirror.linkContainer[0], run.mirror.bandwidthUsed);
    ASSERT_NE(used, nullptr);
    EXPECT_DOUBLE_EQ(used->valueAt(1.0), 100.0);
    EXPECT_DOUBLE_EQ(used->valueAt(2.5), 0.0);
    // Integral equals the bits moved.
    EXPECT_NEAR(used->integrate(0.0, 3.0), 200.0, 1e-9);
}

TEST(Tracer, UtilizationNeverExceedsCapacity)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    for (int i = 0; i < 8; ++i)
        run.engine.startComm(vp::HostId{0}, vp::HostId{1}, 25.0, [] {});
    run.engine.run();
    run.trace.freeze();

    const vt::Variable *used = run.trace.findVariable(
        run.mirror.linkContainer[0], run.mirror.bandwidthUsed);
    ASSERT_NE(used, nullptr);
    for (const auto &pt : used->changePoints())
        EXPECT_LE(pt.value, 100.0 * (1 + 1e-9));
    EXPECT_DOUBLE_EQ(used->maxOver(0.0, 10.0), 100.0);  // saturated
}

TEST(Tracer, SkipsRepeatedValues)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    // Two identical back-to-back transfers: the rate stays 100 between
    // them only if they overlap; run them sequentially so it drops to 0
    // in between. Either way, h1's power_used never changes after the
    // initial 0 -> exactly one point for it.
    run.engine.startComm(vp::HostId{0}, vp::HostId{1}, 100.0, [] {});
    run.engine.run();
    run.trace.freeze();

    const vt::Variable *idle_host = run.trace.findVariable(
        run.mirror.hostContainer[1], run.mirror.powerUsed);
    ASSERT_NE(idle_host, nullptr);
    EXPECT_EQ(idle_host->pointCount(), 1u);  // just the initial zero
    EXPECT_DOUBLE_EQ(idle_host->valueAt(5.0), 0.0);
}

TEST(Tracer, PerTagMetricsEmitted)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p, {"cpu", "net"});
    run.engine.startCompute(vp::HostId{0}, 1000.0, [] {}, 1);
    run.engine.startCompute(vp::HostId{0}, 500.0, [] {}, 2);
    run.engine.run();
    run.trace.freeze();

    vt::MetricId m_cpu = run.trace.findMetric("power_used:cpu");
    vt::MetricId m_net = run.trace.findMetric("power_used:net");
    ASSERT_NE(m_cpu, vt::kNoMetric);
    ASSERT_NE(m_net, vt::kNoMetric);

    const vt::Variable *cpu =
        run.trace.findVariable(run.mirror.hostContainer[0], m_cpu);
    const vt::Variable *net =
        run.trace.findVariable(run.mirror.hostContainer[0], m_net);
    ASSERT_NE(cpu, nullptr);
    ASSERT_NE(net, nullptr);
    // Both share until t=1 (500 each), then cpu finishes alone at 1.5.
    EXPECT_DOUBLE_EQ(cpu->valueAt(0.5), 500.0);
    EXPECT_DOUBLE_EQ(net->valueAt(0.5), 500.0);
    EXPECT_DOUBLE_EQ(net->valueAt(1.2), 0.0);
    EXPECT_DOUBLE_EQ(cpu->valueAt(1.2), 1000.0);

    // Per-tag integrals add up to the work done.
    EXPECT_NEAR(cpu->integrate(0.0, 2.0), 1000.0, 1e-9);
    EXPECT_NEAR(net->integrate(0.0, 2.0), 500.0, 1e-9);
}

TEST(Tracer, NoPerTagMetricsWithoutTags)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    run.engine.startCompute(vp::HostId{0}, 100.0, [] {});
    run.engine.run();
    run.trace.freeze();
    EXPECT_EQ(run.trace.findMetric("power_used:default"), vt::kNoMetric);
}

TEST(Tracer, TraceSpanCoversTheRun)
{
    vp::Platform p = makePair();
    vs::SimulationRun run(p);
    run.engine.startCompute(vp::HostId{0}, 5000.0, [] {});  // 5 s
    run.engine.run();
    run.trace.freeze();
    EXPECT_DOUBLE_EQ(run.trace.span().begin, 0.0);
    EXPECT_NEAR(run.trace.span().end, 5.0, 1e-9);
    EXPECT_GT(run.tracer.pointsWritten(), 0u);
}
