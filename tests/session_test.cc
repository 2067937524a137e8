/**
 * @file
 * Additional session-level coverage: the save command, focus through
 * the session, composition end-to-end, scene statistics plumbing, and
 * multi-target focus at the cut level.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/commands.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "sim/tracer.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"
#include "viz/svg.hh"
#include "workload/masterworker.hh"
#include "workload/nasdt.hh"

namespace va = viva::agg;
namespace vap = viva::app;
namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vv = viva::viz;
namespace vw = viva::workload;

namespace
{

std::string
tempDir()
{
    auto dir =
        std::filesystem::temp_directory_path() / "viva_session_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace

TEST(SessionSave, NativeRoundTrip)
{
    vap::Session session(vt::makeFigure1Trace());
    std::string path = tempDir() + "/fig1.viva";
    ASSERT_TRUE(session.saveTrace(path).ok());

    auto back = vt::readTraceFile(path);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back->containerCount(),
              session.trace().containerCount());
    EXPECT_EQ(back->pointCount(), session.trace().pointCount());
}

TEST(SessionSave, PajeByExtension)
{
    vap::Session session(vt::makeFigure1Trace());
    std::string path = tempDir() + "/fig1.paje";
    ASSERT_TRUE(session.saveTrace(path).ok());

    auto back = vt::readPajeTraceFile(path);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back->trace.containerCount(),
              session.trace().containerCount());
}

TEST(SessionSave, Command)
{
    vap::Session session(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(session);
    std::string path = tempDir() + "/cmd.viva";
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("save " + path, out));
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(SessionFocus, FullDetailInsideSummariesOutside)
{
    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    vap::Session session(std::move(t));

    std::size_t host_level = session.cut().visibleCount();
    ASSERT_TRUE(session.focus("adonis"));
    std::size_t focused = session.cut().visibleCount();
    // Adonis stays fully expanded (22 leaves) + griffon is one node +
    // the site-level leaves; far fewer than the full host level.
    EXPECT_LT(focused, host_level);
    auto griffon = session.trace().findByName("griffon");
    EXPECT_TRUE(session.cut().isCollapsed(griffon));
    auto a3 = session.trace().findByName("adonis-3");
    EXPECT_TRUE(session.cut().isVisible(a3));
    // The layout followed the cut.
    EXPECT_EQ(session.layoutGraph().nodeCount(), focused);
    EXPECT_FALSE(session.focus("nope"));
}

TEST(HierarchyCutFocus, MultipleTargets)
{
    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    auto adonis = t.findByName("adonis");
    auto griffon = t.findByName("griffon");

    va::HierarchyCut cut(t);
    cut.focus({adonis, griffon});
    // Both clusters expanded: this equals the full leaf view here
    // (nothing else to collapse but the clusters).
    EXPECT_FALSE(cut.isCollapsed(adonis));
    EXPECT_FALSE(cut.isCollapsed(griffon));
    for (auto leaf : t.leavesUnder(adonis))
        EXPECT_TRUE(cut.isVisible(leaf));
}

TEST(SessionComposition, PieVisibleEndToEnd)
{
    // A small two-app run whose site-level scene carries pie segments.
    viva::support::Rng rng(31);
    vp::Platform plat = vp::makeSyntheticGrid(2, 1, 3, rng);
    vs::SimulationRun run(plat, {"a", "b"});
    vw::MwParams pa;
    pa.name = "a";
    pa.master = vp::HostId{0};
    pa.workers = vw::allHostsExcept(plat, {vp::HostId{0}});
    pa.totalTasks = 10;
    pa.taskMflop = 1000.0;
    vw::MwParams pb = pa;
    pb.name = "b";
    vw::MasterWorkerApp a(run, pa, 1);
    vw::MasterWorkerApp b(run, pb, 2);
    a.start();
    b.start();
    run.engine.run();

    vap::Session session(std::move(run.trace));
    vv::CompositionRule comp;
    comp.parts = {session.trace().findMetric("power_used:a"),
                  session.trace().findMetric("power_used:b")};
    comp.total = session.trace().findMetric("power");
    session.mapping().setComposition(comp);

    session.aggregateToDepth(1);  // whole grid as one node
    session.setTimeSlice(session.span());
    vv::Scene scene = session.scene();
    ASSERT_EQ(scene.nodes.size(), 1u);
    ASSERT_EQ(scene.nodes[0].segments.size(), 2u);
    EXPECT_GT(scene.nodes[0].segments[0].fraction, 0.0);

    // And the SVG contains the wedges.
    std::ostringstream svg;
    vv::writeSvg(scene, svg);
    EXPECT_NE(svg.str().find("<path d=\"M"), std::string::npos);
}

TEST(SessionScene, WithStatsTogglesHeterogeneity)
{
    // Heterogeneous host powers inside one cluster.
    vt::TraceBuilder builder;
    auto power = builder.powerMetric();
    builder.beginGroup("c", vt::ContainerKind::Cluster);
    auto h1 = builder.host("h1");
    auto h2 = builder.host("h2");
    builder.endGroup();
    builder.trace().variable(h1, power).set(0.0, 1.0);
    builder.trace().variable(h2, power).set(0.0, 99.0);
    vap::Session session(builder.take());
    session.aggregateToDepth(1);

    vv::Scene plain = session.scene();
    EXPECT_DOUBLE_EQ(plain.nodes[0].heterogeneity, 0.0);
    vv::Scene with_stats = session.scene({}, /*with_stats=*/true);
    EXPECT_GT(with_stats.nodes[0].heterogeneity, 0.9);
}

TEST(SessionAnimate, StatePiesInFrames)
{
    vp::Platform plat = vp::makeTwoClusterPlatform();
    vs::SimulationRun run(plat);
    vw::DtParams params;
    params.cycles = 2;
    params.recordStates = true;
    vw::runNasDtWhiteHole(run, params,
                          vw::sequentialDeployment(plat, params));

    vap::Session session(std::move(run.trace));
    session.aggregateToDepth(3);
    vv::SceneOptions options;
    options.statePies = true;
    vv::Scene scene = session.scene(options);
    bool any_pie = false;
    for (const auto &n : scene.nodes)
        any_pie |= !n.segments.empty();
    EXPECT_TRUE(any_pie);
}

TEST(SessionCharge, AggregatedNodeChargeIsSummed)
{
    vp::Platform p = vp::makeTwoClusterPlatform();
    vt::Trace t;
    vp::mirrorPlatform(p, t);
    vap::Session session(std::move(t));

    session.aggregate("adonis");
    auto adonis = session.trace().findByName("adonis");
    auto node = session.layoutNode(adonis);
    ASSERT_NE(node, viva::layout::kNoNode);
    // 11 hosts + 11 host links + switch = 23 leaves.
    EXPECT_DOUBLE_EQ(session.layoutGraph().node(node).charge, 23.0);
}
