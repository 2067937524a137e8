/**
 * @file
 * Tests for the deep invariant audits: every auditInvariants() must be
 * clean on well-formed structures and must fire when the structure is
 * deliberately corrupted through the debug fault-injection hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "app/session.hh"
#include "layout/force.hh"
#include "layout/graph.hh"
#include "layout/quadtree.hh"
#include "platform/platform.hh"
#include "support/invariant.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/trace.hh"

namespace va = viva::agg;
namespace vl = viva::layout;
namespace vp = viva::platform;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

/** A two-level trace with variables, relations and states. */
vt::Trace
makeTrace()
{
    vt::TraceBuilder b;
    vt::MetricId power = b.powerMetric();
    vt::MetricId used = b.powerUsedMetric();

    b.beginGroup("site", vt::ContainerKind::Site);
    b.beginGroup("cluster", vt::ContainerKind::Cluster);
    vt::ContainerId h1 = b.host("h1");
    vt::ContainerId h2 = b.host("h2");
    b.endGroup();
    vt::ContainerId h3 = b.host("h3");
    b.endGroup();

    vt::Trace &t = b.trace();
    t.addRelation(h1, h2);
    t.addRelation(h2, h3);
    t.variable(h1, power).set(0.0, 10.0);
    t.variable(h2, power).set(0.0, 30.0);
    t.variable(h3, power).set(0.0, 5.0);
    t.variable(h1, used).set(0.0, 4.0);
    t.variable(h1, power).set(10.0, 10.0);
    t.addState(h1, 0.0, 5.0, "compute");
    return b.take();
}

/** A quadtree over a deterministic point cloud. */
vl::QuadTree
makeTree(std::size_t points)
{
    std::vector<vl::QuadTree::Body> bodies;
    vs::Rng rng(42);
    for (std::size_t i = 0; i < points; ++i) {
        double x = rng.uniform(-90.0, 90.0);
        double y = rng.uniform(-90.0, 90.0);
        bodies.push_back({{x, y}, 1.0 + double(i % 3)});
    }
    vl::QuadTree tree;
    tree.build({-100.0, -100.0}, {100.0, 100.0}, bodies);
    return tree;
}

} // namespace

// --- QuadTree -----------------------------------------------------------------

TEST(QuadTreeAudit, CleanAfterManyInserts)
{
    vl::QuadTree tree = makeTree(500);
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeAudit, CleanWithCoincidentPoints)
{
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {10.0, 10.0},
               std::vector<vl::QuadTree::Body>(8, {{5.0, 5.0}, 2.0}));
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeAudit, DetectsCorruptedCharge)
{
    vl::QuadTree tree = makeTree(64);
    ASSERT_GT(tree.cellCount(), 1u);
    tree.debugScaleCellCharge(0, 2.0);
    vs::AuditLog log = tree.auditInvariants();
    ASSERT_FALSE(log.empty());
}

TEST(QuadTreeAudit, DetectsCorruptedLeafCharge)
{
    vl::QuadTree tree = makeTree(64);
    // Corrupting the deepest cell breaks both the leaf's own
    // charge/point consistency and its ancestors' sums.
    tree.debugScaleCellCharge(tree.cellCount() - 1, 3.0);
    EXPECT_FALSE(tree.auditInvariants().empty());
}

// --- LayoutGraph ---------------------------------------------------------------

TEST(GraphAudit, CleanThroughMutations)
{
    vl::LayoutGraph g;
    vl::NodeId a = g.addNode(1, {0.0, 0.0});
    vl::NodeId b = g.addNode(2, {10.0, 0.0});
    vl::NodeId c = g.addNode(3, {0.0, 10.0}, 2.5);
    g.addEdge(a, b);
    g.addEdge(b, c, 0.5);
    EXPECT_TRUE(g.auditInvariants().empty());
    g.setPinned(c, true);
    g.setPosition(a, {5.0, 5.0});
    EXPECT_TRUE(g.auditInvariants().empty());
}

TEST(GraphAudit, DetectsKeyIndexDrift)
{
    // The graph keeps no key index: the session finds a container's
    // layout node through its projection's slot map, so the session
    // audit must catch a stale entry there.
    viva::app::Session session(makeTrace());
    const vt::ContainerId h1 = session.trace().findByName("h1");
    const vt::ContainerId h2 = session.trace().findByName("h2");
    ASSERT_NE(session.layoutNode(h1), vl::kNoNode);
    ASSERT_NE(session.layoutNode(h2), session.layoutNode(h1));
    auto &projection = const_cast<va::CutProjection &>(session.projection());
    projection.slotOf[h2.index()] = projection.slotOf[h1.index()];
    EXPECT_EQ(session.layoutNode(h2), session.layoutNode(h1));
    vs::AuditLog log = session.auditInvariants();
    EXPECT_NE(std::find_if(log.begin(), log.end(),
                           [](const std::string &line) {
                               return line.rfind("projection: ", 0) == 0;
                           }),
              log.end());
}

TEST(GraphAudit, FinitePositionsDetectNan)
{
    vl::LayoutGraph g;
    g.addNode(1, {0.0, 0.0});
    g.addNode(2, {1.0, 1.0});
    EXPECT_TRUE(vl::auditFinitePositions(g).empty());
    g.mutableNodes()[1].position.x =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(vl::auditFinitePositions(g).empty());
}

TEST(GraphAudit, FinitePositionsDetectInfVelocity)
{
    vl::LayoutGraph g;
    g.addNode(7, {2.0, 3.0});
    g.mutableNodes()[0].velocity.y =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(vl::auditFinitePositions(g).empty());
}

// --- HierarchyCut ---------------------------------------------------------------

TEST(CutAudit, CleanAcrossOperations)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    EXPECT_TRUE(cut.auditInvariants().empty());

    cut.aggregate(trace.findByName("cluster"));
    EXPECT_TRUE(cut.auditInvariants().empty());

    cut.aggregateToDepth(1);
    EXPECT_TRUE(cut.auditInvariants().empty());

    cut.disaggregate(trace.findByName("site"));
    EXPECT_TRUE(cut.auditInvariants().empty());

    cut.focus({trace.findByName("h1")});
    EXPECT_TRUE(cut.auditInvariants().empty());

    cut.reset();
    EXPECT_TRUE(cut.auditInvariants().empty());
}

TEST(CutAudit, DetectsCollapsedLeaf)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.debugSetCollapsed(trace.findByName("h1"), true);
    vs::AuditLog log = cut.auditInvariants();
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("leaf"), std::string::npos);
}

TEST(CutAudit, NestedCollapsedFlagsAreLegal)
{
    // A collapsed node under a collapsed ancestor is tolerated by
    // design (representative() resolves to the topmost one); the cut
    // property must still hold.
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.debugSetCollapsed(trace.findByName("site"), true);
    cut.debugSetCollapsed(trace.findByName("cluster"), true);
    EXPECT_TRUE(cut.auditInvariants().empty());
}

TEST(CutAudit, DetectsStaleFlagVector)
{
    // The trace grows after the cut was built (only an unfrozen trace
    // can): the flag vector no longer matches the containers.
    vt::Trace trace;
    vt::ContainerId site =
        trace.addContainer("site", vt::ContainerKind::Site, trace.root());
    trace.addContainer("h1", vt::ContainerKind::Host, site);
    va::HierarchyCut cut(trace);
    trace.addContainer("h4", vt::ContainerKind::Host, site);
    vs::AuditLog log = cut.auditInvariants();
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("flag vector"), std::string::npos);
}

// --- Platform -------------------------------------------------------------------

TEST(PlatformAudit, CleanOnBuiltPlatform)
{
    vp::Platform p("grid");
    vp::GroupId site = p.addSite("lyon");
    vp::GroupId cluster = p.addCluster("sagittaire", site);
    vp::HostId h1 = p.addHost("sag-1", 1000.0, cluster);
    vp::HostId h2 = p.addHost("sag-2", 1000.0, cluster);
    vp::RouterId r = p.addRouter("sw0", cluster);
    vp::LinkId l1 = p.addLink("l1", 100.0, 1e-4, cluster);
    vp::LinkId l2 = p.addLink("l2", 100.0, 1e-4, cluster);
    p.connect(p.host(h1).vertex, p.router(r).vertex, l1);
    p.connect(p.router(r).vertex, p.host(h2).vertex, l2);
    EXPECT_TRUE(p.auditInvariants().empty());
    EXPECT_EQ(p.route(h1, h2).links.size(), 2u);
    EXPECT_TRUE(p.auditInvariants().empty());
}

TEST(PlatformAudit, DetectsOrphanedGroup)
{
    vp::Platform p("grid");
    vp::GroupId site = p.addSite("lyon");
    p.addCluster("sagittaire", site);
    p.debugOrphanGroup(site);
    vs::AuditLog log = p.auditInvariants();
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("parent"), std::string::npos);
}

// --- Trace ----------------------------------------------------------------------

TEST(TraceAudit, CleanOnBuiltTrace)
{
    vt::Trace trace = makeTrace();
    EXPECT_TRUE(trace.auditInvariants().empty());
}

TEST(TraceAudit, DetectsCorruptedParentLink)
{
    vt::Trace trace = makeTrace();
    vt::ContainerId h1 = trace.findByName("h1");
    trace.debugMutableContainer(h1).parent = h1;  // cycle on itself
    EXPECT_FALSE(trace.auditInvariants().empty());
}

TEST(TraceAudit, DetectsCorruptedDepth)
{
    vt::Trace trace = makeTrace();
    trace.debugMutableContainer(trace.findByName("h2")).depth = 9;
    vs::AuditLog log = trace.auditInvariants();
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("depth"), std::string::npos);
}

// --- Aggregated views -----------------------------------------------------------

TEST(ViewAudit, CleanSerialAndParallel)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.aggregate(trace.findByName("cluster"));
    va::TimeSlice slice{0.0, 10.0};
    std::vector<vt::MetricId> metrics{trace.findMetric("power"),
                                      trace.findMetric("power_used")};
    for (std::size_t threads : {1u, 4u}) {
        va::View view = va::buildView(trace, cut, slice, metrics,
                                      va::SpatialOp::Sum, false, threads);
        EXPECT_TRUE(va::auditView(trace, cut, view).empty())
            << "threads=" << threads;
    }
    // The with-stats build path must conserve Equation 1 as well.
    va::View view = va::buildView(trace, cut, slice, metrics,
                                  va::SpatialOp::Sum, true, 2);
    EXPECT_TRUE(va::auditView(trace, cut, view).empty());
}

TEST(ViewAudit, DetectsValueDrift)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.aggregate(trace.findByName("cluster"));
    std::vector<vt::MetricId> metrics{trace.findMetric("power")};
    va::View view = va::buildView(trace, cut, {0.0, 10.0}, metrics);
    ASSERT_FALSE(view.nodes.empty());
    view.nodes[0].values[0] += 1.0;
    vs::AuditLog log = va::auditView(trace, cut, view);
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("conservation"), std::string::npos);
}

TEST(ViewAudit, DetectsOneUlpDrift)
{
    // One fold builds and audits every value, so the conservation
    // check is exact: even the last bit of a value must match.
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.aggregate(trace.findByName("cluster"));
    std::vector<vt::MetricId> metrics{trace.findMetric("power")};
    va::View view = va::buildView(trace, cut, {0.0, 10.0}, metrics);
    ASSERT_FALSE(view.nodes.empty());
    double &value = view.nodes[0].values[0];
    ASSERT_NE(value, 0.0);
    value = std::nextafter(value, std::numeric_limits<double>::infinity());
    vs::AuditLog log = va::auditView(trace, cut, view);
    ASSERT_FALSE(log.empty());
    EXPECT_NE(log[0].find("conservation"), std::string::npos);
}

TEST(ViewAudit, DetectsStaleNodeSet)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    std::vector<vt::MetricId> metrics{trace.findMetric("power")};
    va::View view = va::buildView(trace, cut, {0.0, 10.0}, metrics);
    // The cut moves on; the view no longer matches it.
    cut.aggregate(trace.findByName("site"));
    EXPECT_FALSE(va::auditView(trace, cut, view).empty());
}

TEST(ViewAudit, DetectsAnEdgeOutsideTheView)
{
    vt::Trace trace = makeTrace();
    va::HierarchyCut cut(trace);
    cut.aggregate(trace.findByName("cluster"));
    std::vector<vt::MetricId> metrics{trace.findMetric("power")};
    va::View view = va::buildView(trace, cut, {0.0, 10.0}, metrics);
    EXPECT_TRUE(va::auditView(trace, cut, view).empty());
    // h1 hides inside the collapsed cluster: not a node of the view.
    ASSERT_FALSE(view.edges.empty());
    view.edges[0].a = trace.findByName("h1");
    vs::AuditLog log = va::auditView(trace, cut, view);
    EXPECT_NE(std::find_if(log.begin(), log.end(),
                           [](const std::string &line) {
                               return line.find("outside the view") !=
                                      std::string::npos;
                           }),
              log.end());
}

// --- Session --------------------------------------------------------------------

TEST(SessionAudit, CleanThroughAnalysisSequence)
{
    viva::app::Session session(makeTrace());
    EXPECT_TRUE(session.auditInvariants().empty());

    session.aggregate("site/cluster");
    EXPECT_TRUE(session.auditInvariants().empty());

    session.setSliceOf(va::SliceIndex{0}, 2);
    session.stepLayout(5).value();
    EXPECT_TRUE(session.auditInvariants().empty());

    session.focus("h1");
    session.stabilizeLayout(50).value();
    EXPECT_TRUE(session.auditInvariants().empty());

    session.resetAggregation();
    EXPECT_TRUE(session.auditInvariants().empty());
}

TEST(SessionAudit, DetectsLayoutCorruption)
{
    viva::app::Session session(makeTrace());
    auto &nodes = session.mutableLayoutGraph().mutableNodes();
    ASSERT_FALSE(nodes.empty());
    nodes[0].position.x = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(session.auditInvariants().empty());
}

TEST(SessionAudit, DetectsACutChangeThatBypassesTheProjection)
{
    viva::app::Session session(makeTrace());
    // Fault injection: change the cut without the session's update
    // point, so the stored projection describes the old cut.
    auto &cut = const_cast<va::HierarchyCut &>(session.cut());
    cut.aggregate(session.trace().findByName("cluster"));
    vs::AuditLog log = session.auditInvariants();
    EXPECT_NE(std::find_if(log.begin(), log.end(),
                           [](const std::string &line) {
                               return line.rfind("projection: ", 0) == 0;
                           }),
              log.end());
}

TEST(SessionAudit, DetectsStaleStoredValues)
{
    viva::app::Session session(makeTrace());
    (void)session.view();  // folds and stores the current view's values
    EXPECT_TRUE(session.auditInvariants().empty());

    // Fault injection: one stored value goes stale while its key (cut,
    // slice, metrics) still claims the current view.
    std::vector<double> &stored = session.debugStoredValues();
    ASSERT_FALSE(stored.empty());
    stored.back() += 1.0;
    vs::AuditLog log = session.auditInvariants();
    EXPECT_NE(std::find_if(log.begin(), log.end(),
                           [](const std::string &line) {
                               return line.rfind("stored view: ", 0) == 0;
                           }),
              log.end());

    // A new slice is a new key: the next view refolds, and the audit
    // is clean again.
    session.setSliceOf(va::SliceIndex{1}, 2);
    (void)session.view();
    EXPECT_TRUE(session.auditInvariants().empty());

    // Rows a cut change carried over are checked like any other: h3's
    // row survives aggregating the cluster; made stale there, the audit
    // sees it while the cluster's entering row waits, and after the
    // next view, which folds only that row.
    auto stale = [&session] {
        vs::AuditLog found = session.auditInvariants();
        return std::find_if(found.begin(), found.end(),
                            [](const std::string &line) {
                                return line.rfind("stored view: ", 0) == 0;
                            }) != found.end();
    };
    ASSERT_TRUE(session.aggregate("cluster"));
    ASSERT_EQ(session.projection().size(), 2u);  // cluster, h3
    session.debugStoredValues().back() += 1.0;    // h3's last value
    EXPECT_TRUE(stale());
    (void)session.view();
    EXPECT_TRUE(stale());
}
