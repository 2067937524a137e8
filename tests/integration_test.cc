/**
 * @file
 * End-to-end integration tests: scaled-down versions of both paper case
 * studies run through the full pipeline (platform -> simulation ->
 * trace -> aggregation -> session -> rendering), checking the paper's
 * qualitative claims hold.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "app/session.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "viz/svg.hh"
#include "workload/masterworker.hh"
#include "workload/nasdt.hh"

namespace va = viva::agg;
namespace vap = viva::app;
namespace vp = viva::platform;
namespace vs = viva::sim;
namespace vt = viva::trace;
namespace vw = viva::workload;

namespace
{

/** Mean utilization of a link over a slice, as a fraction of capacity. */
double
linkUtilization(const vt::Trace &trace, const std::string &link_name,
                const va::TimeSlice &slice)
{
    auto link = trace.findByName(link_name);
    if (link == vt::kNoContainer)
        return -1.0;
    auto used = trace.findMetric("bandwidth_used");
    auto cap = trace.findMetric("bandwidth");
    const vt::Variable *u = trace.findVariable(link, used);
    const vt::Variable *c = trace.findVariable(link, cap);
    if (!u || !c)
        return -1.0;
    return u->average(slice) / c->valueAt(slice.begin);
}

} // namespace

// --- case study 1: NAS-DT on two clusters (Figs. 6 and 7) --------------------

class NasDtCase : public ::testing::Test
{
  protected:
    static vw::DtParams
    params()
    {
        vw::DtParams p;
        p.cycles = 8;
        return p;
    }

    struct Outcome
    {
        vt::Trace trace;
        double makespan;
    };

    static Outcome
    runWith(bool locality)
    {
        vp::Platform plat = vp::makeTwoClusterPlatform();
        vs::SimulationRun run(plat);
        vw::DtParams p = params();
        vw::Deployment dep = locality
                                 ? vw::localityDeployment(plat, p)
                                 : vw::sequentialDeployment(plat, p);
        vw::DtResult result = vw::runNasDtWhiteHole(run, p, dep);
        run.trace.freeze();
        return {std::move(run.trace), result.makespanS};
    }
};

TEST_F(NasDtCase, SequentialSaturatesTheInterconnect)
{
    Outcome seq = runWith(false);
    va::TimeSlice whole = seq.trace.span();

    // Fig. 6 claim: the backbone is almost saturated over the whole run.
    double backbone = linkUtilization(seq.trace, "backbone", whole);
    ASSERT_GE(backbone, 0.0);
    EXPECT_GT(backbone, 0.7);

    // ... and in each of the beginning / middle / end sub-slices.
    for (std::size_t i = 0; i < 3; ++i) {
        double u = linkUtilization(seq.trace, "backbone",
                                   va::sliceAt(whole, va::SliceIndex::fromIndex(i), 3));
        EXPECT_GT(u, 0.5) << "sub-slice " << i;
    }
}

TEST_F(NasDtCase, LocalityRelievesTheInterconnect)
{
    Outcome seq = runWith(false);
    Outcome loc = runWith(true);

    double u_seq =
        linkUtilization(seq.trace, "backbone", seq.trace.span());
    double u_loc =
        linkUtilization(loc.trace, "backbone", loc.trace.span());
    // Fig. 7 claim: the interconnect load drops substantially.
    EXPECT_LT(u_loc, u_seq * 0.6);

    // The paper reports a ~20% makespan improvement.
    double gain = (seq.makespan - loc.makespan) / seq.makespan;
    EXPECT_GT(gain, 0.10) << "seq " << seq.makespan << " loc "
                          << loc.makespan;
}

TEST_F(NasDtCase, ContentionMovesIntoTheClusters)
{
    Outcome loc = runWith(true);
    va::TimeSlice whole = loc.trace.span();

    // With locality, some intra-cluster host link carries more traffic
    // than the backbone (Fig. 7: "the network contention is now placed
    // on the small network links on each of the clusters").
    double backbone = linkUtilization(loc.trace, "backbone", whole);
    double adonis1 = linkUtilization(loc.trace, "adonis-1-link", whole);
    double best_host_link = adonis1;
    for (int i = 2; i <= 11; ++i) {
        best_host_link = std::max(
            best_host_link,
            linkUtilization(loc.trace,
                            "adonis-" + std::to_string(i) + "-link",
                            whole));
    }
    EXPECT_GT(best_host_link, backbone);
}

TEST_F(NasDtCase, SessionViewsShowTheSaturation)
{
    Outcome seq = runWith(false);
    vap::Session session(std::move(seq.trace));

    // The analyst's workflow: whole-run slice, cluster-level view.
    session.aggregateToDepth(3);
    session.stabilizeLayout(300).value();
    va::View v = session.view();
    EXPECT_GT(v.nodes.size(), 2u);

    // Render all four Fig. 6 views without error.
    std::ostringstream svg;
    viva::viz::writeSvg(session.scene(), svg);
    for (std::size_t i = 0; i < 3; ++i) {
        session.setSliceOf(va::SliceIndex::fromIndex(i), 3);
        viva::viz::writeSvg(session.scene(), svg);
    }
    EXPECT_GT(svg.str().size(), 1000u);
}

// --- case study 2: competing master-workers on a grid (Figs. 8 and 9) --------

class MasterWorkerCase : public ::testing::Test
{
  protected:
    /** A small synthetic grid: 4 sites x 2 clusters x 4 hosts. */
    static vp::Platform
    makeGrid()
    {
        viva::support::Rng rng(99);
        return vp::makeSyntheticGrid(4, 2, 4, rng);
    }

    struct Outcome
    {
        vt::Trace trace;
        std::vector<std::size_t> tasks_app1;
        std::vector<std::size_t> tasks_app2;
        std::vector<vp::HostId> workers;
    };

    static Outcome
    run(vw::MwPolicy policy)
    {
        vp::Platform plat = makeGrid();
        vs::SimulationRun sim(plat, {"cpubound", "netbound"});

        vw::MwParams p1;
        p1.name = "cpubound";
        p1.master = vp::HostId{0};  // first host of site0
        p1.workers = vw::allHostsExcept(plat, {vp::HostId{0}, vp::HostId{16}});
        p1.taskInputMbits = 2.0;
        p1.taskMflop = 30000.0;
        p1.totalTasks = 150;
        p1.policy = policy;

        vw::MwParams p2 = p1;
        p2.name = "netbound";
        p2.master = vp::HostId{16};  // a host in another site
        p2.taskInputMbits = 40.0;  // much higher comm/comp ratio:
        p2.taskMflop = 2000.0;     // the master is the bottleneck
        p2.totalTasks = 150;

        vw::MasterWorkerApp app1(sim, p1, 1);
        vw::MasterWorkerApp app2(sim, p2, 2);
        app1.start();
        app2.start();
        sim.engine.run();

        EXPECT_TRUE(app1.finished());
        EXPECT_TRUE(app2.finished());
        sim.trace.freeze();
        return {std::move(sim.trace), app1.result().tasksPerWorker,
                app2.result().tasksPerWorker, p1.workers};
    }
};

TEST_F(MasterWorkerCase, BothAppsTracedPerApplication)
{
    Outcome o = run(vw::MwPolicy::BandwidthCentric);
    EXPECT_NE(o.trace.findMetric("power_used:cpubound"),
              vt::kNoMetric);
    EXPECT_NE(o.trace.findMetric("bandwidth_used:netbound"),
              vt::kNoMetric);
}

TEST_F(MasterWorkerCase, CpuBoundAppWinsResourceShare)
{
    Outcome o = run(vw::MwPolicy::BandwidthCentric);
    va::TimeSlice whole = o.trace.span();

    // Fig. 8 claim (1): the CPU-bound app achieves better overall
    // resource usage. Compare total compute integrals grid-wide.
    va::Aggregator agg(o.trace);
    va::HierarchyCut cut(o.trace);
    cut.aggregateToDepth(1);  // the whole grid as one node
    auto nodes = cut.visibleNodes();
    ASSERT_EQ(nodes.size(), 1u);

    auto m1 = o.trace.findMetric("power_used:cpubound");
    auto m2 = o.trace.findMetric("power_used:netbound");
    double use1 = agg.value(nodes[0], m1, whole);
    double use2 = agg.value(nodes[0], m2, whole);
    EXPECT_GT(use1, use2);
}

TEST_F(MasterWorkerCase, NetworkBoundAppShowsLocality)
{
    Outcome o = run(vw::MwPolicy::BandwidthCentric);

    // Fig. 8 claim (2): the comm-bound app concentrates its work on
    // high-bandwidth (nearby) workers: its per-worker task counts are
    // more skewed than uniform.
    std::size_t total = 0, busiest = 0;
    for (auto n : o.tasks_app2) {
        total += n;
        busiest = std::max(busiest, n);
    }
    double uniform_share = double(total) / double(o.tasks_app2.size());
    EXPECT_GT(double(busiest), 2.0 * uniform_share);
}

TEST_F(MasterWorkerCase, FifoDiffusesMoreUniformly)
{
    Outcome bc = run(vw::MwPolicy::BandwidthCentric);
    Outcome fifo = run(vw::MwPolicy::Fifo);

    auto skew = [](const std::vector<std::size_t> &tasks) {
        viva::support::Samples s;
        for (auto n : tasks)
            s.add(double(n));
        return s.count() && s.mean() > 0 ? s.stddev() / s.mean() : 0.0;
    };
    // Fig. 9 claim: FIFO exhibits a more uniform resource usage than
    // the bandwidth-centric strategy (for the comm-bound app).
    EXPECT_LE(skew(fifo.tasks_app2), skew(bc.tasks_app2));
}

TEST_F(MasterWorkerCase, MultiScaleViewsRevealWhatHostLevelHides)
{
    Outcome o = run(vw::MwPolicy::BandwidthCentric);
    vap::Session session(std::move(o.trace));

    auto m2 = session.trace().findMetric("power_used:netbound");
    ASSERT_NE(m2, vt::kNoMetric);

    // Host-level view: thousands of tiny values (hard to read); the
    // site-level view exposes per-site imbalance directly.
    session.aggregateToDepth(1);
    std::size_t grid_nodes = session.cut().visibleCount();
    session.aggregateToDepth(2);
    std::size_t site_nodes = session.cut().visibleCount();
    session.resetAggregation();
    std::size_t host_nodes = session.cut().visibleCount();
    EXPECT_LT(grid_nodes, site_nodes);
    EXPECT_LT(site_nodes, host_nodes);

    // Per-site netbound usage: some site clearly above another.
    session.aggregateToDepth(2);
    va::Aggregator agg(session.trace());
    va::TimeSlice whole = session.span();
    std::vector<double> site_use;
    for (auto id : session.cut().visibleNodes()) {
        if (session.trace().container(id).kind ==
            vt::ContainerKind::Site)
            site_use.push_back(agg.value(id, m2, whole));
    }
    ASSERT_GE(site_use.size(), 3u);
    double lo = site_use[0], hi = site_use[0];
    for (double v : site_use) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi, 1.5 * (lo + 1e-9));  // visible imbalance at site scale
}

TEST_F(MasterWorkerCase, AnimationShowsWorkloadDiffusion)
{
    Outcome o = run(vw::MwPolicy::BandwidthCentric);
    vt::Trace trace = std::move(o.trace);
    auto m1 = trace.findMetric("power_used:cpubound");

    // Fig. 9: early slices concentrate work near the master's site;
    // over time it diffuses. Check the number of active sites grows
    // between the first and last quarter of the run.
    va::Aggregator agg(trace);
    va::HierarchyCut cut(trace);
    cut.aggregateToDepth(2);
    va::TimeSlice span = trace.span();

    auto active_sites = [&](const va::TimeSlice &slice) {
        std::size_t n = 0;
        for (auto id : cut.visibleNodes()) {
            if (trace.container(id).kind != vt::ContainerKind::Site)
                continue;
            if (agg.value(id, m1, slice) > 1.0)
                ++n;
        }
        return n;
    };
    std::size_t early = active_sites(va::sliceAt(span, va::SliceIndex{0}, 8));
    std::size_t late = active_sites(va::sliceAt(span, va::SliceIndex{4}, 8));
    EXPECT_GE(late, early);
    EXPECT_GE(late, 3u);  // eventually most sites work
}
