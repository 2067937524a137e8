/**
 * @file
 * Regenerates the didactic figures 1-5 of the paper as printed values
 * and SVGs: the trace-to-graph mapping at three cursors (Fig. 1),
 * temporal aggregation over a slice (Fig. 2), two successive spatial
 * aggregations (Fig. 3), the per-type scaling schemes A/B/C (Fig. 4),
 * and the effect of the charge/spring sliders on the layout (Fig. 5).
 */

#include <cstdio>
#include <filesystem>

#include "support/error.hh"
#include "agg/aggregate.hh"
#include "layout/force.hh"
#include "app/session.hh"
#include "layout/metrics.hh"
#include "support/random.hh"
#include "trace/builder.hh"

namespace
{

const char *out_dir = "bench_out";

void
figure1()
{
    std::printf("--- Figure 1: trace metrics -> graph at cursors A/B/C\n");
    viva::app::Session s(viva::trace::makeFigure1Trace());
    s.stabilizeLayout(400).value();
    auto power = s.trace().findMetric("power");
    auto bw = s.trace().findMetric("bandwidth");

    struct Cursor { const char *name; double at; } cursors[] = {
        {"A", 1.0}, {"B", 6.0}, {"C", 10.0}};
    std::printf("%-8s %10s %10s %10s\n", "cursor", "HostA", "HostB",
                "LinkA");
    for (const auto &c : cursors) {
        s.setTimeSlice({c.at, c.at});
        viva::agg::View v = s.view();
        std::printf("%-8s %10.0f %10.0f %10.0f\n", c.name,
                    v.valueOf(s.trace().findByName("HostA"), power),
                    v.valueOf(s.trace().findByName("HostB"), power),
                    v.valueOf(s.trace().findByName("LinkA"), bw));
        s.setTimeSlice({c.at, c.at + 0.1});
        viva::support::okOrDie(
            s.renderSvg(std::string(out_dir) + "/fig1_" + c.name +
                            ".svg",
                        std::string("Fig. 1 cursor ") + c.name),
            "fig1 render");
    }
}

void
figure2()
{
    std::printf("--- Figure 2: temporal aggregation over [A1,A2)=[2,10)\n");
    viva::trace::Trace t = viva::trace::makeFigure1Trace();
    viva::agg::Aggregator agg(t);
    auto host_a = t.findByName("HostA");
    double cap = agg.value(host_a, t.findMetric("power"), {2.0, 10.0});
    double used =
        agg.value(host_a, t.findMetric("power_used"), {2.0, 10.0});
    std::printf("HostA time-integrated power %.2f MFlops, "
                "utilization %.2f MFlops, fill %.0f%%\n",
                cap, used, 100.0 * used / cap);
}

void
figure3()
{
    std::printf("--- Figure 3: two successive spatial aggregations\n");
    viva::trace::TraceBuilder b;
    auto power = b.powerMetric();
    auto bw = b.bandwidthMetric();
    b.beginGroup("GroupB", viva::trace::ContainerKind::Site);
    b.beginGroup("GroupA", viva::trace::ContainerKind::Cluster);
    auto h1 = b.host("h1");
    auto h2 = b.host("h2");
    auto l1 = b.link("l1");
    b.endGroup();
    auto h3 = b.host("h3");
    auto l2 = b.link("l2");
    b.endGroup();
    viva::trace::Trace &t = b.trace();
    t.addRelation(h1, l1);
    t.addRelation(l1, h2);
    t.addRelation(h2, l2);
    t.addRelation(l2, h3);
    t.variable(h1, power).set(0.0, 10.0);
    t.variable(h2, power).set(0.0, 30.0);
    t.variable(h3, power).set(0.0, 5.0);
    t.variable(l1, bw).set(0.0, 100.0);
    t.variable(l2, bw).set(0.0, 50.0);
    viva::trace::Trace trace = b.take();

    viva::agg::HierarchyCut cut(trace);
    auto show = [&](const char *label) {
        viva::agg::View v = viva::agg::buildView(
            trace, cut, {0.0, 1.0},
            {trace.findMetric("power"), trace.findMetric("bandwidth")});
        std::printf("%-24s %zu nodes, %zu edges:", label,
                    v.nodes.size(), v.edges.size());
        for (std::size_t i = 0; i < v.nodes.size(); ++i)
            std::printf("  %s(p=%g,b=%g)",
                        trace.container(v.nodes[i].id).name.c_str(),
                        v.value(i, 0), v.value(i, 1));
        std::printf("\n");
    };
    show("no aggregation");
    cut.aggregate(trace.findByName("GroupA"));
    show("1st aggregation (A)");
    cut.aggregate(trace.findByName("GroupB"));
    show("2nd aggregation (B)");
}

void
figure4()
{
    std::printf("--- Figure 4: per-type automatic scaling, schemes A/B/C\n");
    viva::trace::Trace t = viva::trace::makeFigure1Trace();
    auto power = t.findMetric("power");
    auto bw = t.findMetric("bandwidth");
    viva::agg::HierarchyCut cut(t);

    auto scheme = [&](const char *name, double lo, double hi,
                      double host_slider, double link_slider) {
        viva::agg::View v =
            viva::agg::buildView(t, cut, {lo, hi}, {power, bw});
        viva::viz::TypeScaling scaling(60.0);
        scaling.autoScale(v);
        scaling.setSlider(power, host_slider);
        scaling.setSlider(bw, link_slider);
        std::printf("scheme %s (slice [%g,%g), sliders %g/%g): ", name,
                    lo, hi, host_slider, link_slider);
        for (const char *n : {"HostA", "HostB", "LinkA"}) {
            auto id = t.findByName(n);
            auto metric =
                t.container(id).kind == viva::trace::ContainerKind::Host
                    ? power
                    : bw;
            std::printf(" %s=%.0fpx", n,
                        scaling.pixelSize(metric,
                                          v.valueOf(id, metric)));
        }
        std::printf("\n");
    };
    scheme("A", 0.0, 4.0, 1.0, 1.0);
    scheme("B", 4.0, 8.0, 1.0, 1.0);
    scheme("C", 4.0, 8.0, 2.0, 0.5);
}

void
figure5()
{
    std::printf("--- Figure 5: charge & spring sliders vs layout shape\n");
    auto measure = [](double charge, double spring) {
        viva::support::Rng rng(21);
        viva::layout::LayoutGraph g;
        std::vector<viva::layout::NodeId> ids;
        for (int i = 0; i < 16; ++i)
            ids.push_back(g.addNode(i, {rng.uniform(0.0, 20.0),
                                        rng.uniform(0.0, 20.0)}));
        for (int i = 1; i < 16; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 2]);
        viva::layout::ForceLayout layout(g);
        layout.params().charge = charge;
        layout.params().spring = spring;
        layout.stabilize(1500, 1e-6).value();
        return std::pair{std::sqrt(viva::layout::boundingBoxArea(g)),
                         viva::layout::edgeLengths(g).mean()};
    };

    std::printf("%-28s %12s %12s\n", "setting", "extent", "mean edge");
    struct Case { const char *label; double c, s; } cases[] = {
        {"A: baseline", 2000.0, 0.08},
        {"B: lower charge", 400.0, 0.08},
        {"C: stronger spring", 2000.0, 0.8},
    };
    for (const auto &k : cases) {
        auto [extent, edge] = measure(k.c, k.s);
        std::printf("%-28s %12.1f %12.1f\n", k.label, extent, edge);
    }
    std::printf("(lower charge pulls nodes together; stronger spring "
                "pulls connected nodes together)\n");
}

} // namespace

int
main()
{
    std::filesystem::create_directories(out_dir);
    std::printf("=== fig1to5_concepts: the didactic figures ===\n");
    figure1();
    figure2();
    figure3();
    figure4();
    figure5();
    std::printf("SVGs in %s/\n", out_dir);
    return 0;
}
