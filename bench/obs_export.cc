/**
 * @file
 * obs_export: run a deterministic representative workload with the
 * observability layer armed and dump the metrics registry as
 * BENCH_obs.json (the "viva-obs-1" schema) for viva-perfdiff.
 *
 *   obs_export [--out FILE] [--scale N] [--threads N]
 *              [--fake-clock] [--slow-factor N]
 *
 * --fake-clock installs a FakeClock that advances exactly 1000 ns per
 * read, so with --threads 1 every recorded duration is a pure function
 * of the workload: two runs produce byte-identical exports, which is
 * what the perfdiff selftest relies on. --slow-factor N multiplies the
 * tick -- a synthetic, perfectly reproducible "regression" for testing
 * the comparator's failure path.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "app/session.hh"
#include "support/clock.hh"
#include "support/obs.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"

namespace
{

namespace obs = viva::support::obs;

/** A scale-parameterized grid: sites -> clusters -> hosts + metrics. */
viva::trace::Trace
buildSyntheticTrace(std::size_t scale)
{
    viva::trace::TraceBuilder b;
    viva::trace::MetricId power = b.powerMetric();
    viva::trace::MetricId used = b.powerUsedMetric();
    (void)power;
    (void)used;

    std::vector<viva::trace::ContainerId> hosts;
    for (std::size_t s = 0; s < scale; ++s) {
        b.beginGroup("site" + std::to_string(s),
                     viva::trace::ContainerKind::Site);
        for (std::size_t c = 0; c < 2; ++c) {
            b.beginGroup("s" + std::to_string(s) + "c" +
                             std::to_string(c),
                         viva::trace::ContainerKind::Cluster);
            for (std::size_t h = 0; h < 8; ++h) {
                viva::trace::ContainerId host =
                    b.host("s" + std::to_string(s) + "c" +
                           std::to_string(c) + "h" + std::to_string(h));
                hosts.push_back(host);
                for (std::size_t t = 0; t <= 10; ++t) {
                    double tt = double(t);
                    b.set(host, "power", tt, 100.0);
                    b.set(host, "power_used", tt,
                          double((s + c + h + t) % 7) * 12.5);
                }
                b.trace().addState(host, 0.0, 5.0, "compute");
                b.trace().addState(host, 5.0, 10.0, "idle");
            }
            b.endGroup();
        }
        b.endGroup();
    }
    for (std::size_t i = 1; i < hosts.size(); ++i)
        b.relate(hosts[i - 1], hosts[i]);
    return b.take();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: obs_export [--out FILE] [--scale N] "
                 "[--threads N] [--fake-clock] [--slow-factor N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_obs.json";
    std::size_t scale = 6;
    std::size_t threads = 1;
    bool fake_clock = false;
    std::uint64_t slow_factor = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return ++i < argc ? argv[i] : nullptr;
        };
        if (arg == "--out") {
            const char *v = next();
            if (!v)
                return usage();
            out_path = v;
        } else if (arg == "--scale") {
            const char *v = next();
            if (!v)
                return usage();
            scale = std::strtoull(v, nullptr, 10);
        } else if (arg == "--threads") {
            const char *v = next();
            if (!v)
                return usage();
            threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--fake-clock") {
            fake_clock = true;
        } else if (arg == "--slow-factor") {
            const char *v = next();
            if (!v)
                return usage();
            slow_factor = std::strtoull(v, nullptr, 10);
        } else {
            return usage();
        }
    }
    if (scale == 0 || threads == 0 || slow_factor == 0)
        return usage();

    // 1000 ns per clock read: durations count clock reads, nothing
    // else, so the export is reproducible bit for bit (threads=1).
    std::unique_ptr<viva::support::FakeClock> fake;
    std::unique_ptr<viva::support::ClockOverride> override_clock;
    if (fake_clock) {
        fake = std::make_unique<viva::support::FakeClock>(
            0, 1000 * slow_factor);
        override_clock =
            std::make_unique<viva::support::ClockOverride>(*fake);
    }

    obs::Registry &reg = obs::Registry::global();
    reg.reset();

    // --- the workload: every instrumented hot path, in a fixed order ---
    viva::trace::Trace trace = buildSyntheticTrace(scale);

    // Trace round-trips through both formats (trace.* / paje.* phases).
    std::stringstream native;
    viva::trace::writeTrace(trace, native);
    auto reread = viva::trace::readTrace(native);
    if (!reread) {
        std::fprintf(stderr, "obs_export: %s\n",
                     reread.error().toString().c_str());
        return 2;
    }
    std::stringstream paje;
    viva::trace::writePajeTrace(trace, paje);
    auto paje_back = viva::trace::readPajeTrace(paje);
    if (!paje_back) {
        std::fprintf(stderr, "obs_export: %s\n",
                     paje_back.error().toString().c_str());
        return 2;
    }

    // Interactive session: cut recomputations, Eq.-1 aggregation,
    // force passes (cut.*, agg.*, layout.* phases).
    viva::app::Session session(std::move(*reread));
    session.setThreads(threads);
    session.aggregateToDepth(2);
    viva::agg::View coarse = session.view();
    session.resetAggregation();
    viva::agg::View fine = session.view(true);
    session.stepLayout(25).value();
    std::printf("obs_export: %zu coarse nodes, %zu fine nodes\n",
                coarse.nodes.size(), fine.nodes.size());

    // Renderings (session.render / viz.* phases) -- the pixels are
    // irrelevant, the timings are the point.
    std::filesystem::create_directories("bench_out");
    auto check = [](const char *what,
                    const viva::support::Expected<void> &r) {
        if (!r)
            std::fprintf(stderr, "obs_export: %s: %s\n", what,
                         r.error().toString().c_str());
    };
    check("render", session.renderSvg("bench_out/obs_export.svg",
                                      "obs export"));
    check("treemap",
          session.renderTreemap("bench_out/obs_export_treemap.svg",
                                "power_used"));
    auto gantt = session.renderGantt("bench_out/obs_export_gantt.svg");
    if (!gantt)
        std::fprintf(stderr, "obs_export: gantt: %s\n",
                     gantt.error().toString().c_str());

    // A cut change at the rendered slice: the rows of the nodes that
    // stay visible carry over, so agg.values grows by the entering
    // site's row alone (one value per referenced metric).
    if (!session.aggregate("site0")) {
        std::fprintf(stderr, "obs_export: no container 'site0'\n");
        return 2;
    }
    viva::agg::View site = session.view();
    std::printf("obs_export: %zu nodes with site0 aggregated\n",
                site.nodes.size());

    // --- slice-query microbench ----------------------------------------
    // Drives the indexed temporal reductions (the trace.index.build
    // consumers) over a deterministic slice sweep so the perf gate
    // pins their cost. The histogram is bench-local (registered here,
    // not in src/), so it is exempt from the obs-phase manifest.
    {
        const obs::HistogramId slice_phase =
            reg.histogram("bench.slice.query");
        const viva::trace::Trace &tr = session.trace();
        const viva::trace::MetricId used_metric =
            tr.findMetric("power_used");
        double acc = 0.0;
        obs::ScopedPhase slice_timer(slice_phase);
        for (viva::trace::ContainerId host :
             tr.containersOfKind(viva::trace::ContainerKind::Host)) {
            const viva::trace::Variable *v =
                tr.findVariable(host, used_metric);
            if (!v)
                continue;
            for (std::size_t s = 0; s < 64; ++s) {
                double a = double(s) * 10.0 / 64.0;
                double b2 = a + 10.0 / 64.0;
                acc += v->average(a, b2) + v->integrate(a, b2) +
                       v->maxOver(a, b2) + v->minOver(a, b2);
            }
        }
        std::printf("obs_export: slice sweep checksum %.3f\n", acc);
    }

    // --- export ---------------------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "obs_export: cannot open '%s'\n",
                     out_path.c_str());
        return 2;
    }
    obs::writeJson(reg.snapshot(), out);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "obs_export: write failed for '%s'\n",
                     out_path.c_str());
        return 2;
    }
    std::printf("obs_export: wrote %s\n", out_path.c_str());
    return 0;
}
