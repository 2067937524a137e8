/**
 * @file
 * Shared harness code for the Fig. 6 / Fig. 7 benches: run the NAS-DT
 * class A White Hole benchmark on the two-cluster platform and print
 * the per-view link-utilization rows the figures show.
 */

#pragma once

#include <cstdio>
#include <string>

#include "support/error.hh"
#include "agg/aggregate.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "workload/nasdt.hh"

namespace bench
{

struct DtOutcome
{
    viva::trace::Trace trace;
    double makespan = 0.0;
};

inline viva::workload::DtParams
dtParams()
{
    viva::workload::DtParams params;  // class A WH: 21 processes
    params.cycles = 20;
    return params;
}

inline DtOutcome
runDt(bool locality)
{
    viva::platform::Platform platform =
        viva::platform::makeTwoClusterPlatform();
    viva::sim::SimulationRun run(platform);
    viva::workload::DtParams params = dtParams();
    viva::workload::Deployment deployment =
        locality ? viva::workload::localityDeployment(platform, params)
                 : viva::workload::sequentialDeployment(platform, params);
    viva::workload::DtResult result =
        viva::workload::runNasDtWhiteHole(run, params, deployment);
    run.trace.freeze();
    return {std::move(run.trace), result.makespanS};
}

/** Mean utilization / capacity of a link over a slice. */
inline double
linkLoad(const viva::trace::Trace &trace, viva::trace::ContainerId link,
         const viva::agg::TimeSlice &slice)
{
    auto used = trace.findMetric("bandwidth_used");
    auto cap = trace.findMetric("bandwidth");
    const viva::trace::Variable *u = trace.findVariable(link, used);
    const viva::trace::Variable *c = trace.findVariable(link, cap);
    if (!u || !c || c->valueAt(slice.begin) <= 0)
        return 0.0;
    return u->average(slice) / c->valueAt(slice.begin);
}

/**
 * Print the figure's four views as one table: link classes x slices.
 * Each row aggregates a class of links (the backbone, cluster uplinks,
 * adonis host links, griffon host links) the way the reader's eye
 * groups the figure's diamonds.
 */
inline void
printLinkTable(const viva::trace::Trace &trace)
{
    viva::agg::TimeSlice whole = trace.span();
    viva::agg::TimeSlice slices[4] = {whole,
                                      viva::agg::sliceAt(whole, viva::agg::SliceIndex{0}, 3),
                                      viva::agg::sliceAt(whole, viva::agg::SliceIndex{1}, 3),
                                      viva::agg::sliceAt(whole, viva::agg::SliceIndex{2}, 3)};

    struct Row { const char *label; std::string match; } rows[] = {
        {"backbone", "backbone"},
        {"cluster uplinks", "-uplink"},
        {"adonis host links", "adonis-"},
        {"griffon host links", "griffon-"},
    };

    std::printf("%-20s %8s %8s %8s %8s\n", "links (mean load)", "whole",
                "begin", "middle", "end");
    for (const Row &row : rows) {
        double load[4] = {0, 0, 0, 0};
        std::size_t count = 0;
        for (auto id : trace.containersOfKind(
                 viva::trace::ContainerKind::Link)) {
            const std::string &name = trace.container(id).name;
            if (name.find(row.match) == std::string::npos)
                continue;
            // Host-link rows must not swallow the uplinks.
            if (row.match != "-uplink" &&
                name.find("-uplink") != std::string::npos)
                continue;
            ++count;
            for (int s = 0; s < 4; ++s)
                load[s] += linkLoad(trace, id, slices[s]);
        }
        if (count == 0)
            continue;
        std::printf("%-20s %7.0f%% %7.0f%% %7.0f%% %7.0f%%\n", row.label,
                    100.0 * load[0] / double(count),
                    100.0 * load[1] / double(count),
                    100.0 * load[2] / double(count),
                    100.0 * load[3] / double(count));
    }
}

/** Render the figure's four topology views as SVGs. */
inline void
renderViews(viva::trace::Trace trace, const std::string &out_dir,
            const std::string &prefix)
{
    viva::app::Session session(std::move(trace));
    session.stabilizeLayout(600).value();
    viva::support::okOrDie(
        session.renderSvg(out_dir + "/" + prefix + "_whole.svg",
                          prefix + ": whole execution"),
        "renderViews: " + prefix);
    static const char *names[3] = {"begin", "middle", "end"};
    for (std::size_t i = 0; i < 3; ++i) {
        session.setSliceOf(viva::agg::SliceIndex::fromIndex(i), 3);
        viva::support::okOrDie(
            session.renderSvg(out_dir + "/" + prefix + "_" +
                                  names[i] + ".svg",
                              prefix + ": " + names[i]),
            "renderViews: " + prefix);
    }
}

} // namespace bench

