/**
 * @file
 * End-to-end latency of the analyst's gestures at the paper's largest
 * scale (the 2170-host Grid'5000 trace): changing the time slice,
 * aggregating/disaggregating, recomputing the view, composing the
 * scene, one layout iteration. The paper's thesis is that multiscale
 * aggregation + Barnes-Hut keep the analysis *interactive*; these
 * numbers are that claim measured, gesture by gesture.
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/random.hh"
#include "viz/svg.hh"

namespace
{

/** The shared session over the mirrored Grid'5000 topology. */
viva::app::Session &
gridSession()
{
    static viva::app::Session session = [] {
        viva::platform::Platform p = viva::platform::makeGrid5000();
        viva::trace::Trace t;
        auto mirror = viva::platform::mirrorPlatform(p, t);
        // Synthetic utilization so fills and pies have data.
        viva::support::Rng rng(3);
        for (viva::platform::HostId h{0}; h.index() < p.hostCount(); ++h) {
            t.variable(mirror.hostContainer[h.index()], mirror.powerUsed)
                .set(0.0, rng.uniform(0.0, p.host(h).powerMflops));
        }
        viva::app::Session s(std::move(t));
        s.stabilizeLayout(100).value();
        return s;
    }();
    return session;
}

void
BM_GestureTimeSlice(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.aggregateToDepth(3);  // cluster view
    double t = 0.0;
    for (auto _ : state) {
        s.setTimeSlice({t, t + 1.0});
        benchmark::DoNotOptimize(s.view());
        t += 0.01;
    }
}

void
BM_GestureAggregateDisaggregate(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.resetAggregation();
    for (auto _ : state) {
        s.aggregate("grenoble");
        s.disaggregate("grenoble");
    }
}

void
BM_GestureDepthChange(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    for (auto _ : state) {
        s.aggregateToDepth(2);
        s.aggregateToDepth(3);
    }
}

void
BM_GestureFocus(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    for (auto _ : state) {
        s.focus("sagittaire");
        s.resetAggregation();
    }
}

void
BM_SceneComposeClusterLevel(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.aggregateToDepth(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.scene());
}

void
BM_SceneComposeHostLevel(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.resetAggregation();
    for (auto _ : state)
        benchmark::DoNotOptimize(s.scene());
}

void
BM_LayoutIterationHostLevel(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.resetAggregation();
    for (auto _ : state)
        s.stepLayout(1).value();
}

void
BM_SvgRenderClusterLevel(benchmark::State &state)
{
    viva::app::Session &s = gridSession();
    s.aggregateToDepth(3);
    viva::viz::Scene scene = s.scene();
    for (auto _ : state) {
        std::ostringstream out;
        viva::viz::writeSvg(scene, out);
        benchmark::DoNotOptimize(out.str().size());
    }
}

void
BM_SvgRenderHostLevel(benchmark::State &state)
{
    // Every host, link and router visible (4432 nodes): the frame
    // size where the SVG writer's per-number cost shows.
    viva::app::Session &s = gridSession();
    s.resetAggregation();
    viva::viz::Scene scene = s.scene();
    for (auto _ : state) {
        std::ostringstream out;
        viva::viz::writeSvg(scene, out);
        benchmark::DoNotOptimize(out.str().size());
    }
    state.counters["nodes"] = double(scene.nodes.size());
}

} // namespace

BENCHMARK(BM_GestureTimeSlice)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GestureAggregateDisaggregate)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GestureDepthChange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GestureFocus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SceneComposeClusterLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SceneComposeHostLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LayoutIterationHostLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvgRenderClusterLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvgRenderHostLevel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
