/**
 * @file
 * The layout scalability claim (Section 3.3): the basic force-directed
 * algorithm is O(n^2); adopting Barnes-Hut makes one iteration
 * O(n log n), which is what lets the visualization "scale seamlessly
 * to large distributed systems" (2170-host views and beyond).
 *
 * google-benchmark microbenchmarks: one layout step with the naive
 * exact repulsion vs. with the Barnes-Hut tree, over graph sizes
 * 64..16384; plus the tree build alone and the approximation error as
 * a counter.
 */

#include <benchmark/benchmark.h>

#include "layout/force.hh"
#include "layout/graph.hh"
#include "layout/metrics.hh"
#include "layout/quadtree.hh"
#include "support/random.hh"

namespace
{

using viva::layout::ForceLayout;
using viva::layout::LayoutGraph;
using viva::layout::NodeId;

/** A random tree-plus-chords graph of n nodes (grid-like density). */
LayoutGraph
makeGraph(std::size_t n)
{
    viva::support::Rng rng(42);
    LayoutGraph g;
    std::vector<NodeId> ids;
    ids.reserve(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(g.addNode(i, {rng.uniform(0.0, extent),
                                    rng.uniform(0.0, extent)}));
    for (std::size_t i = 1; i < n; ++i)
        g.addEdge(ids[i], ids[rng.index(i)]);
    for (std::size_t i = 0; i < n / 4; ++i) {
        std::size_t a = rng.index(n);
        std::size_t b = rng.index(n);
        if (a != b)
            g.addEdge(ids[a], ids[b]);
    }
    return g;
}

void
BM_LayoutStepNaive(benchmark::State &state)
{
    LayoutGraph g = makeGraph(std::size_t(state.range(0)));
    ForceLayout layout(g);
    layout.params().useBarnesHut = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(layout.step().value());
    state.SetComplexityN(state.range(0));
}

void
BM_LayoutStepBarnesHut(benchmark::State &state)
{
    LayoutGraph g = makeGraph(std::size_t(state.range(0)));
    ForceLayout layout(g);
    layout.params().useBarnesHut = true;
    layout.params().theta = 0.8;
    for (auto _ : state)
        benchmark::DoNotOptimize(layout.step().value());
    state.SetComplexityN(state.range(0));
}

void
BM_QuadTreeBuild(benchmark::State &state)
{
    std::size_t n = std::size_t(state.range(0));
    viva::support::Rng rng(7);
    std::vector<viva::layout::Vec2> pts(n);
    for (auto &p : pts)
        p = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    for (auto _ : state) {
        viva::layout::QuadTree tree({-1, -1}, {1001, 1001});
        for (const auto &p : pts)
            tree.insert(p, 1.0);
        benchmark::DoNotOptimize(tree.cellCount());
    }
    state.SetComplexityN(state.range(0));
}

void
BM_LayoutStepParallel(benchmark::State &state)
{
    // The tentpole speedup: one Barnes-Hut step on a 10k-node graph
    // with the force-accumulation phase fanned over N workers. Results
    // are bitwise identical to threads=1 (the differential tests hold
    // that line); only the wall clock moves.
    LayoutGraph g = makeGraph(10000);
    ForceLayout layout(g);
    layout.params().useBarnesHut = true;
    layout.params().theta = 0.8;
    layout.params().threads = std::size_t(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(layout.step().value());
    state.counters["threads"] = double(state.range(0));
}

void
BM_LayoutStepNaiveParallel(benchmark::State &state)
{
    // The exact O(n^2) sum parallelizes even better (no tree build in
    // the serial fraction); 4096 nodes keeps one iteration sub-second.
    LayoutGraph g = makeGraph(4096);
    ForceLayout layout(g);
    layout.params().useBarnesHut = false;
    layout.params().threads = std::size_t(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(layout.step().value());
    state.counters["threads"] = double(state.range(0));
}

void
BM_BarnesHutAccuracy(benchmark::State &state)
{
    // Not a speed benchmark: reports the mean relative force error for
    // theta = range/10 as a counter, on a 1024-node graph.
    LayoutGraph g = makeGraph(1024);
    double theta = double(state.range(0)) / 10.0;
    double err = 0.0;
    for (auto _ : state)
        err = viva::layout::barnesHutError(g, theta);
    state.counters["rel_error"] = err;
    state.counters["theta"] = theta;
}

} // namespace

BENCHMARK(BM_LayoutStepNaive)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(BM_LayoutStepBarnesHut)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_QuadTreeBuild)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_LayoutStepParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_LayoutStepNaiveParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_BarnesHutAccuracy)->DenseRange(3, 12, 3);

BENCHMARK_MAIN();
