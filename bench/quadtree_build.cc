/**
 * @file
 * Microbenchmarks of the Barnes-Hut quadtree at the paper's 2170-host
 * scale (Grid'5000), the 4432-node host level of the Grid'5000 trace,
 * and a 20k-node view:
 *
 *  - build(): Morton sort + bottom-up emission into the SoA arena, both
 *    cold (fresh tree) and warm (arena reused, the per-iteration path
 *    of the force layout);
 *  - the grouped field: one walk per group plus the vectorised list
 *    evaluation, for every body, reported in ns per body, with the
 *    lane count of the field kernel this CPU ran.
 *
 * The field benchmark first checks the field against the exact sum on
 * a sample of bodies and aborts when it is off, so its ctest smoke run
 * (bench.quadtree_build_smoke) fails on a broken field.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "layout/quadtree.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace
{

using viva::layout::QuadTree;
using viva::layout::Vec2;

/** A deterministic body cloud of n points (grid-like density). */
std::vector<QuadTree::Body>
makeBodies(std::size_t n)
{
    viva::support::Rng rng(42);
    std::vector<QuadTree::Body> bodies;
    bodies.reserve(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (std::size_t i = 0; i < n; ++i)
        bodies.push_back({{rng.uniform(0.0, extent),
                           rng.uniform(0.0, extent)},
                          rng.uniform(0.5, 4.0)});
    return bodies;
}

/** The field at every body, one groupField call per group. */
void
fieldOf(const QuadTree &tree, double theta, std::vector<Vec2> &field)
{
    for (std::size_t g = 0; g < tree.groupCount(); ++g)
        tree.groupField(g, theta, field);
}

/**
 * Mean relative error of the field against the exact sum over every
 * 64th body.
 */
double
sampledError(const std::vector<QuadTree::Body> &bodies,
             const std::vector<Vec2> &field)
{
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < bodies.size(); i += 64) {
        Vec2 exact;
        for (const auto &b : bodies) {
            Vec2 d = bodies[i].position - b.position;
            double dist = d.norm();
            if (dist < 1e-9)
                continue;
            exact += d * (b.charge / (dist * dist * dist));
        }
        sum += (field[i] - exact).norm() / exact.norm();
        ++count;
    }
    return sum / double(count);
}

void
BM_QuadTreeBuildArenaCold(benchmark::State &state)
{
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    for (auto _ : state) {
        QuadTree tree;
        tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
        benchmark::DoNotOptimize(tree.cellCount());
    }
    state.SetComplexityN(state.range(0));
}

void
BM_QuadTreeBuildArenaWarm(benchmark::State &state)
{
    // The steady state of an iterating layout: the same tree object
    // rebuilt every step, arena capacity already grown.
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    QuadTree tree;
    tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
    for (auto _ : state) {
        tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
        benchmark::DoNotOptimize(tree.cellCount());
    }
    state.SetComplexityN(state.range(0));
}

void
BM_QuadTreeField(benchmark::State &state)
{
    // The force layout's repulsion pass on one thread at theta 0.8.
    std::size_t n = std::size_t(state.range(0));
    std::vector<QuadTree::Body> bodies = makeBodies(n);
    double extent = 50.0 * std::sqrt(double(n));
    QuadTree tree;
    tree.build({-1.0, -1.0}, {extent + 1.0, extent + 1.0}, bodies);
    std::vector<Vec2> field(n);
    fieldOf(tree, 0.8, field);
    const double err = sampledError(bodies, field);
    VIVA_ASSERT(err < 0.05, "grouped field is off: mean relative error ",
                err);
    for (auto _ : state) {
        fieldOf(tree, 0.8, field);
        benchmark::DoNotOptimize(field.data());
    }
    // Seconds per body, printed with an SI prefix ("484n" = 484 ns).
    state.counters["per_body"] = benchmark::Counter(
        double(n), benchmark::Counter::kIsIterationInvariantRate |
                       benchmark::Counter::kInvert);
    state.counters["groups"] = double(tree.groupCount());
    state.counters["rel_error"] = err;
    // Doubles per vector operation of the kernel that ran: 2 (baseline
    // ISA), 4 (AVX2) or 8 (AVX-512).
    state.counters["lanes"] = double(int(QuadTree::kernel()));
}

} // namespace

// 2170 is the paper's Grid'5000 host count; 4432 nodes is the
// host-level view of the Grid'5000 trace.
BENCHMARK(BM_QuadTreeBuildArenaCold)
    ->Arg(512)->Arg(2170)->Arg(8192)->Complexity();
BENCHMARK(BM_QuadTreeBuildArenaWarm)
    ->Arg(512)->Arg(2170)->Arg(8192)->Complexity();
BENCHMARK(BM_QuadTreeField)
    ->Arg(2170)->Arg(4432)->Arg(20000)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
