/**
 * @file
 * Throughput of the trace substrate's serialization paths on three
 * payloads: the full Fig. 6 NAS-DT trace (56 containers, ~1400 change
 * points, 200 states), the mirrored 2170-host Grid'5000 skeleton (no
 * points), and a 10,000-host synthetic grid with 24 seeded change
 * points per host (240k points, the record mix of the Fig. 8 trace),
 * in both the native viva format and the Paje format. Postmortem
 * analysis lives and dies by trace load time.
 *
 * The read benchmarks fail the run unless the read succeeds and the
 * trace it yields writes back: byte for byte in the native format, line
 * for line in Paje (see sortedLines). ctest runs one short pass of them
 * (bench.trace_io_perf_smoke).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "trace/io.hh"
#include "trace/paje.hh"
#include "workload/nasdt.hh"

namespace
{

const viva::trace::Trace &
nasdtTrace()
{
    static viva::trace::Trace trace = [] {
        viva::platform::Platform plat =
            viva::platform::makeTwoClusterPlatform();
        viva::sim::SimulationRun run(plat);
        viva::workload::DtParams params;
        params.cycles = 20;
        params.recordStates = true;
        viva::workload::runNasDtWhiteHole(
            run, params,
            viva::workload::sequentialDeployment(plat, params));
        return std::move(run.trace);
    }();
    return trace;
}

const viva::trace::Trace &
gridTrace()
{
    static viva::trace::Trace trace = [] {
        viva::platform::Platform p = viva::platform::makeGrid5000();
        viva::trace::Trace t;
        viva::platform::mirrorPlatform(p, t);
        return t;
    }();
    return trace;
}

const viva::trace::Trace &
pointTrace()
{
    static viva::trace::Trace trace = [] {
        viva::support::Rng rng(17);
        viva::platform::Platform p =
            viva::platform::makeSyntheticGrid(10, 10, 100, rng);
        viva::trace::Trace t;
        auto mirror = viva::platform::mirrorPlatform(p, t);
        viva::support::Rng vals(19);
        for (auto c : mirror.hostContainer) {
            viva::trace::Variable &v = t.variable(c, mirror.powerUsed);
            double time = 0.0;
            for (int k = 0; k < 24; ++k) {
                v.set(time, vals.uniform(0.0, 5000.0));
                time += vals.uniform(0.5, 2.0);
            }
        }
        return t;
    }();
    return trace;
}

/** The payload selected by the benchmark argument. */
const viva::trace::Trace &
payload(const benchmark::State &state)
{
    switch (state.range(0)) {
      case 0: return nasdtTrace();
      case 1: return gridTrace();
      default: return pointTrace();
    }
}

std::string
vivaText(const viva::trace::Trace &trace)
{
    std::ostringstream out;
    viva::trace::writeTrace(trace, out);
    return out.str();
}

void
BM_WriteViva(benchmark::State &state)
{
    const auto &trace = payload(state);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream out;
        viva::trace::writeTrace(trace, out);
        bytes = out.str().size();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["bytes"] = double(bytes);
}

void
BM_ReadViva(benchmark::State &state)
{
    const std::string text = vivaText(payload(state));
    for (auto _ : state) {
        std::istringstream in(text);
        auto result = viva::trace::readTrace(in);
        if (!result) {
            state.SkipWithError(result.error().toString().c_str());
            return;
        }
        benchmark::DoNotOptimize(result->containerCount());
        state.PauseTiming();
        bool same = vivaText(*result) == text;
        state.ResumeTiming();
        if (!same) {
            state.SkipWithError("the read trace does not write back "
                                "byte for byte");
            return;
        }
    }
    state.counters["bytes"] = double(text.size());
}

std::string
pajeText(const viva::trace::Trace &trace)
{
    std::ostringstream out;
    viva::trace::writePajeTrace(trace, out);
    return out.str();
}

/**
 * The lines of a Paje text in sorted order. The reader rebuilds the
 * state log in PopState order, so the writer may order state events
 * that share a timestamp differently on the way back (the NAS-DT
 * payload has such ties); every line must still come back.
 */
std::vector<std::string>
sortedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
BM_WritePaje(benchmark::State &state)
{
    const auto &trace = payload(state);
    for (auto _ : state) {
        std::ostringstream out;
        viva::trace::writePajeTrace(trace, out);
        benchmark::DoNotOptimize(out.str().size());
    }
}

void
BM_ReadPaje(benchmark::State &state)
{
    const std::string text = pajeText(payload(state));
    const std::vector<std::string> lines = sortedLines(text);
    for (auto _ : state) {
        std::istringstream in(text);
        auto result = viva::trace::readPajeTrace(in);
        if (!result) {
            state.SkipWithError(result.error().toString().c_str());
            return;
        }
        benchmark::DoNotOptimize(result->trace.containerCount());
        state.PauseTiming();
        bool same = sortedLines(pajeText(result->trace)) == lines;
        state.ResumeTiming();
        if (!same) {
            state.SkipWithError("the read trace does not write back "
                                "the same lines");
            return;
        }
    }
    state.counters["bytes"] = double(text.size());
}

} // namespace

// 0 = the NAS-DT trace, 1 = the Grid'5000 skeleton, 2 = the
// point-dense synthetic grid.
BENCHMARK(BM_WriteViva)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadViva)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WritePaje)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadPaje)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
