/**
 * @file
 * Workload names, the gesture-list text format and the seeded input
 * generator: the Grid'5000 master-worker trace (the Fig. 8 simulation),
 * the 10k-host synthetic grid with a short simulated history, and one
 * seeded analyst script per workload.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "grid_common.hh"
#include "inputs.hh"
#include "platform/builders.hh"
#include "sim/tracer.hh"
#include "support/random.hh"
#include "support/strings.hh"
#include "trace/io.hh"
#include "workload/masterworker.hh"

namespace perfbench
{

namespace platform = viva::platform;
namespace trace = viva::trace;

namespace
{

/** Force steps of the history probe at script start and end. */
constexpr std::size_t kProbeSteps = 8;

/** Master-worker tasks per application in the Fig. 8 simulation. */
constexpr std::size_t kFig8Tasks = 6000;

/** Timed gestures per script at least, so ten lie beyond its p95. */
constexpr std::size_t kMinScriptGestures = 200;

/** levelDepth() of an unknown level name. */
constexpr std::uint16_t kNoLevel = 0xffff;

/** Fig. 8 level names in walk order, with their aggregation depth. */
struct Level
{
    const char *name;
    std::uint16_t depth;   ///< 0 for host level: fully disaggregated
};
constexpr Level kLevels[] = {
    {"grid", 1}, {"site", 2}, {"cluster", 3}, {"host", 0}};

struct OpName
{
    Op op;
    const char *name;
};
constexpr OpName kOpNames[] = {
    {Op::Level, "level"},         {Op::Slice, "slice"},
    {Op::Frame, "frame"},         {Op::Focus, "focus"},
    {Op::Aggregate, "aggregate"}, {Op::Disaggregate, "disaggregate"},
    {Op::Reset, "reset"},         {Op::Probe, "probe"},
};

const char *
opName(Op op)
{
    for (const OpName &o : kOpNames)
        if (o.op == op)
            return o.name;
    return "?";
}

/** Paths of every container of a kind, in id order. */
std::vector<std::string>
pathsOfKind(const trace::Trace &t, trace::ContainerKind kind)
{
    std::vector<std::string> out;
    for (trace::ContainerId id : t.containersOfKind(kind))
        out.push_back(t.fullName(id));
    return out;
}

/** Uniform pick from a non-empty list. */
const std::string &
pick(viva::support::Rng &rng, const std::vector<std::string> &from)
{
    return from[std::size_t(
        rng.uniformInt(0, std::int64_t(from.size()) - 1))];
}

/**
 * A seeded permutation (Fisher-Yates). Scripts visit every cluster once
 * in this order, so each seed focuses the same set of containers and
 * only the order changes.
 */
std::vector<std::string>
shuffled(viva::support::Rng &rng, std::vector<std::string> v)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[std::size_t(rng.uniformInt(
                                0, std::int64_t(i) - 1))]);
    return v;
}

/**
 * The history probe, run at script start and end: several back-to-back
 * host-level probes, so drift compares medians rather than single runs.
 */
void
addProbes(std::vector<Gesture> &s)
{
    for (int i = 0; i < 5; ++i)
        s.push_back({Op::Probe, "", 0, 1, kProbeSteps});
}

/** The Fig. 8 walk: every level settled under its cap, then rendered. */
void
addLevelWalk(std::vector<Gesture> &s, std::size_t cap,
             std::size_t host_cap, std::size_t frame_cap)
{
    for (const Level &l : kLevels) {
        s.push_back({Op::Level, l.name, 0, 1,
                     l.depth == 0 ? host_cap : cap});
        s.push_back({Op::Frame, "", 0, 1, frame_cap});
    }
}

/** Names the scripts draw focus and aggregate targets from. */
struct Targets
{
    std::vector<std::string> sites;
    std::vector<std::string> clusters;
};

Targets
targetsOf(const trace::Trace &t)
{
    return {pathsOfKind(t, trace::ContainerKind::Site),
            pathsOfKind(t, trace::ContainerKind::Cluster)};
}

/**
 * g5k-timeline: the Fig. 8 walk, then an animation sweep over seeded
 * time slices at cluster and host level with occasional depth switches,
 * and an outlier-hunting focus on every cluster, spread over the sweep.
 */
std::vector<Gesture>
timelineScript(std::uint64_t seed, const Targets &t)
{
    viva::support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    std::vector<Gesture> s;
    addProbes(s);
    addLevelWalk(s, 300, 120, 5);
    const std::size_t parts = 400;
    std::size_t next = std::size_t(rng.uniformInt(0, parts - 1));
    std::vector<std::string> clusters = shuffled(rng, t.clusters);
    std::size_t focused = 0;
    for (std::size_t block = 0; block < 12; ++block) {
        bool host = block % 4 == 3;
        s.push_back({Op::Level, host ? "host" : "cluster", 0, 1, 20});
        std::size_t frames = host ? 6 : 24;
        for (std::size_t f = 0; f < frames; ++f) {
            // Mostly frames; every fourth step is a slice change the
            // analyst scrubs through without rendering.
            Op op = f % 4 == 3 ? Op::Slice : Op::Frame;
            s.push_back({op, "", next, parts, 3});
            next = (next + 1 + std::size_t(rng.uniformInt(0, 2))) % parts;
        }
        // Spread the clusters evenly over the blocks.
        for (; focused < clusters.size() * (block + 1) / 12; ++focused) {
            s.push_back({Op::Focus, clusters[focused], 0, 1, 10});
            s.push_back({Op::Reset, "", 0, 1, 10});
        }
    }
    s.push_back({Op::Reset, "", 0, 1, 10});
    addProbes(s);
    return s;
}

/**
 * synth10k-churn: the level walk, then seeded cut changes (focus and
 * reset, aggregate and disaggregate of sites, depth walks) with slice
 * frames at cluster level.
 *
 * The mix keeps each percentile inside a group of like gestures, away
 * from the gaps between them, so a reading does not jump with the seed:
 * the 13 heaviest gestures (focus and site level from host level, and
 * the walk's grid level) hold the top 5%, and the cheap site
 * aggregations and disaggregations are most of the cut class.
 */
std::vector<Gesture>
churnScript(std::uint64_t seed, const Targets &t)
{
    viva::support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
    std::vector<Gesture> s;
    addProbes(s);
    addLevelWalk(s, 30, 6, 2);
    std::vector<std::string> clusters = shuffled(rng, t.clusters);
    for (std::size_t cycle = 0; cycle < 6; ++cycle) {
        // Focus from host level removes nearly every node: the
        // heaviest cut change there is.
        s.push_back({Op::Focus, clusters[cycle], 0, 1, 2});
        s.push_back({Op::Reset, "", 0, 1, 2});
        s.push_back({Op::Level, "site", 0, 1, 4});
        s.push_back({Op::Disaggregate, pick(rng, t.sites), 0, 1, 2});
        s.push_back({Op::Level, "cluster", 0, 1, 4});
        for (std::size_t f = 0; f < 24; ++f) {
            Op op = f % 4 == 3 ? Op::Slice : Op::Frame;
            s.push_back({op, "", std::size_t(rng.uniformInt(0, 49)), 50, 2});
        }
        for (int pair = 0; pair < 4; ++pair) {
            const std::string &site = pick(rng, t.sites);
            s.push_back({Op::Aggregate, site, 0, 1, 2});
            s.push_back({Op::Disaggregate, site, 0, 1, 2});
        }
        s.push_back({Op::Level, "host", 0, 1, 2});
    }
    s.push_back({Op::Reset, "", 0, 1, 2});
    addProbes(s);
    return s;
}

bool
writeText(const std::string &path, const std::string &text,
          std::string &error)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
        error = "cannot write '" + path + "'";
        return false;
    }
    return true;
}

/** The gesture list as an interactive_session command script. */
std::string
commandScript(Workload w, std::uint64_t seed,
              const std::vector<Gesture> &script)
{
    std::ostringstream out;
    out << "# " << workloadName(w) << " seed " << seed
        << ": replay with\n#   interactive_session " << kTraceFile << " "
        << kCommandFile << "\n";
    out << "stabilize " << setupIters(w) << "\n";
    for (const Gesture &g : script) {
        switch (g.op) {
        case Op::Level: {
            std::uint16_t depth = levelDepth(g.target);
            if (depth == 0)
                out << "reset\n";
            else
                out << "depth " << depth << "\n";
            break;
        }
        case Op::Slice:
        case Op::Frame:
            out << "slice-of " << g.index << " " << g.parts << "\n";
            break;
        case Op::Focus:
        case Op::Aggregate:
        case Op::Disaggregate:
            out << opName(g.op) << " " << g.target << "\n";
            break;
        case Op::Reset:
            out << "reset\n";
            break;
        case Op::Probe:
            // The command language has no fixed-step command.
            out << "# probe: host-level view plus " << g.iters
                << " force steps; stabilize may stop before them\n";
            break;
        }
        out << "stabilize " << g.iters << "\n";
        if (g.op == Op::Frame)
            out << "render frame.svg\n";
    }
    return out.str();
}

/** One gesture as a line (without newline). */
std::string
formatGesture(const Gesture &g)
{
    std::ostringstream out;
    out << opName(g.op);
    switch (g.op) {
    case Op::Slice:
    case Op::Frame:
        out << " " << g.index << " " << g.parts;
        break;
    case Op::Level:
    case Op::Focus:
    case Op::Aggregate:
    case Op::Disaggregate:
        out << " " << g.target;
        break;
    case Op::Reset:
    case Op::Probe:
        break;
    }
    out << " " << g.iters;
    return out.str();
}

/** One gesture line; nullopt when malformed. */
std::optional<Gesture>
parseGesture(const std::string &line)
{
    std::vector<std::string> f = viva::support::splitWhitespace(line);
    if (f.empty())
        return std::nullopt;
    Gesture g;
    bool known = false;
    for (const OpName &o : kOpNames)
        if (f[0] == o.name) {
            g.op = o.op;
            known = true;
        }
    if (!known)
        return std::nullopt;
    std::size_t want = 2;
    if (g.op == Op::Slice || g.op == Op::Frame)
        want = 4;
    else if (g.op == Op::Level || g.op == Op::Focus ||
             g.op == Op::Aggregate || g.op == Op::Disaggregate)
        want = 3;
    if (f.size() != want || !viva::support::parseSize(f.back(), g.iters))
        return std::nullopt;
    if (want == 4 && (!viva::support::parseSize(f[1], g.index) ||
                      !viva::support::parseSize(f[2], g.parts) ||
                      g.parts == 0 || g.index >= g.parts))
        return std::nullopt;
    if (want == 3)
        g.target = f[1];
    if (g.op == Op::Level && levelDepth(g.target) == kNoLevel)
        return std::nullopt;
    return g;
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::G5kTimeline, Workload::Synth10kChurn})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::G5kTimeline:
        return "g5k-timeline";
    case Workload::Synth10kChurn:
        return "synth10k-churn";
    }
    return "?";
}

std::uint16_t
levelDepth(const std::string &level)
{
    for (const Level &l : kLevels)
        if (level == l.name)
            return l.depth;
    return kNoLevel;
}

std::size_t
setupIters(Workload w)
{
    return w == Workload::Synth10kChurn ? 10 : 60;
}

bool
readGestures(const std::string &path, std::vector<Gesture> &out,
             std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read '" + path + "'";
        return false;
    }
    std::string line;
    std::size_t number = 0;
    while (std::getline(in, line)) {
        ++number;
        std::string stripped = viva::support::trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        std::optional<Gesture> g = parseGesture(stripped);
        if (!g) {
            error = path + ":" + std::to_string(number) +
                    ": malformed gesture '" + stripped + "'";
            return false;
        }
        out.push_back(*g);
    }
    return true;
}

platform::Platform
buildPlatform(Workload w, std::uint64_t seed)
{
    if (w == Workload::G5kTimeline)
        return platform::makeGrid5000();
    viva::support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 4);
    return platform::makeSyntheticGrid(10, 10, 100, rng);
}

Simulation
simulate(Workload w, std::uint64_t seed)
{
    Simulation out;
    if (w == Workload::G5kTimeline) {
        bench::GridOutcome o = bench::runGridScenario(
            viva::workload::MwPolicy::BandwidthCentric, kFig8Tasks);
        auto all = [](const std::vector<std::size_t> &per_worker) {
            std::size_t done = 0;
            for (std::size_t n : per_worker)
                done += n;
            return done == kFig8Tasks;
        };
        out.drained = all(o.tasksApp1) && all(o.tasksApp2);
        out.solves = o.solves;
        out.trace = std::move(o.trace);
        return out;
    }
    // A short history: every host runs one to three seeded compute jobs
    // of whole-second length, started on a 10-second grid, so each host
    // carries a few change points and the solver runs only at a few
    // hundred instants.
    platform::Platform grid = buildPlatform(w, seed);
    viva::support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 5);
    viva::sim::SimulationRun run(grid);
    for (platform::HostId h{0}; h.index() < grid.hostCount(); ++h) {
        std::int64_t jobs = rng.uniformInt(1, 3);
        for (std::int64_t j = 0; j < jobs; ++j) {
            double start = 10.0 * double(rng.uniformInt(0, 9));
            double mflop =
                grid.host(h).powerMflops * double(rng.uniformInt(2, 20));
            run.engine.at(start, [&run, h, mflop] {
                run.engine.startCompute(h, mflop, [] {});
            });
        }
    }
    run.engine.run();
    out.drained = run.engine.idle();
    out.solves = run.engine.fairShareRuns();
    out.trace = std::move(run.trace);
    return out;
}

bool
generate(Workload w, std::uint64_t seed, const std::string &dir,
         const std::string &trace_from, std::string &error)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        error = "cannot create '" + dir + "': " + ec.message();
        return false;
    }

    const std::string trace_file = dir + "/" + kTraceFile;
    Simulation sim;
    if (trace_from.empty()) {
        sim = simulate(w, seed);
        if (!sim.drained) {
            error = "the input simulation did not drain";
            return false;
        }
        viva::support::Expected<void> written =
            trace::writeTraceFile(sim.trace, trace_file);
        if (!written) {
            error = written.error().toString();
            return false;
        }
    } else {
        auto loaded = trace::readTraceFile(trace_from);
        if (!loaded) {
            error = loaded.error().toString();
            return false;
        }
        sim.trace = std::move(*loaded);
        std::filesystem::copy_file(
            trace_from, trace_file,
            std::filesystem::copy_options::overwrite_existing, ec);
        if (ec) {
            error = "cannot copy '" + trace_from + "': " + ec.message();
            return false;
        }
    }

    Targets targets = targetsOf(sim.trace);
    if (targets.sites.empty() || targets.clusters.empty()) {
        error = "the generated trace has no sites or clusters";
        return false;
    }
    std::vector<Gesture> script = w == Workload::G5kTimeline
                                      ? timelineScript(seed, targets)
                                      : churnScript(seed, targets);
    std::size_t timed = std::size_t(std::count_if(
        script.begin(), script.end(),
        [](const Gesture &g) { return g.op != Op::Probe; }));
    if (timed < kMinScriptGestures) {
        error = "the script has " + std::to_string(timed) +
                " gestures; p95 needs " + std::to_string(kMinScriptGestures);
        return false;
    }

    std::ostringstream list;
    list << "# " << workloadName(w) << " seed " << seed << ", "
         << script.size() << " gestures\n";
    for (const Gesture &g : script)
        list << formatGesture(g) << "\n";
    return writeText(dir + "/" + kGestureFile, list.str(), error) &&
           writeText(dir + "/" + kCommandFile,
                     commandScript(w, seed, script), error);
}

} // namespace perfbench
