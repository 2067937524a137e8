/**
 * @file
 * soak_session: the kill/restart chaos soak for the crash-safe
 * checkpoint layer.
 *
 *   soak_session [--cycles N] [--seed S] [--kill-window-us U]
 *   soak_session worker <ckpt-path> <generation> <loop|once>
 *
 * The parent precomputes the state digest of a small family of
 * deterministic session "generations", then repeatedly spawns a worker
 * process (execv of /proc/self/exe) that rebuilds one generation and
 * writes checkpoints of it in a tight loop with a tiny chunk size --
 * deliberately widening the mid-write kill window. The parent SIGKILLs
 * the worker at a seeded-random offset, restarts, restores the
 * checkpoint and asserts the recovered digest is exactly the previous
 * durable state or the new generation -- never anything else, and never
 * a torn file. Every fifth cycle is graceful (the worker finishes one
 * write and exits) so forward progress is observed deterministically.
 *
 * A second, in-process phase arms every compiled-in fault injection
 * point at low probability and hammers the whole durable-session
 * surface (load / save / checkpoint / restore / layout / render): no
 * operation may crash, every rejection must carry a contextful error,
 * and the session must come back healthy once the storm passes.
 *
 * A third, longevity phase drives one Grid'5000 session through 200
 * seeded cut gestures: its layout graph may never hold more nodes than
 * the cut shows, and at the end its working set must equal that of a
 * fresh session brought to the same cut.
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "agg/timeslice.hh"
#include "app/checkpoint.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/error.hh"
#include "support/fault.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/io.hh"

namespace vap = viva::app;
namespace vp = viva::platform;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

constexpr std::size_t kGenerations = 8;
constexpr std::size_t kWriteChunkBytes = 64;

/**
 * Generation g of the soak state: a pure function of g, so the parent
 * and the exec'd worker compute bitwise-identical sessions.
 */
vap::Session
buildGeneration(std::size_t g)
{
    vap::Session s(vt::makeFigure1Trace());
    s.setThreads(1 + g % 3);
    s.setSliceOf(viva::agg::SliceIndex{std::uint32_t(g % 4)}, 4);
    s.forceParams().charge *= 1.0 + 0.05 * double(g % 5);
    if (!s.moveNode("HostA", 100.0 + 7.0 * double(g),
                    50.0 + 3.0 * double(g)))
        std::abort();
    if (!s.pinNode("HostB", g % 2 == 0))
        std::abort();
    return s;
}

/** Worker: rebuild generation g, then write checkpoints until killed. */
int
runWorker(const std::string &path, std::size_t generation, bool loop)
{
    vap::Session s = buildGeneration(generation);
    do {
        vs::Expected<void> written = s.checkpoint(path);
        if (!written) {
            std::fprintf(stderr, "worker: checkpoint failed: %s\n",
                         written.error().toString().c_str());
            return 2;
        }
    } while (loop);
    return 0;
}

struct Options
{
    std::size_t cycles = 200;
    std::uint64_t seed = 42;
    std::uint64_t killWindowUs = 30'000;
};

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) {
        std::perror("readlink(/proc/self/exe)");
        std::exit(2);
    }
    buf[n] = '\0';
    return buf;
}

/** Spawn a worker process for one generation. */
pid_t
spawnWorker(const std::string &exe, const std::string &path,
            std::size_t generation, bool loop)
{
    pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(2);
    }
    if (pid == 0) {
        std::string gen = std::to_string(generation);
        const char *mode = loop ? "loop" : "once";
        const char *args[] = {exe.c_str(),  "worker", path.c_str(),
                              gen.c_str(), mode,     nullptr};
        ::execv(exe.c_str(), const_cast<char *const *>(args));
        std::perror("execv");
        std::_Exit(2);
    }
    return pid;
}

int
fail(const char *phase, std::size_t cycle, const std::string &detail)
{
    std::fprintf(stderr, "soak_session FAIL [%s, cycle %zu]: %s\n",
                 phase, cycle, detail.c_str());
    return 1;
}

/** The kill/restart phase. @return 0 on success, 1 on failure */
int
runKillRestartPhase(const Options &opt)
{
    const std::string exe = selfExe();
    auto dir = std::filesystem::temp_directory_path() / "viva_soak";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "soak.ckpt").string();
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");

    // The digest table: what a restore is allowed to recover to.
    std::uint64_t digest[kGenerations];
    for (std::size_t g = 0; g < kGenerations; ++g) {
        digest[g] = buildGeneration(g).stateDigest();
        for (std::size_t h = 0; h < g; ++h)
            if (digest[h] == digest[g])
                return fail("setup", g, "generations not distinct");
    }

    // Seed the initial durable state so every cycle has a file.
    {
        vs::Expected<void> seeded =
            buildGeneration(0).checkpoint(path);
        if (!seeded)
            return fail("setup", 0, seeded.error().toString());
    }
    std::uint64_t last_good = digest[0];

    vs::Rng rng(opt.seed);
    std::size_t killed = 0, graceful = 0, advanced = 0, kept = 0;
    for (std::size_t cycle = 0; cycle < opt.cycles; ++cycle) {
        const std::size_t g = cycle % kGenerations;
        const bool kill_cycle = cycle % 5 != 4;

        pid_t pid = spawnWorker(exe, path, g, kill_cycle);
        int status = 0;
        if (kill_cycle) {
            ::usleep(static_cast<useconds_t>(
                rng.index(std::size_t(opt.killWindowUs) + 1)));
            ::kill(pid, SIGKILL);
            ++killed;
        }
        if (::waitpid(pid, &status, 0) != pid)
            return fail("wait", cycle, "waitpid lost the worker");
        if (!kill_cycle) {
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                return fail("graceful", cycle,
                            "worker exited abnormally");
            ++graceful;
        }

        // Recovery: the file must parse (never torn) and restore to
        // exactly the previous durable state or the new generation.
        vs::Expected<vap::CheckpointImage> image =
            vap::readCheckpointFile(path);
        if (!image)
            return fail("recover", cycle,
                        "torn checkpoint: " +
                            image.error().toString());
        vap::Session restored(vt::makeFigure1Trace());
        vs::Expected<void> ok = restored.restore(path);
        if (!ok)
            return fail("recover", cycle, ok.error().toString());
        const std::uint64_t got = restored.stateDigest();
        if (!kill_cycle && got != digest[g])
            return fail("recover", cycle,
                        "graceful cycle did not land on its "
                        "generation digest");
        if (got != last_good && got != digest[g])
            return fail("recover", cycle,
                        "recovered digest matches neither the "
                        "previous durable state nor the new "
                        "generation");
        if (got == digest[g] && got != last_good)
            ++advanced;
        else if (got == last_good && got != digest[g])
            ++kept;
        last_good = got;
    }

    std::printf("kill/restart: %zu cycles (%zu killed, %zu graceful), "
                "%zu advanced, %zu kept the old checkpoint, "
                "0 torn\n",
                opt.cycles, killed, graceful, advanced, kept);
    if (advanced == 0)
        return fail("summary", opt.cycles,
                    "no cycle ever observed a new checkpoint");
    return 0;
}

/** The in-process fault storm. @return 0 on success, 1 on failure */
int
runFaultStormPhase(const Options &opt)
{
    auto dir = std::filesystem::temp_directory_path() / "viva_soak";
    std::filesystem::create_directories(dir);
    const std::string trace_path = (dir / "storm.viva").string();
    const std::string ckpt_path = (dir / "storm.ckpt").string();
    const std::string svg_path = (dir / "storm.svg").string();

    {
        vs::Expected<void> wrote =
            vt::writeTraceFile(vt::makeFigure1Trace(), trace_path);
        if (!wrote)
            return fail("storm-setup", 0, wrote.error().toString());
    }
    vap::Session s = buildGeneration(1);
    s.retryPolicy().maxAttempts = 2;
    {
        vs::Expected<void> seeded = s.checkpoint(ckpt_path);
        if (!seeded)
            return fail("storm-setup", 0, seeded.error().toString());
    }

    vs::FaultSpec spec;
    spec.probability = 0.05;
    spec.seed = opt.seed;
    vs::FaultInjector &inj = vs::FaultInjector::global();
    for (const char *point :
         {"ckpt.read.stream", "ckpt.write.stream", "layout.force.nan",
          "paje.read.stream", "trace.parse.budget",
          "trace.read.stream", "trace.write.stream",
          "viz.write.stream"})
        inj.arm(point, spec);

    std::size_t failures = 0, successes = 0;
    const std::size_t rounds = 120;
    for (std::size_t round = 0; round < rounds; ++round) {
        vs::Expected<void> results[] = {
            s.load(trace_path),
            s.saveTrace(trace_path),
            s.checkpoint(ckpt_path),
            s.restore(ckpt_path),
            s.stepLayout(2),
            s.renderSvg(svg_path),
        };
        for (const vs::Expected<void> &r : results) {
            if (r.ok()) {
                ++successes;
                continue;
            }
            ++failures;
            if (r.error().context().empty())
                return fail("storm", round,
                            "contextless error: " +
                                r.error().toString());
        }
    }
    inj.disarmAll();

    // The storm over, the session must come back fully healthy.
    vs::Expected<void> healthy = s.load(trace_path);
    if (!healthy)
        return fail("storm-after", rounds, healthy.error().toString());
    if (!s.auditInvariants().empty())
        return fail("storm-after", rounds, "invariant audit failed");
    vs::Expected<void> rendered = s.renderSvg(svg_path);
    if (!rendered)
        return fail("storm-after", rounds,
                    rendered.error().toString());

    std::printf("fault storm: %zu operations (%zu ok, %zu rejected "
                "cleanly), session healthy after\n",
                successes + failures, successes, failures);
    if (failures == 0)
        return fail("storm-after", rounds,
                    "the storm never injected a single fault");
    return 0;
}

/** The longevity phase. @return 0 on success, 1 on failure */
int
runLongevityPhase(const Options &opt)
{
    constexpr std::size_t kGestures = 200;
    vt::Trace t;
    vp::TraceMirror mirror = vp::mirrorPlatform(vp::makeGrid5000(), t);
    std::vector<std::string> groups;
    for (vt::ContainerId id : mirror.groupContainer)
        groups.push_back(t.fullName(id));
    vap::Session s(std::move(t));

    vs::Rng rng(opt.seed);
    std::size_t most_visible = 0;
    for (std::size_t gesture = 0; gesture < kGestures; ++gesture) {
        const std::string &group = groups[rng.index(groups.size())];
        bool found = true;
        switch (rng.index(5)) {
        case 0:
            found = s.aggregate(group);
            break;
        case 1:
            found = s.disaggregate(group);
            break;
        case 2:
            found = s.focus(group);
            break;
        case 3:
            s.resetAggregation();
            break;
        default:
            s.aggregateToDepth(std::uint16_t(rng.index(4)));
            break;
        }
        if (!found)
            return fail("longevity", gesture, "unknown group " + group);
        const std::size_t slots = s.layoutGraph().rawNodes().size();
        const std::size_t visible = s.cut().visibleCount();
        if (slots > visible)
            return fail("longevity", gesture,
                        std::to_string(slots) + " layout slots for " +
                            std::to_string(visible) + " visible nodes");
        most_visible = std::max(most_visible, visible);
    }

    // A fresh session starts fully expanded; collapsing the long
    // session's aggregated nodes brings it to the same cut.
    vap::Session fresh{vt::Trace(s.trace())};
    for (vt::ContainerId id : s.cut().visibleNodes())
        if (s.cut().isCollapsed(id) &&
            !fresh.aggregate(s.trace().fullName(id)))
            return fail("longevity", kGestures,
                        "fresh session cannot aggregate " +
                            s.trace().fullName(id));
    if (fresh.cut().visibleNodes() != s.cut().visibleNodes())
        return fail("longevity", kGestures,
                    "fresh session did not reach the same cut");
    if (fresh.workingSetBytes() != s.workingSetBytes())
        return fail("longevity", kGestures,
                    "working set " + std::to_string(s.workingSetBytes()) +
                        " bytes vs " +
                        std::to_string(fresh.workingSetBytes()) +
                        " for a fresh session at the same cut");

    std::printf("longevity: %zu cut gestures (up to %zu visible nodes), "
                "working set %llu bytes, equal to a fresh session at "
                "the same cut\n",
                kGestures, most_visible,
                static_cast<unsigned long long>(s.workingSetBytes()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
        if (argc != 5) {
            std::fprintf(stderr,
                         "usage: soak_session worker <path> <gen> "
                         "<loop|once>\n");
            return 2;
        }
        return runWorker(argv[2],
                         std::size_t(std::strtoull(argv[3], nullptr, 10)),
                         std::strcmp(argv[4], "loop") == 0);
    }

    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "--cycles")
            opt.cycles = std::size_t(std::strtoull(next(), nullptr, 10));
        else if (arg == "--seed")
            opt.seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--kill-window-us")
            opt.killWindowUs = std::strtoull(next(), nullptr, 10);
        else {
            std::fprintf(stderr,
                         "usage: soak_session [--cycles N] [--seed S] "
                         "[--kill-window-us U]\n");
            return 2;
        }
    }

    int rc = runKillRestartPhase(opt);
    if (rc != 0)
        return rc;
    rc = runFaultStormPhase(opt);
    if (rc != 0)
        return rc;
    rc = runLongevityPhase(opt);
    if (rc != 0)
        return rc;
    std::printf("soak_session PASS\n");
    return 0;
}
