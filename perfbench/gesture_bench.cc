/**
 * @file
 * Command-line entry of the analyst-gesture benchmark:
 *
 *   gesture_bench gen --workload W --seed N --dir D [--trace-from F]
 *       write the seeded inputs of a workload into D; F is a trace file
 *       an earlier gen wrote for the same trace, copied, not simulated
 *   gesture_bench run --workload W --seed N --dir D --seconds S
 *                     --trace 0|1 [--threads N] [--spans F]
 *       replay them and print the result JSON as the last line
 *
 * perfbench/run.py builds this program and drives both steps.
 */

#include <cstdio>
#include <string>

#include "bench.hh"
#include "support/strings.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: gesture_bench gen --workload W --seed N --dir D "
                 "[--trace-from F]\n"
                 "       gesture_bench run --workload W --seed N --dir D "
                 "--seconds S --trace 0|1\n"
                 "                         [--threads N] [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    perfbench::RunOptions opt;
    std::string workload;
    std::string trace_from;
    bool seeded = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        std::size_t n = 0;
        bool ok = true;
        if (flag == "--workload")
            workload = value;
        else if (flag == "--dir")
            opt.dir = value;
        else if (flag == "--spans")
            opt.spansPath = value;
        else if (flag == "--trace-from")
            trace_from = value;
        else if (flag == "--seed") {
            ok = seeded = viva::support::parseSize(value, n);
            opt.seed = n;
        }
        else if (flag == "--seconds")
            ok = viva::support::parseDouble(value, opt.seconds) &&
                 opt.seconds > 0;
        else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            opt.traced = value == "1";
        }
        else if (flag == "--threads")
            ok = viva::support::parseSize(value, opt.threads);
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "gesture_bench: bad option %s %s\n",
                         flag.c_str(), value.c_str());
            return usage();
        }
    }
    if (argc % 2 != 0 || !seeded || opt.dir.empty())
        return usage();
    std::optional<perfbench::Workload> w =
        perfbench::parseWorkload(workload);
    if (!w) {
        std::fprintf(stderr, "gesture_bench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    opt.workload = *w;

    if (mode == "gen") {
        std::string error;
        if (!perfbench::generate(*w, opt.seed, opt.dir, trace_from, error)) {
            std::fprintf(stderr, "gesture_bench: %s\n", error.c_str());
            return 1;
        }
        return 0;
    }
    if (mode == "run")
        return perfbench::runBenchmark(opt);
    return usage();
}
