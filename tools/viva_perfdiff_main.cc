/**
 * @file
 * viva-perfdiff CLI: compare two BENCH_obs.json exports.
 *
 *   viva-perfdiff <baseline.json> <candidate.json>
 *                 [--threshold FRACTION] [--min-ns NANOS]
 *
 * Exit status: 0 when nothing regressed, 1 when a phase's mean, a
 * phase's call count or a counter did, 2 on usage or parse errors --
 * so a CI step can gate on it directly.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "tools/perfdiff.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: viva-perfdiff <baseline.json> <candidate.json>"
                 " [--threshold FRACTION] [--min-ns NANOS]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path;
    std::string candidate_path;
    viva::perfdiff::DiffOptions options;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--threshold") {
            if (++i >= argc)
                return usage();
            char *end = nullptr;
            options.threshold = std::strtod(argv[i], &end);
            if (end == argv[i] || options.threshold < 0.0)
                return usage();
        } else if (arg == "--min-ns") {
            if (++i >= argc)
                return usage();
            char *end = nullptr;
            options.minSumNanos = std::strtoull(argv[i], &end, 10);
            if (end == argv[i])
                return usage();
        } else if (baseline_path.empty()) {
            baseline_path = arg;
        } else if (candidate_path.empty()) {
            candidate_path = arg;
        } else {
            return usage();
        }
    }
    if (baseline_path.empty() || candidate_path.empty())
        return usage();

    auto baseline = viva::perfdiff::parseObsJsonFile(baseline_path);
    if (!baseline) {
        std::fprintf(stderr, "viva-perfdiff: %s\n",
                     baseline.error().toString().c_str());
        return 2;
    }
    auto candidate = viva::perfdiff::parseObsJsonFile(candidate_path);
    if (!candidate) {
        std::fprintf(stderr, "viva-perfdiff: %s\n",
                     candidate.error().toString().c_str());
        return 2;
    }

    viva::perfdiff::DiffResult result =
        viva::perfdiff::diffExports(*baseline, *candidate, options);
    viva::perfdiff::writeReport(result, std::cout);
    return result.regressions.empty() ? 0 : 1;
}
