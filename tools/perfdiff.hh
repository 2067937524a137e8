/**
 * @file
 * viva-perfdiff: compare two "viva-obs-1" observability exports and
 * flag performance regressions.
 *
 * The bench side (bench/obs_export.cc) runs a representative workload
 * and dumps the metrics registry as BENCH_obs.json; this library parses
 * two such exports and reports every phase whose mean duration grew
 * beyond a noise threshold, and every work count that grew at all: a
 * phase's call count or a counter. The parser is dependency-free and
 * accepts
 * exactly the subset of JSON that support::obs::writeJson() emits
 * (objects, arrays, strings, integers), so the golden-file test on the
 * export schema also pins what this tool can read.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "support/error.hh"

namespace viva::perfdiff
{

/** One phase histogram from an export (buckets are not compared). */
struct PhaseStats
{
    std::uint64_t count = 0;
    std::uint64_t sumNanos = 0;
    std::uint64_t meanNanos = 0;
};

/** One parsed "viva-obs-1" export. */
struct ObsExport
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, PhaseStats> phases;
};

/** Parse an export; Errc::Parse on malformed input or wrong schema. */
support::Expected<ObsExport> parseObsJson(std::istream &in);

/** Parse an export file; Errc::Io when it cannot be opened. */
support::Expected<ObsExport> parseObsJsonFile(const std::string &path);

/** Regression detection knobs. */
struct DiffOptions
{
    /** Flag a phase when candidate mean > baseline mean * (1 + this). */
    double threshold = 0.10;

    /**
     * Ignore phases whose baseline total is below this many
     * nanoseconds: micro-phases are all scheduling noise.
     */
    std::uint64_t minSumNanos = 1000000;
};

/** What a regression measures. */
enum class Measure
{
    MeanNanos,  ///< a phase's mean duration, beyond the threshold
    Calls,      ///< a phase's call count
    Counter,    ///< a counter's value
};

/** One flagged phase or counter. */
struct Regression
{
    std::string name;
    Measure measure = Measure::MeanNanos;
    std::uint64_t baseline = 0;
    std::uint64_t candidate = 0;

    /** candidate / baseline (infinite when the baseline is 0). */
    double ratio = 0.0;
};

/** The full comparison outcome. */
struct DiffResult
{
    std::vector<Regression> regressions;

    /**
     * Not failures: phases skipped (too small, missing on one side),
     * counters missing on one side, and work counts that dropped.
     */
    std::vector<std::string> notes;
};

/**
 * Compare a candidate export against a baseline: a phase's mean
 * duration regresses beyond options.threshold (above the noise floor);
 * a phase's call count or a counter regresses when it grows at all,
 * since a work count carries no timing noise. A drop is a note.
 */
DiffResult diffExports(const ObsExport &baseline,
                       const ObsExport &candidate,
                       const DiffOptions &options = {});

/** Human-readable report of a comparison. */
void writeReport(const DiffResult &result, std::ostream &out);

} // namespace viva::perfdiff
