/**
 * @file
 * The analyst-gesture benchmark: workloads, the gesture-list format,
 * the seeded input generator and the closed-loop replay.
 *
 * A gesture is one Session mutation, a bounded relaxation
 * (stabilizeLayout with a cap) and Session::view(); a frame also runs
 * Session::scene() and viz::writeSvg into memory. Gesture lists are
 * plain text, one gesture per line:
 *
 *   level <grid|site|cluster|host> <cap>  depth change, then settle
 *   slice <i> <n> <cap>                   i-th of n equal slices
 *   frame <i> <n> <cap>                   slice + scene + SVG
 *   focus <path> <cap>
 *   aggregate <path> <cap>
 *   disaggregate <path> <cap>
 *   reset <cap>
 *   probe <steps>                         host-level view + force steps
 *   # ...                                 comment
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** The workloads; see METRICS.md for why each exists. */
enum class Workload { G5kTimeline, Synth10kChurn };

/** Parse a workload name ("g5k-timeline", ...). */
std::optional<Workload> parseWorkload(const std::string &name);

/** The workload's command-line name. */
const char *workloadName(Workload w);

/** Gesture kinds of the gesture-list format. */
enum class Op
{
    Level,
    Slice,
    Frame,
    Focus,
    Aggregate,
    Disaggregate,
    Reset,
    Probe,
};

/** One line of a gesture list. */
struct Gesture
{
    Op op = Op::Reset;
    /** Container path (focus / aggregate / disaggregate) or level name. */
    std::string target;
    std::size_t index = 0;   ///< slice index (slice, frame)
    std::size_t parts = 1;   ///< slice count (slice, frame)
    std::size_t iters = 0;   ///< relaxation cap, or probe steps
};

/**
 * Read a gesture list file.
 * @retval false when the file cannot be read or a line is malformed
 */
bool readGestures(const std::string &path, std::vector<Gesture> &out,
                  std::string &error);

/** The file names the generator writes into its input directory. */
inline constexpr const char *kTraceFile = "trace.viva";
inline constexpr const char *kGestureFile = "gestures.txt";
inline constexpr const char *kCommandFile = "commands.txt";

/**
 * Generate a workload's inputs for a seed into `dir`: the native trace
 * file, the gesture list and the same list in the interactive_session
 * command language. The same seed gives byte-identical files. A
 * non-empty `trace_from` names a trace file this generator wrote before
 * for the same trace (g5k-timeline's is one for every seed); it is
 * copied instead of simulating again.
 * @retval false on an I/O failure (message in `error`)
 */
bool generate(Workload w, std::uint64_t seed, const std::string &dir,
              const std::string &trace_from, std::string &error);

/** Options of one benchmark run. */
struct RunOptions
{
    Workload workload = Workload::G5kTimeline;
    std::uint64_t seed = 0;
    std::string dir;          ///< generated inputs
    double seconds = 10.0;    ///< measuring time
    bool traced = false;
    std::size_t threads = 0;  ///< 0: one
    std::string spansPath;    ///< traced runs write their spans here
};

/**
 * Replay the workload's script against fresh sessions for the given
 * time, check the outputs, and print the host header, the per-gesture
 * table and, as the last line, the result JSON.
 * @return process exit code (0 unless the inputs could not be used)
 */
int runBenchmark(const RunOptions &options);

} // namespace perfbench
