/**
 * @file
 * The benchmark's span recorder. Every call the benchmark makes into a
 * layer goes through Recorder::span(), which always times the call
 * (lastMs()) and, when the recorder keeps spans, also logs a (name,
 * begin, end, parent) record in memory. The log is written out as a
 * Chrome trace-event file when the run ends.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds. */
inline std::uint64_t
nowNanos()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

/** One recorded span; parent is kNone for a root. */
struct Span
{
    std::string name;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::size_t parent = 0;
};

class Recorder
{
  public:
    static constexpr std::size_t kNone = std::size_t(-1);

    /** Whether spans are logged (timing happens either way). */
    void setKeeping(bool on) { keep = on; }
    bool keeping() const { return keep; }

    /**
     * Open a span under the innermost open one.
     * @return its index, or kNone when not keeping
     */
    std::size_t
    open(const char *name, std::uint64_t begin)
    {
        if (!keep)
            return kNone;
        spans_.push_back({name, begin, 0, current});
        current = spans_.size() - 1;
        return current;
    }

    /** Close a span opened at `begin`; sets lastMs(). */
    void
    close(std::size_t index, std::uint64_t begin)
    {
        std::uint64_t end = nowNanos();
        last = double(end - begin) / 1e6;
        if (index == kNone)
            return;
        spans_[index].end = end;
        current = spans_[index].parent;
    }

    /** Time a call, logging it as a span when keeping. */
    template <class F>
    decltype(auto)
    span(const char *name, F &&call)
    {
        std::uint64_t begin = nowNanos();
        std::size_t index = open(name, begin);
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            call();
            close(index, begin);
        } else {
            auto result = call();
            close(index, begin);
            return result;
        }
    }

    /** Duration of the most recently closed span, in ms. */
    double lastMs() const { return last; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the log as Chrome trace-event JSON (Perfetto loads it). */
    void
    writeChromeTrace(std::ostream &out) const
    {
        std::uint64_t origin = spans_.empty() ? 0 : spans_.front().begin;
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << double(s.begin - origin) / 1e3
                << ", \"dur\": " << double(s.end - s.begin) / 1e3
                << ", \"args\": {\"id\": " << i << ", \"parent\": "
                << (s.parent == kNone ? -1 : std::int64_t(s.parent))
                << "}}";
        }
        out << "\n]}\n";
    }

  private:
    bool keep = false;
    std::vector<Span> spans_;
    std::size_t current = kNone;
    double last = 0.0;
};

} // namespace perfbench
