/**
 * @file
 * Text serialization of traces. The format is line-based so traces can be
 * produced by external tools, diffed, and checked into test fixtures:
 *
 *   viva-trace 1
 *   container <id> <parent|-> <kind> <name>
 *   metric <id> <nature> <capacityOf|-> <unit> <name>
 *   rel <a> <b>
 *   p <container> <metric> <time> <value>
 *   state <container> <begin> <end> <name>
 *
 * Ids are dense and must appear in increasing order; the root container
 * (id 0) is implicit and never written. Names extend to the end of the
 * line and may contain spaces.
 *
 * Every fallible entry point returns support::Expected -- malformed
 * input, I/O failure or an exhausted parse budget yields a structured
 * Error (code + input line number + file:line chain) instead of killing
 * the process, so an interactive session survives any bad byte.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "support/error.hh"
#include "trace/trace.hh"

namespace viva::trace
{

/**
 * Resource bounds enforced while parsing untrusted input. The defaults
 * are far above anything a legitimate trace produces; adversarial input
 * (a gigabyte-long line, a container bomb) hits them and is rejected
 * with Errc::Budget instead of exhausting memory.
 */
struct ParseBudget
{
    /** Longest accepted input line, in bytes. */
    std::size_t maxLineLength = 1u << 20;

    /** Most containers a single trace may define. */
    std::size_t maxContainers = 1u << 20;

    /** Most metrics a single trace may define. */
    std::size_t maxMetrics = 1u << 16;

    /** Most data records (points, states, rels, Paje events) accepted. */
    std::size_t maxRecords = 1u << 26;
};

/**
 * Reads the lines of a stream through one reused buffer and refuses a
 * line longer than a bound before holding it whole: the readers'
 * defence against a newline-free file.
 */
class LineReader
{
  public:
    /** What next() found. */
    enum class Status
    {
        Line,     ///< a line, in the view passed to next()
        End,      ///< end of input, or a stream failure (check bad())
        TooLong,  ///< a line longer than the bound; stop reading
    };

    /** Read `stream`, refusing lines longer than `max_length` bytes. */
    LineReader(std::istream &stream, std::size_t max_length);

    /**
     * Read the next line, without its '\n', into a view valid until
     * the next call. Pulls at most max_length + 2 characters of a line
     * from the stream: the line itself and the one character after it,
     * the newline or the character that proves the line too long.
     */
    Status next(std::string_view &line);

  private:
    /** The buffer's largest size: a line one byte too long, and a NUL. */
    std::size_t bufferLimit() const;

    std::istream &in;
    std::size_t maxLength;
    std::string buffer;
};

/** Serialize a trace to a stream. */
void writeTrace(const Trace &trace, std::ostream &out);

/** Serialize a trace to a file. */
support::Expected<void> writeTraceFile(const Trace &trace,
                                       const std::string &path);

/** Parse a trace from a stream. */
support::Expected<Trace> readTrace(std::istream &in,
                                   const ParseBudget &budget = {});

/** Parse a trace from a file. */
support::Expected<Trace> readTraceFile(const std::string &path,
                                       const ParseBudget &budget = {});

} // namespace viva::trace
