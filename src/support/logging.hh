/**
 * @file
 * Status and error reporting helpers, modeled after gem5's logging.hh.
 *
 * panic()  -- an internal invariant was violated (a library bug); aborts.
 * fatal()  -- the user asked for something impossible (bad configuration,
 *             malformed trace file, ...); exits with an error code.
 * warn()   -- something is probably not what the user intended, but the
 *             computation can continue.
 * inform() -- plain status information.
 */

#pragma once

#include <sstream>
#include <string>

namespace viva::support
{

/** Severity of a log message. */
enum class LogLevel { Info, Warn, Fatal, Panic };

/**
 * Report a message at the given level.
 *
 * Fatal exits the process with code 1; Panic calls std::abort(). Both are
 * marked [[noreturn]] through the convenience wrappers below.
 *
 * @param level severity
 * @param where short context string (usually function or module name)
 * @param message the text to report
 */
void logMessage(LogLevel level, const std::string &where,
                const std::string &message);

/** Number of warnings emitted so far (useful in tests). */
std::size_t warnCount();

/** Suppress (true) or restore (false) Info/Warn console output. */
void setQuiet(bool quiet);

/**
 * Per-key warning budget for warnLimited(): each key emits at most
 * this many warnings, then one "further warnings suppressed" notice,
 * then silence (counted, not printed). Default: 5.
 */
void setWarnLimit(std::size_t per_key);

/** Warnings swallowed for a key after its budget ran out. */
std::size_t warnSuppressedCount(const std::string &key);

/** Warnings actually emitted for a key. */
std::size_t warnEmittedCount(const std::string &key);

/** Forget every key's counters (tests). */
void resetWarnLimits();

namespace detail
{

/** Fold a pack of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/**
 * Should a warning with this key still be printed? Bumps the key's
 * counters and emits the one-time suppression notice at the boundary.
 */
bool admitWarn(const std::string &key);

} // namespace detail

/** Abort: an internal invariant does not hold. */
template <typename... Args>
[[noreturn]] void
panic(const std::string &where, Args &&...args)
{
    logMessage(LogLevel::Panic, where,
               detail::concat(std::forward<Args>(args)...));
    __builtin_unreachable();
}

/** Exit: the input or configuration makes continuing impossible. */
template <typename... Args>
[[noreturn]] void
fatal(const std::string &where, Args &&...args)
{
    logMessage(LogLevel::Fatal, where,
               detail::concat(std::forward<Args>(args)...));
    __builtin_unreachable();
}

/** Warn and continue. */
template <typename... Args>
void
warn(const std::string &where, Args &&...args)
{
    logMessage(LogLevel::Warn, where,
               detail::concat(std::forward<Args>(args)...));
}

/** Informational message. */
template <typename... Args>
void
inform(const std::string &where, Args &&...args)  // viva-analyze: allow(dead-symbol): the Info tier of the logging API, kept for parity with warn/fatal
{
    logMessage(LogLevel::Info, where,
               detail::concat(std::forward<Args>(args)...));
}

/**
 * Rate-limited warn: at most setWarnLimit() warnings per `key`, then a
 * single suppression notice, then silent counting -- so one corrupt
 * trace (thousands of bad records) cannot flood the console. Counters
 * are readable through warnEmittedCount()/warnSuppressedCount().
 */
template <typename... Args>
void
warnLimited(const std::string &key, const std::string &where,
            Args &&...args)
{
    if (detail::admitWarn(key))
        warn(where, std::forward<Args>(args)...);
}

} // namespace viva::support

/**
 * Assert an invariant with a formatted message; compiled in all build
 * types because simulator correctness matters more than the cycles.
 */
#define VIVA_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::viva::support::panic(__func__, "assertion '", #cond,          \
                                   "' failed: ", __VA_ARGS__);              \
        }                                                                    \
    } while (0)

