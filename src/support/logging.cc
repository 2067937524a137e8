/**
 * @file
 * Implementation of the logging helpers.
 */

#include "support/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/obs.hh"

namespace viva::support
{

namespace
{

std::atomic<std::size_t> warnings{0};
std::atomic<bool> quiet{false};

/**
 * warnLimited() bookkeeping lives in the observability registry as two
 * counters per key -- `log.warn.emitted.<key>` and
 * `log.warn.suppressed.<key>` -- so suppression is visible in `stats`
 * like any other metric. limit_mu serialises the read-modify-write in
 * admitWarn() so the limit and the single boundary notice stay exact.
 */
std::mutex limit_mu;
std::size_t warn_limit = 5;

obs::CounterId
emittedCounter(const std::string &key)
{
    return obs::Registry::global().counter("log.warn.emitted." + key);
}

obs::CounterId
suppressedCounter(const std::string &key)
{
    return obs::Registry::global().counter("log.warn.suppressed." + key);
}

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

} // namespace

void
logMessage(LogLevel level, const std::string &where,
           const std::string &message)
{
    if (level == LogLevel::Warn)
        warnings.fetch_add(1, std::memory_order_relaxed);

    bool is_error = level == LogLevel::Fatal || level == LogLevel::Panic;
    if (is_error || !quiet.load(std::memory_order_relaxed)) {
        std::fprintf(is_error ? stderr : stdout, "[%s] %s: %s\n",
                     levelTag(level), where.c_str(), message.c_str());
    }

    if (level == LogLevel::Fatal)
        std::exit(1);
    if (level == LogLevel::Panic)
        std::abort();
}

std::size_t
warnCount()
{
    // viva-analyze: allow(context-on-propagate): atomic load, not Expected
    return warnings.load(std::memory_order_relaxed);
}

void
setQuiet(bool q)
{
    quiet.store(q, std::memory_order_relaxed);
}

void
setWarnLimit(std::size_t per_key)
{
    std::lock_guard<std::mutex> lock(limit_mu);
    warn_limit = per_key;
}

std::size_t
warnSuppressedCount(const std::string &key)
{
    obs::Registry &reg = obs::Registry::global();
    return static_cast<std::size_t>(
        reg.counterValue(suppressedCounter(key)));
}

std::size_t
warnEmittedCount(const std::string &key)
{
    obs::Registry &reg = obs::Registry::global();
    return static_cast<std::size_t>(
        reg.counterValue(emittedCounter(key)));
}

void
resetWarnLimits()
{
    obs::Registry::global().reset("log.warn.");
}

namespace detail
{

bool
admitWarn(const std::string &key)
{
    obs::Registry &reg = obs::Registry::global();
    bool emit;
    bool boundary = false;
    {
        std::lock_guard<std::mutex> lock(limit_mu);
        obs::CounterId emitted = emittedCounter(key);
        if (reg.counterValue(emitted) < warn_limit) {
            reg.add(emitted);
            emit = true;
        } else {
            obs::CounterId suppressed = suppressedCounter(key);
            reg.add(suppressed);
            boundary = reg.counterValue(suppressed) == 1;
            emit = false;
        }
    }
    if (boundary) {
        // The one boundary notice; everything past it is only counted.
        logMessage(LogLevel::Warn, key,
                   "further warnings with this key suppressed "
                   "(see warnSuppressedCount)");
    }
    return emit;
}

} // namespace detail

} // namespace viva::support
