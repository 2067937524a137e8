/**
 * @file
 * Implementation of the operation deadline and the governor counters.
 */

#include "support/governor.hh"

#include <limits>

#include "support/clock.hh"
#include "support/obs.hh"

namespace viva::support
{

Deadline
Deadline::after(std::uint64_t budget_nanos)
{
    Deadline d;
    if (budget_nanos == 0)
        return d;
    std::uint64_t now = clock().nowNanos();
    constexpr std::uint64_t latest =
        std::numeric_limits<std::uint64_t>::max();
    d.at = budget_nanos > latest - now ? latest : now + budget_nanos;
    return d;
}

bool
Deadline::passed() const
{
    return clock().nowNanos() >= at;
}

void
noteDeadlineAbort()
{
    // Aborts are rare; registering the name on each one is a map
    // lookup, not a hot-path cost (same policy as fault.fired.*).
    obs::Registry &reg = obs::Registry::global();
    reg.add(reg.counter("governor.deadline_aborts"));
}

void
noteDegradation()
{
    obs::Registry &reg = obs::Registry::global();
    reg.add(reg.counter("governor.degradations"));
}

} // namespace viva::support
