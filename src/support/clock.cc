/**
 * @file
 * Implementation of the injectable clock.
 */

#include "support/clock.hh"

#include <chrono>
#include <thread>

namespace viva::support
{

namespace
{

/**
 * The installed clock, or nullptr for the default SteadyClock. The
 * default instance is deliberately immortal (leaked): ThreadPool
 * workers may still read the clock while static destructors run, so it
 * must never be torn down.
 */
std::atomic<Clock *> installed{nullptr};

Clock &
steadyInstance()
{
    // viva-analyze: allow(raw-new-delete): immortal singleton, see above
    static Clock *steady = new SteadyClock;
    return *steady;
}

} // namespace

std::uint64_t
SteadyClock::nowNanos()
{
    // The library's one wall-clock touchpoint: everything else measures
    // time through Clock so tests can substitute a FakeClock.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
SteadyClock::sleepNanos(std::uint64_t nanos)
{
    // The matching real-sleep touchpoint: everything else waits through
    // Clock so tests can substitute a FakeClock that advances instead.
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

Clock &
clock()
{
    Clock *c = installed.load(std::memory_order_acquire);
    return c ? *c : steadyInstance();
}

Clock *
setClock(Clock *replacement)
{
    return installed.exchange(replacement, std::memory_order_acq_rel);
}

} // namespace viva::support
