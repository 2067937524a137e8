/**
 * @file
 * The injectable time source behind every self-observation timer.
 *
 * Production code never reads a chrono clock directly (the viva-analyze
 * rule clock-reachable enforces it); it asks the process-wide Clock
 * returned by clock(). In a shipping binary that is a SteadyClock --
 * the single sanctioned wall-clock touchpoint of the library -- and in
 * tests a FakeClock, so every measured duration is an exact,
 * deterministic function of the test script rather than of the machine
 * the test happened to run on.
 */

#pragma once

#include <atomic>
#include <cstdint>

namespace viva::support
{

/** A monotonic nanosecond source. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Nanoseconds since an arbitrary fixed origin; never decreases. */
    virtual std::uint64_t nowNanos() = 0;

    /**
     * Block (or simulate blocking) for `nanos`. Retry backoff sleeps
     * through this hook so a FakeClock-driven test advances virtual
     * time instead of stalling the suite. The base default is a no-op:
     * a clock that does not model sleeping simply returns immediately.
     */
    virtual void
    sleepNanos(std::uint64_t nanos)
    {
        (void)nanos;
    }
};

/** The production clock: std::chrono::steady_clock. */
class SteadyClock : public Clock
{
  public:
    std::uint64_t nowNanos() override;
    void sleepNanos(std::uint64_t nanos) override;
};

/**
 * A test clock under full program control. Time only moves when the
 * test says so: explicitly through advance()/set(), or -- when a
 * non-zero autoTick is configured -- by exactly `autoTick` nanoseconds
 * per nowNanos() call (the read returns the pre-tick value). With
 * autoTick == 0 time is frozen, so every ScopedPhase in a parallel
 * section measures exactly 0 ns regardless of scheduling -- the
 * property the cross-thread-count determinism tests rely on.
 *
 * Thread-safe: concurrent readers advance one shared atomic.
 */
class FakeClock : public Clock
{
  public:
    explicit FakeClock(std::uint64_t start_nanos = 0,
                       std::uint64_t auto_tick_nanos = 0)
        : now(start_nanos), tick(auto_tick_nanos)
    {
    }

    std::uint64_t
    nowNanos() override
    {
        return now.fetch_add(tick, std::memory_order_relaxed);
    }

    /** Move time forward by `nanos`. */
    void
    advance(std::uint64_t nanos)
    {
        now.fetch_add(nanos, std::memory_order_relaxed);
    }

    /** Jump to an absolute reading (tests only; may go backwards). */
    void
    set(std::uint64_t nanos)
    {
        now.store(nanos, std::memory_order_relaxed);
    }

    /** Sleeping under a fake clock advances virtual time instantly. */
    void
    sleepNanos(std::uint64_t nanos) override
    {
        advance(nanos);
    }

  private:
    std::atomic<std::uint64_t> now;
    const std::uint64_t tick;
};

/** The process-wide clock every timer reads. SteadyClock by default. */
Clock &clock();

/**
 * Install a clock (nullptr restores the SteadyClock) and return the
 * previously installed one (nullptr when it was the default). The
 * caller keeps ownership; tests use the RAII ClockOverride below.
 */
Clock *setClock(Clock *replacement);

/** RAII clock swap for tests: installs in ctor, restores in dtor. */
class ClockOverride
{
  public:
    explicit ClockOverride(Clock &replacement)
        : previous(setClock(&replacement))
    {
    }
    ~ClockOverride() { setClock(previous); }

    ClockOverride(const ClockOverride &) = delete;
    ClockOverride &operator=(const ClockOverride &) = delete;

  private:
    Clock *previous;
};

} // namespace viva::support
