/**
 * @file
 * support::Deadline -- the explicit cancellation token that bounds one
 * long-running operation -- and the governor's two obs counters.
 *
 * The paper's workloads (2170-host Grid'5000 traces) can push one
 * layout stabilisation or one Eq.-1 aggregation past a human's
 * patience. The caller builds a Deadline from its time budget on the
 * injectable support::Clock and passes it down; worker chunks poll
 * expired() at their cancellation points, and the operation returns a
 * clean Errc::Deadline Expected error. A default Deadline means
 * "none": expired() is then one integer compare and never reads the
 * clock, so operations without a deadline (audits, Session::view, the
 * benchmarks) stay bitwise deterministic under FakeClock.
 *
 * Memory is governed elsewhere: byte accounting lives in
 * app::Session::workingSetBytes(), a deterministic model of
 * containers/records/layout nodes, so degradation decisions are a pure
 * function of the loaded data, not of the machine.
 */

#pragma once

#include <cstdint>

namespace viva::support
{

/** An absolute point on clock() past which an operation gives up. */
class Deadline
{
  public:
    /** No deadline: never expires. */
    Deadline() = default;

    /**
     * clock().nowNanos() + budget_nanos, saturating at the largest
     * time instead of wrapping (a wrapped sum could land in the past,
     * or on 0 and silently mean "none"). A zero budget means none.
     */
    static Deadline after(std::uint64_t budget_nanos);

    /** Is there a deadline at all? */
    bool armed() const { return at != 0; }

    /** Has the clock passed it? Reads the clock only when armed. */
    bool expired() const { return at != 0 && passed(); }

  private:
    bool passed() const;

    /** Absolute deadline in clock() nanos; 0 means none. */
    std::uint64_t at = 0;
};

/** Record a deadline abort (obs counter governor.deadline_aborts). */
void noteDeadlineAbort();

/** Record a watermark degradation (obs counter governor.degradations). */
void noteDegradation();

} // namespace viva::support
