/**
 * @file
 * support::obs -- the process-wide self-observability layer.
 *
 * The paper's central claim is interactivity: hierarchy cuts, Eq.-1
 * aggregation and layout relaxation must stay inside a human's
 * patience. This registry is how the system watches itself do that.
 * Every hot path registers named metrics once (function-local static
 * handles) and then updates them with a few relaxed atomic operations:
 *
 *  - Counter    monotonic event count (records parsed, iterations run,
 *               errors returned). Sharded per thread.
 *  - Gauge      last-set level (visible nodes, layout edges). A single
 *               process-wide atomic -- setting a level is not a
 *               hot-loop operation.
 *  - Histogram  fixed-bucket latency distribution in nanoseconds, plus
 *               exact count and sum. Sharded per thread. ScopedPhase
 *               is the RAII front end.
 *
 * Hot-path cost and determinism:
 *
 *  - Updates are lock-free: each thread owns a shard (acquired once,
 *    returned to a free list at thread exit with its values intact)
 *    and increments relaxed atomics nobody else writes concurrently.
 *  - The fold on read sums shard slots under the registry mutex. Every
 *    folded quantity is an integer sum, so the result is independent
 *    of shard order, thread count and scheduling -- `stats --json` is
 *    byte-identical across runs and thread counts whenever the
 *    recorded durations are (see support::FakeClock).
 *  - setEnabled(false) "disarms" the timers: ScopedPhase degrades to
 *    one relaxed load and no clock reads. Counters and gauges stay on;
 *    they are a handful of nanoseconds each and never touch the clock.
 *
 * Handles never dangle: registration is append-only and reset() only
 * zeroes values, so a static handle captured at first use stays valid
 * for the process lifetime. When the fixed capacity is exhausted the
 * registry hands out invalid handles whose updates are dropped (and
 * counted in the `obs.dropped_registrations` counter) instead of
 * aborting an interactive session.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/clock.hh"
#include "support/strong_id.hh"

namespace viva::support::obs
{

struct CounterTag
{
};
struct GaugeTag
{
};
struct HistogramTag
{
};

using CounterId = StrongId<CounterTag>;
using GaugeId = StrongId<GaugeTag>;
using HistogramId = StrongId<HistogramTag>;

/** Overflow handles: every update through them is silently dropped. */
inline constexpr CounterId kNoCounter{0xffffffffu};
inline constexpr GaugeId kNoGauge{0xffffffffu};
inline constexpr HistogramId kNoHistogram{0xffffffffu};

/** Latency buckets: 12 finite upper bounds (ns) plus one overflow. */
inline constexpr std::size_t kHistogramBuckets = 13;

/** The finite bucket upper bounds, ascending (256 ns .. ~1.07 s). */
const std::array<std::uint64_t, kHistogramBuckets - 1> &histogramBounds();

/** One folded counter in a snapshot. */
struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

/** One gauge level in a snapshot. */
struct GaugeValue
{
    std::string name;
    std::int64_t value = 0;
};

/** One folded histogram (a timed phase) in a snapshot. */
struct HistogramValue
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sumNanos = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    /** Integer mean duration (0 when never recorded). */
    std::uint64_t
    meanNanos() const
    {
        return count ? sumNanos / count : 0;
    }
};

/** A deterministic fold of the whole registry, sorted by name. */
struct StatsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/**
 * The metrics registry. One process-wide instance (global()) is shared
 * by every instrumented path; tests may construct private instances.
 */
class Registry
{
  public:
    Registry();
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry (immortal: never destroyed). */
    static Registry &global();

    // --- registration (cold; mutex-protected; append-only) ---------------

    /** Register-or-look-up a counter by name. */
    CounterId counter(const std::string &name);

    /** Register-or-look-up a gauge by name. */
    GaugeId gauge(const std::string &name);

    /** Register-or-look-up a histogram by name. */
    HistogramId histogram(const std::string &name);

    // --- updates (hot; lock-free) ----------------------------------------

    /** Bump a counter. Invalid handles are dropped. */
    void add(CounterId id, std::uint64_t n = 1);

    /** Set a gauge level. */
    void set(GaugeId id, std::int64_t value);

    /** Record one duration into a histogram. */
    void record(HistogramId id, std::uint64_t nanos);

    // --- reads (cold; deterministic fold under the mutex) -----------------

    /** Fold one counter across shards. Invalid handles read 0. */
    std::uint64_t counterValue(CounterId id) const;

    /** Read one gauge. */
    std::int64_t gaugeValue(GaugeId id) const;

    /** Fold one histogram across shards. */
    HistogramValue histogramValue(HistogramId id) const;

    /** Fold everything, sorted by metric name. */
    StatsSnapshot snapshot() const;

    /**
     * Zero every value whose name starts with `prefix` (all of them by
     * default). Registrations -- and therefore outstanding handles --
     * survive. Meant for tests and the `stats reset` command; racing
     * writers may keep increments that land mid-reset.
     */
    void reset(const std::string &prefix = "");

    // --- arming ------------------------------------------------------------

    /**
     * Turn timing capture on or off. Off ("disarmed"), ScopedPhase
     * performs one relaxed load and never reads the clock; counters and
     * gauges keep counting. On by default.
     */
    void setEnabled(bool on);

    /** Is timing capture armed? */
    bool
    enabled() const
    {
        // viva-analyze: allow(context-on-propagate): atomic load, not Expected
        return armed.load(std::memory_order_relaxed);
    }

  private:
    struct Shard;
    struct Impl;

    /** The calling thread's shard of this registry (acquired once). */
    Shard &localShard();

    std::atomic<bool> armed{true};
    Impl *impl;
};

/**
 * RAII phase timer: reads the injectable clock at construction and
 * destruction and records the elapsed nanoseconds into a histogram of
 * the global registry. When the registry is disarmed the constructor
 * performs a single relaxed load and the destructor nothing at all.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(HistogramId histogram)
        : hist(histogram),
          begin(Registry::global().enabled() ? clock().nowNanos() + 1 : 0)
    {
    }

    ~ScopedPhase()
    {
        if (begin != 0)
            Registry::global().record(hist, clock().nowNanos() -
                                                (begin - 1));
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    HistogramId hist;

    /** Start time biased by +1 so 0 can mean "disarmed at entry". */
    std::uint64_t begin;
};

// --- reporting -------------------------------------------------------------

/**
 * Write the snapshot as the stable machine schema ("viva-obs-1"): one
 * JSON object with sorted "counters", "gauges" and "phases" arrays,
 * integer-only values, one entry per line. Byte-deterministic for a
 * deterministic snapshot; viva-perfdiff consumes exactly this format.
 */
void writeJson(const StatsSnapshot &snapshot, std::ostream &out);

/** Write the snapshot as a human-readable table. */
void writeTable(const StatsSnapshot &snapshot, std::ostream &out);

} // namespace viva::support::obs
