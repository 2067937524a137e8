/**
 * @file
 * Piecewise-constant time series. The value set at time t holds until the
 * next change point. This is the exact representation of resource
 * availability/utilization traces in Fig. 1, and supports the exact
 * interval integration required by Equation 1.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "support/interval.hh"

namespace viva::trace
{

/**
 * A piecewise-constant function of time built from timestamped set/add
 * events. Change points are kept sorted; appends at the end are O(1),
 * out-of-order inserts are supported but O(n) (bulk loaders push() in
 * any order and let freeze() sort once instead).
 */
class Variable
{
  public:
    /** One change point: the value holds from time until the next point. */
    struct Point
    {
        double time;
        double value;
        bool operator==(const Point &other) const = default;
    };

    Variable() = default;
    /** Copies the frozen block, if any, into one new allocation. */
    Variable(const Variable &other);
    Variable &operator=(const Variable &other);
    /** A moved-from variable is empty and unfrozen. */
    Variable(Variable &&other) noexcept;
    Variable &operator=(Variable &&other) noexcept;
    ~Variable() = default;

    /** Set the value from time t on. Replaces an existing point at t. */
    void set(double t, double v);

    /**
     * Bulk loading: append a change point in any time order. A point
     * at the last point's time replaces its value, as set() does; an
     * earlier time is appended as is and leaves the points unsorted
     * until sortPoints() or freeze(). O(1), where an out-of-order set()
     * is O(n).
     * @return false when t comes before the last point's time
     */
    bool push(double t, double v);

    /**
     * Restore time order after out-of-order push() calls with one
     * stable sort. Of points at equal times the first one's time and
     * the last one's value survive: exactly the points that calling
     * set() in the same order would have left.
     */
    void sortPoints();

    /** Add dv to the value from time t on (relative change event). */
    void add(double t, double dv);

    /**
     * The value at time t. Before the first change point the variable is
     * considered 0 (the resource had not been observed yet).
     */
    double valueAt(double t) const;

    /**
     * Exact integral of the function over [a, b): two binary searches
     * and a prefix difference. Requires a frozen variable, as do
     * average(), maxOver() and minOver().
     */
    double integrate(double a, double b) const;

    /** Exact integral over an interval. */
    double
    integrate(const support::Interval &slice) const
    {
        return integrate(slice.begin, slice.end);
    }

    /**
     * Time-average over [a, b) -- the temporal aggregation F of
     * Equation 1 restricted to the time dimension. Zero-length slices
     * return the instantaneous value at a.
     */
    double average(double a, double b) const;

    /** Time-average over a slice. */
    double
    average(const support::Interval &slice) const
    {
        return average(slice.begin, slice.end);
    }

    /**
     * Largest value attained inside [a, b) (including the value at a):
     * two binary searches, at most two partial blocks and one sparse
     * table lookup.
     */
    double maxOver(double a, double b) const;

    /** Smallest value attained inside [a, b). */
    double minOver(double a, double b) const;

    /** Time of the first change point; 0 when empty. */
    double firstTime() const;

    /** Time of the last change point; 0 when empty. */
    double lastTime() const;

    /** Number of change points. */
    std::size_t pointCount() const
    {
        return isFrozen ? count : points.size();
    }

    /** True when no change point has been recorded. */
    bool empty() const { return pointCount() == 0; }

    /**
     * The raw change points: sorted by time once frozen (or when only
     * set() and in-order push() built them).
     */
    std::span<const Point> changePoints() const;

    /**
     * Remove successive points with equal values (produced e.g. by a
     * tracer re-asserting an unchanged rate). Preserves the function.
     * @return number of points removed
     */
    std::size_t compact();

    // --- freezing ----------------------------------------------------

    /**
     * Make the variable immutable and queryable: restore time order if
     * push() broke it, then copy the points into one allocation (see
     * `block`) and build the slice-query index behind them. Hands back
     * the build-time vector, which the variable no longer holds:
     * dropping it frees it, and a caller freezing many variables may
     * choose when. Sequential, deterministic and idempotent (a second
     * call returns an empty vector). Mutators abort on a frozen
     * variable; the slice queries integrate/average/maxOver/minOver
     * abort on an unfrozen one.
     */
    std::vector<Point> freeze();

    /** True once freeze() has run. */
    bool frozen() const { return isFrozen; }

    /**
     * True when the index is bitwise-identical to a fresh rebuild from
     * the current points (used by the VALIDATE audits). An unfrozen
     * variable has no index and is consistent when it holds none.
     */
    bool indexConsistent() const;

  private:
    /** The frozen points, block[0 .. count) as Points. */
    const Point *frozenPoints() const;

    /** The frozen index, the doubles after the points (see `block`). */
    const double *frozenIndex() const;

    /**
     * The indexed integral over [a, b), behind integrate() and
     * average(), which check the freeze and the bounds once.
     */
    double integral(double a, double b) const;

    /**
     * maxOver/minOver over [a, b) with `pick` (std::max or std::min)
     * and its block table, which starts `table_at` doubles into the
     * index (see `block`): the value at a, then the points strictly
     * inside (a, b) folded left to right.
     */
    template <class Pick>
    double extremum(double a, double b, std::size_t table_at,
                    Pick pick) const;

    /** The build-time change points; empty once frozen. */
    std::vector<Point> points;

    /**
     * A frozen variable's points and slice-query index in one
     * allocation (none when it has no point), laid out from the point
     * count n alone. First the n points. Then the index: cum[0 .. n),
     * where cum[i] is the exact integral from the first point's time
     * to point i's, then a sparse table over the maxima of the
     * m = ceil(n / 32) blocks of 32 points (kBlock in variable.cc),
     * then the same over the minima. Level 0 of a table holds the m
     * block extrema; level k holds the m - 2^k + 1 extrema of 2^k
     * blocks starting at each block, up to level bit_width(m) - 1. So
     * the index holds n + 2 S(m) doubles, with
     * S(m) = sum over k of (m - 2^k + 1) and
     * 2 S(m) about (n / 16) log2(n / 32): O(n).
     */
    std::unique_ptr<std::byte[]> block;
    /** The frozen point count n (0 while unfrozen). */
    std::size_t count = 0;
    bool isFrozen = false;
};

} // namespace viva::trace

