/**
 * @file
 * Piecewise-constant time series. The value set at time t holds until the
 * next change point. This is the exact representation of resource
 * availability/utilization traces in Fig. 1, and supports the exact
 * interval integration required by Equation 1.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "support/interval.hh"

namespace viva::trace
{

/**
 * A piecewise-constant function of time built from timestamped set/add
 * events. Change points are kept sorted; appends at the end are O(1),
 * out-of-order inserts are supported but O(n) (bulk loaders push() in
 * any order and sortPoints() once instead).
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

    /** Set the value from time t on. Replaces an existing point at t. */
    void set(double t, double v);

    /**
     * Bulk loading: append a change point in any time order. A point
     * at the last point's time replaces its value, as set() does; an
     * earlier time is appended as is and leaves the points unsorted
     * until sortPoints(). O(1), where an out-of-order set() is O(n).
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
     * Exact integral of the function over [a, b).
     * Linear in the number of change points inside the interval, plus a
     * binary search.
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

    /** Largest value attained inside [a, b) (including the value at a). */
    double maxOver(double a, double b) const;

    /** Smallest value attained inside [a, b). */
    double minOver(double a, double b) const;

    /** Time of the first change point; 0 when empty. */
    double firstTime() const;

    /** Time of the last change point; 0 when empty. */
    double lastTime() const;

    /** Number of change points. */
    std::size_t pointCount() const { return points.size(); }

    /** True when no change point has been recorded. */
    bool empty() const { return points.empty(); }

    /** The raw change points, sorted by time. */
    const std::vector<Point> &changePoints() const { return points; }

    /**
     * Remove successive points with equal values (produced e.g. by a
     * tracer re-asserting an unchanged rate). Preserves the function.
     * @return number of points removed
     */
    std::size_t compact();

    // --- slice-query index -------------------------------------------

    /**
     * Build (or refresh) the slice-query index: a cumulative-integral
     * prefix array plus sparse max/min tables over the point values,
     * turning integrate/average/maxOver/minOver into O(log n) lookups.
     * Sequential and deterministic; idempotent when already clean. The
     * index is an accelerator, never a requirement: queries on a dirty
     * index fall back to the linear scan, so correctness never depends
     * on callers remembering to build.
     */
    void buildIndex();

    /** True when the index reflects the current change points. */
    bool indexed() const { return indexClean; }

    /** Reference linear-scan integral (differential tests, audits). */
    double integrateScan(double a, double b) const;

    /** Reference linear-scan maximum over [a, b). */
    double maxOverScan(double a, double b) const;

    /** Reference linear-scan minimum over [a, b). */
    double minOverScan(double a, double b) const;

    /**
     * True when the index is clean and bitwise-identical to a fresh
     * rebuild from the current points (used by the VALIDATE audits).
     * A dirty index is vacuously consistent.
     */
    bool indexConsistent() const;

  private:
    /** Index of the last point with time <= t, or npos. */
    std::size_t indexAt(double t) const;

    /** Max over the inclusive point-index range via the sparse table. */
    double rangeMax(std::size_t lo, std::size_t hi) const;

    /** Min over the inclusive point-index range via the sparse table. */
    double rangeMin(std::size_t lo, std::size_t hi) const;

    /** Level k of the max sparse table inside `index`. */
    const double *maxLevel(std::size_t k) const;

    /** Level k of the min sparse table inside `index`. */
    const double *minLevel(std::size_t k) const;

    /** Recompute the index from `points` into `out`. */
    void computeIndex(std::vector<double> &out) const;

    std::vector<Point> points;

    /**
     * The slice-query index in one allocation, laid out from the point
     * count n alone: cum[0 .. n), where cum[i] is the exact integral
     * from points[0].time to points[i].time; then the max sparse table;
     * then the min table. A table has bit_width(n) levels, and level k
     * holds the n - 2^k + 1 extrema of the 2^k point values starting
     * at each i.
     */
    std::vector<double> index;
    /** Index freshness; any mutation clears it. */
    bool indexClean = false;
};

} // namespace viva::trace

