/**
 * @file
 * Reference linear scans of a Variable's slice queries: the oracle the
 * indexed integrate/maxOver/minOver are tested against. They read only
 * the change points and valueAt(), so they work on frozen and unfrozen
 * variables alike.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "trace/variable.hh"

namespace viva::trace::testing
{

/** The first point strictly after a (points inside (a, b) start here). */
inline std::size_t
firstAfter(const Variable &v, double a)
{
    std::span<const Variable::Point> pts = v.changePoints();
    return std::size_t(std::upper_bound(pts.begin(), pts.end(), a,
                                        [](double lhs,
                                           const Variable::Point &p) {
                                            return lhs < p.time;
                                        }) -
                       pts.begin());
}

/** Integral over [a, b) walking every change point inside. */
inline double
integrateScan(const Variable &v, double a, double b)
{
    std::span<const Variable::Point> pts = v.changePoints();
    if (pts.empty() || a == b)
        return 0.0;
    double total = 0.0;
    double cursor = a;
    double current = v.valueAt(a);
    for (std::size_t next = firstAfter(v, a);
         next < pts.size() && pts[next].time < b; ++next) {
        total += current * (pts[next].time - cursor);
        cursor = pts[next].time;
        current = pts[next].value;
    }
    return total + current * (b - cursor);
}

/** `pick` over the value at a and every point inside (a, b). */
template <class Pick>
double
extremumScan(const Variable &v, double a, double b, Pick pick)
{
    std::span<const Variable::Point> pts = v.changePoints();
    double best = v.valueAt(a);
    for (std::size_t next = firstAfter(v, a);
         next < pts.size() && pts[next].time < b; ++next)
        best = pick(best, pts[next].value);
    return best;
}

/** Maximum over [a, b) by a scan. */
inline double
maxOverScan(const Variable &v, double a, double b)
{
    return extremumScan(v, a, b,
                        [](double x, double y) { return std::max(x, y); });
}

/** Minimum over [a, b) by a scan. */
inline double
minOverScan(const Variable &v, double a, double b)
{
    return extremumScan(v, a, b,
                        [](double x, double y) { return std::min(x, y); });
}

} // namespace viva::trace::testing
