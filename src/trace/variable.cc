/**
 * @file
 * Implementation of the piecewise-constant variable.
 */

#include "trace/variable.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace viva::trace
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Entries before level k of a sparse table over n points. */
std::size_t
levelOffset(std::size_t n, std::size_t k)
{
    return k * (n + 1) - ((std::size_t(1) << k) - 1);
}

/** Entries of a whole sparse table over n points (bit_width(n) levels). */
std::size_t
tableSize(std::size_t n)
{
    return levelOffset(n, std::size_t(std::bit_width(n)));
}

} // namespace

std::size_t
Variable::indexAt(double t) const
{
    // upper_bound returns the first point strictly after t.
    auto it = std::upper_bound(points.begin(), points.end(), t,
                               [](double lhs, const Point &p) {
                                   return lhs < p.time;
                               });
    if (it == points.begin())
        return npos;
    return std::size_t(it - points.begin()) - 1;
}

void
Variable::set(double t, double v)
{
    indexClean = false;
    if (points.empty() || points.back().time < t) {
        points.push_back({t, v});
        return;
    }
    if (points.back().time == t) {
        points.back().value = v;
        return;
    }
    // Out-of-order insert.
    auto it = std::lower_bound(points.begin(), points.end(), t,
                               [](const Point &p, double rhs) {
                                   return p.time < rhs;
                               });
    if (it != points.end() && it->time == t)
        it->value = v;
    else
        points.insert(it, {t, v});
}

bool
Variable::push(double t, double v)
{
    indexClean = false;
    if (!points.empty() && points.back().time == t) {
        points.back().value = v;
        return true;
    }
    bool ordered = points.empty() || points.back().time < t;
    points.push_back({t, v});
    return ordered;
}

void
Variable::sortPoints()
{
    indexClean = false;
    std::stable_sort(points.begin(), points.end(),
                     [](const Point &a, const Point &b) {
                         return a.time < b.time;
                     });
    // Collapse each run of equal times onto its first point, which
    // keeps its time and takes the run's last value.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (kept > 0 && points[kept - 1].time == points[i].time)
            points[kept - 1].value = points[i].value;
        else
            points[kept++] = points[i];
    }
    points.resize(kept);
}

void
Variable::add(double t, double dv)
{
    set(t, valueAt(t) + dv);
}

double
Variable::valueAt(double t) const
{
    std::size_t i = indexAt(t);
    return i == npos ? 0.0 : points[i].value;
}

double
Variable::integrateScan(double a, double b) const
{
    VIVA_ASSERT(a <= b, "reversed integration bounds [", a, ", ", b, ")");
    if (points.empty() || a == b)
        return 0.0;

    double total = 0.0;
    std::size_t i = indexAt(a);
    double cursor = a;
    double current = i == npos ? 0.0 : points[i].value;
    // Walk the change points inside (a, b).
    std::size_t next = (i == npos) ? 0 : i + 1;
    while (next < points.size() && points[next].time < b) {
        double t = std::max(points[next].time, a);
        total += current * (t - cursor);
        cursor = t;
        current = points[next].value;
        ++next;
    }
    total += current * (b - cursor);
    return total;
}

double
Variable::integrate(double a, double b) const
{
    if (!indexClean)
        return integrateScan(a, b);
    VIVA_ASSERT(a <= b, "reversed integration bounds [", a, ", ", b, ")");
    if (points.empty() || a == b)
        return 0.0;

    std::size_t ia = indexAt(a);
    std::size_t ib = indexAt(b);
    // Both bounds inside one segment (or before the first point): a
    // single multiply, with no prefix-difference cancellation.
    if (ia == ib)
        return (ia == npos ? 0.0 : points[ia].value) * (b - a);
    // First partial segment, the whole segments between (a prefix
    // difference), then the last partial segment.
    std::size_t first = (ia == npos) ? 0 : ia + 1;
    double total =
        ia == npos ? 0.0 : points[ia].value * (points[first].time - a);
    const double *cum = index.data();
    total += cum[ib] - cum[first];
    total += points[ib].value * (b - points[ib].time);
    return total;
}

double
Variable::average(double a, double b) const
{
    VIVA_ASSERT(a <= b, "reversed slice [", a, ", ", b, ")");
    if (a == b)
        return valueAt(a);
    return integrate(a, b) / (b - a);
}

double
Variable::maxOverScan(double a, double b) const
{
    double best = valueAt(a);
    std::size_t i = indexAt(a);
    std::size_t next = (i == npos) ? 0 : i + 1;
    while (next < points.size() && points[next].time < b) {
        best = std::max(best, points[next].value);
        ++next;
    }
    return best;
}

double
Variable::maxOver(double a, double b) const
{
    if (!indexClean)
        return maxOverScan(a, b);
    double best = valueAt(a);
    std::size_t i = indexAt(a);
    std::size_t first = (i == npos) ? 0 : i + 1;
    // Last point strictly before b; the sparse table covers the points
    // inside (a, b), exactly the set the scan visits.
    auto it = std::lower_bound(points.begin(), points.end(), b,
                               [](const Point &p, double rhs) {
                                   return p.time < rhs;
                               });
    if (it == points.begin())
        return best;
    std::size_t last = std::size_t(it - points.begin()) - 1;
    if (first <= last)
        best = std::max(best, rangeMax(first, last));
    return best;
}

double
Variable::minOverScan(double a, double b) const
{
    double best = valueAt(a);
    std::size_t i = indexAt(a);
    std::size_t next = (i == npos) ? 0 : i + 1;
    while (next < points.size() && points[next].time < b) {
        best = std::min(best, points[next].value);
        ++next;
    }
    return best;
}

double
Variable::minOver(double a, double b) const
{
    if (!indexClean)
        return minOverScan(a, b);
    double best = valueAt(a);
    std::size_t i = indexAt(a);
    std::size_t first = (i == npos) ? 0 : i + 1;
    auto it = std::lower_bound(points.begin(), points.end(), b,
                               [](const Point &p, double rhs) {
                                   return p.time < rhs;
                               });
    if (it == points.begin())
        return best;
    std::size_t last = std::size_t(it - points.begin()) - 1;
    if (first <= last)
        best = std::min(best, rangeMin(first, last));
    return best;
}

const double *
Variable::maxLevel(std::size_t k) const
{
    const std::size_t n = points.size();
    return index.data() + n + levelOffset(n, k);
}

const double *
Variable::minLevel(std::size_t k) const
{
    const std::size_t n = points.size();
    return index.data() + n + tableSize(n) + levelOffset(n, k);
}

double
Variable::rangeMax(std::size_t lo, std::size_t hi) const
{
    std::size_t len = hi - lo + 1;
    std::size_t k = std::size_t(std::bit_width(len)) - 1;
    const double *level = maxLevel(k);
    return std::max(level[lo], level[hi + 1 - (std::size_t(1) << k)]);
}

double
Variable::rangeMin(std::size_t lo, std::size_t hi) const
{
    std::size_t len = hi - lo + 1;
    std::size_t k = std::size_t(std::bit_width(len)) - 1;
    const double *level = minLevel(k);
    return std::min(level[lo], level[hi + 1 - (std::size_t(1) << k)]);
}

void
Variable::computeIndex(std::vector<double> &out) const
{
    const std::size_t n = points.size();
    const std::size_t table = tableSize(n);
    out.assign(n + 2 * table, 0.0);
    double *cum = out.data();
    for (std::size_t i = 1; i < n; ++i)
        cum[i] = cum[i - 1] +
                 points[i - 1].value * (points[i].time - points[i - 1].time);

    if (n == 0)
        return;
    double *max_tab = out.data() + n;
    double *min_tab = max_tab + table;
    for (std::size_t i = 0; i < n; ++i) {
        max_tab[i] = points[i].value;
        min_tab[i] = points[i].value;
    }
    const std::size_t levels = std::size_t(std::bit_width(n));
    for (std::size_t k = 1; k < levels; ++k) {
        const std::size_t w = std::size_t(1) << k;
        const std::size_t prev = levelOffset(n, k - 1);
        const std::size_t cur = levelOffset(n, k);
        for (std::size_t i = 0; i + w <= n; ++i) {
            max_tab[cur + i] =
                std::max(max_tab[prev + i], max_tab[prev + i + w / 2]);
            min_tab[cur + i] =
                std::min(min_tab[prev + i], min_tab[prev + i + w / 2]);
        }
    }
}

void
Variable::buildIndex()
{
    if (indexClean)
        return;
    computeIndex(index);
    indexClean = true;
}

bool
Variable::indexConsistent() const
{
    if (!indexClean)
        return true;
    std::vector<double> ref;
    computeIndex(ref);
    return index == ref;
}

double
Variable::firstTime() const
{
    return points.empty() ? 0.0 : points.front().time;
}

double
Variable::lastTime() const
{
    return points.empty() ? 0.0 : points.back().time;
}

std::size_t
Variable::compact()
{
    if (points.size() < 2)
        return 0;
    indexClean = false;
    std::size_t before = points.size();
    std::vector<Point> kept;
    kept.reserve(points.size());
    for (const Point &p : points) {
        if (!kept.empty() && kept.back().value == p.value)
            continue;
        kept.push_back(p);
    }
    points = std::move(kept);
    return before - points.size();
}

} // namespace viva::trace
