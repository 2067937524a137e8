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

/** Points per block of the max/min decomposition. */
constexpr std::size_t kBlock = 32;

/** Blocks of kBlock points (the last one partial) covering n points. */
std::size_t
blockCount(std::size_t n)
{
    return (n + kBlock - 1) / kBlock;
}

/** Entries before level k of a sparse table over n blocks. */
std::size_t
levelOffset(std::size_t n, std::size_t k)
{
    return k * (n + 1) - ((std::size_t(1) << k) - 1);
}

/** Entries of a whole sparse table over n blocks (bit_width(n) levels). */
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
    VIVA_ASSERT(!isFrozen, "set() on a frozen variable");
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
    VIVA_ASSERT(!isFrozen, "push() on a frozen variable");
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
    VIVA_ASSERT(!isFrozen, "sortPoints() on a frozen variable");
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
Variable::integral(double a, double b) const
{
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
Variable::integrate(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "integrate() on an unfrozen variable");
    VIVA_ASSERT(a <= b, "reversed integration bounds [", a, ", ", b, ")");
    return integral(a, b);
}

double
Variable::average(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "average() on an unfrozen variable");
    VIVA_ASSERT(a <= b, "reversed slice [", a, ", ", b, ")");
    if (a == b)
        return valueAt(a);
    return integral(a, b) / (b - a);
}

template <class Pick>
double
Variable::extremum(double a, double b, const double *table,
                   Pick pick) const
{
    std::size_t i = indexAt(a);
    double best = i == npos ? 0.0 : points[i].value;
    // The points strictly inside (a, b) -- the set a scan visits --
    // are [lo, end).
    std::size_t lo = (i == npos) ? 0 : i + 1;
    std::size_t end = std::size_t(
        std::lower_bound(points.begin(), points.end(), b,
                         [](const Point &p, double rhs) {
                             return p.time < rhs;
                         }) -
        points.begin());
    if (lo >= end)
        return best;
    // Left to right, as a scan would pick: the partial block at each
    // edge point by point, the whole blocks between from the table.
    // std::max and std::min keep the earlier of equal values, so ties
    // such as -0.0 and 0.0 resolve as in the scan.
    const std::size_t hi = end - 1;
    const std::size_t bl = lo / kBlock;
    const std::size_t bh = hi / kBlock;
    const std::size_t left_end = bl == bh ? end : (bl + 1) * kBlock;
    for (std::size_t k = lo; k < left_end; ++k)
        best = pick(best, points[k].value);
    if (bl == bh)
        return best;
    if (bl + 1 < bh) {
        const std::size_t m = blockCount(points.size());
        const std::size_t first = bl + 1;
        const std::size_t len = bh - first;
        const std::size_t k = std::size_t(std::bit_width(len)) - 1;
        const double *level = table + levelOffset(m, k);
        best = pick(best, pick(level[first],
                               level[bh - (std::size_t(1) << k)]));
    }
    for (std::size_t k = bh * kBlock; k <= hi; ++k)
        best = pick(best, points[k].value);
    return best;
}

double
Variable::maxOver(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "maxOver() on an unfrozen variable");
    return extremum(a, b, index.data() + points.size(),
                    [](double x, double y) { return std::max(x, y); });
}

double
Variable::minOver(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "minOver() on an unfrozen variable");
    return extremum(a, b,
                    index.data() + points.size() +
                        tableSize(blockCount(points.size())),
                    [](double x, double y) { return std::min(x, y); });
}

void
Variable::computeIndex(std::vector<double> &out) const
{
    const std::size_t n = points.size();
    const std::size_t m = blockCount(n);
    const std::size_t table = tableSize(m);
    out.assign(n + 2 * table, 0.0);
    double *cum = out.data();
    for (std::size_t i = 1; i < n; ++i)
        cum[i] = cum[i - 1] +
                 points[i - 1].value * (points[i].time - points[i - 1].time);

    double *max_tab = out.data() + n;
    double *min_tab = max_tab + table;
    for (std::size_t b = 0; b < m; ++b) {
        const std::size_t lo = b * kBlock;
        const std::size_t hi = std::min(n, lo + kBlock);
        double mx = points[lo].value;
        double mn = points[lo].value;
        for (std::size_t i = lo + 1; i < hi; ++i) {
            mx = std::max(mx, points[i].value);
            mn = std::min(mn, points[i].value);
        }
        max_tab[b] = mx;
        min_tab[b] = mn;
    }
    const std::size_t levels = std::size_t(std::bit_width(m));
    for (std::size_t k = 1; k < levels; ++k) {
        const std::size_t w = std::size_t(1) << k;
        const std::size_t prev = levelOffset(m, k - 1);
        const std::size_t cur = levelOffset(m, k);
        for (std::size_t i = 0; i + w <= m; ++i) {
            max_tab[cur + i] =
                std::max(max_tab[prev + i], max_tab[prev + i + w / 2]);
            min_tab[cur + i] =
                std::min(min_tab[prev + i], min_tab[prev + i + w / 2]);
        }
    }
}

void
Variable::freeze()
{
    if (isFrozen)
        return;
    if (std::adjacent_find(points.begin(), points.end(),
                           [](const Point &x, const Point &y) {
                               return x.time >= y.time;
                           }) != points.end())
        sortPoints();
    points.shrink_to_fit();
    computeIndex(index);
    isFrozen = true;
}

bool
Variable::indexConsistent() const
{
    if (!isFrozen)
        return index.empty();
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
    VIVA_ASSERT(!isFrozen, "compact() on a frozen variable");
    if (points.size() < 2)
        return 0;
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
