/**
 * @file
 * Implementation of the piecewise-constant variable.
 */

#include "trace/variable.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "support/logging.hh"

namespace viva::trace
{

namespace
{

using Point = Variable::Point;

// The index doubles follow the points in one block, so a point's size
// must keep them aligned.
static_assert(sizeof(Point) % alignof(double) == 0);

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

/** Doubles of the index over n points: cum, then the max and min tables. */
std::size_t
indexSize(std::size_t n)
{
    return n + 2 * tableSize(blockCount(n));
}

/** Bytes of a frozen block over n points: the points, then the index. */
std::size_t
blockBytes(std::size_t n)
{
    return n * sizeof(Point) + indexSize(n) * sizeof(double);
}

/**
 * How many leading points satisfy `before`, the points being
 * partitioned by it (all that do come first): std::partition_point's
 * answer. Each step selects the half with a conditional move rather
 * than a branch: where a slice bound falls among a variable's points
 * is as good as random to the branch predictor, and the Eq.-1 fold
 * asks twice per carrier.
 */
template <class Before>
std::size_t
countBefore(std::span<const Point> pts, Before before)
{
    if (pts.empty())
        return 0;
    const Point *base = pts.data();
    std::size_t len = pts.size();
    while (len > 1) {
        const std::size_t half = len / 2;
        base = before(base[half]) ? base + half : base;
        len -= half;
    }
    return std::size_t(base - pts.data()) + (before(*base) ? 1 : 0);
}

/** Index of the last point with time <= t, or npos. */
std::size_t
indexAt(std::span<const Point> pts, double t)
{
    // The points not strictly after t, as std::upper_bound counts them.
    std::size_t upto =
        countBefore(pts, [t](const Point &p) { return !(t < p.time); });
    return upto == 0 ? npos : upto - 1;
}

/** The index over pts[0 .. n) into out[0 .. indexSize(n)). */
void
computeIndex(const Point *pts, std::size_t n, double *out)
{
    const std::size_t m = blockCount(n);
    const std::size_t table = tableSize(m);
    double *cum = out;
    if (n > 0)
        cum[0] = 0.0;
    for (std::size_t i = 1; i < n; ++i)
        cum[i] = cum[i - 1] +
                 pts[i - 1].value * (pts[i].time - pts[i - 1].time);

    double *max_tab = out + n;
    double *min_tab = max_tab + table;
    for (std::size_t b = 0; b < m; ++b) {
        const std::size_t lo = b * kBlock;
        const std::size_t hi = std::min(n, lo + kBlock);
        double mx = pts[lo].value;
        double mn = pts[lo].value;
        for (std::size_t i = lo + 1; i < hi; ++i) {
            mx = std::max(mx, pts[i].value);
            mn = std::min(mn, pts[i].value);
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

} // namespace

Variable::Variable(const Variable &other)
    : points(other.points), count(other.count), isFrozen(other.isFrozen)
{
    if (other.block) {
        const std::size_t bytes = blockBytes(count);
        block = std::make_unique_for_overwrite<std::byte[]>(bytes);
        std::memcpy(block.get(), other.block.get(), bytes);
    }
}

Variable &
Variable::operator=(const Variable &other)
{
    if (this != &other)
        *this = Variable(other);
    return *this;
}

Variable::Variable(Variable &&other) noexcept
    : points(std::move(other.points)), block(std::move(other.block)),
      count(std::exchange(other.count, 0)),
      isFrozen(std::exchange(other.isFrozen, false))
{
}

Variable &
Variable::operator=(Variable &&other) noexcept
{
    points = std::move(other.points);
    block = std::move(other.block);
    count = std::exchange(other.count, 0);
    isFrozen = std::exchange(other.isFrozen, false);
    return *this;
}

// A block holds no objects until freeze() writes them; the objects its
// bytes implicitly create are reached through std::launder.
const Point *
Variable::frozenPoints() const
{
    return std::launder(reinterpret_cast<const Point *>(block.get()));
}

const double *
Variable::frozenIndex() const
{
    return std::launder(reinterpret_cast<const double *>(
        block.get() + count * sizeof(Point)));
}

std::span<const Point>
Variable::changePoints() const
{
    if (!isFrozen)
        return points;
    if (count == 0)
        return {};
    return {frozenPoints(), count};
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
    std::span<const Point> pts = changePoints();
    std::size_t i = indexAt(pts, t);
    return i == npos ? 0.0 : pts[i].value;
}

inline double
Variable::integral(double a, double b) const
{
    if (count == 0 || a == b)
        return 0.0;

    const Point *pts = frozenPoints();
    std::size_t ia = indexAt({pts, count}, a);
    std::size_t ib = indexAt({pts, count}, b);
    // Both bounds inside one segment (or before the first point): a
    // single multiply, with no prefix-difference cancellation.
    if (ia == ib)
        return (ia == npos ? 0.0 : pts[ia].value) * (b - a);
    // First partial segment, the whole segments between (a prefix
    // difference), then the last partial segment.
    std::size_t first = (ia == npos) ? 0 : ia + 1;
    double total =
        ia == npos ? 0.0 : pts[ia].value * (pts[first].time - a);
    const double *cum = frozenIndex();
    total += cum[ib] - cum[first];
    total += pts[ib].value * (b - pts[ib].time);
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
Variable::extremum(double a, double b, std::size_t table_at,
                   Pick pick) const
{
    if (count == 0)
        return 0.0;
    const Point *pts = frozenPoints();
    std::size_t i = indexAt({pts, count}, a);
    double best = i == npos ? 0.0 : pts[i].value;
    // The pts strictly inside (a, b) -- the set a scan visits --
    // are [lo, end).
    std::size_t lo = (i == npos) ? 0 : i + 1;
    std::size_t end = countBefore(
        {pts, count}, [b](const Point &p) { return p.time < b; });
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
        best = pick(best, pts[k].value);
    if (bl == bh)
        return best;
    if (bl + 1 < bh) {
        const std::size_t m = blockCount(count);
        const double *table = frozenIndex() + table_at;
        const std::size_t first = bl + 1;
        const std::size_t len = bh - first;
        const std::size_t k = std::size_t(std::bit_width(len)) - 1;
        const double *level = table + levelOffset(m, k);
        best = pick(best, pick(level[first],
                               level[bh - (std::size_t(1) << k)]));
    }
    for (std::size_t k = bh * kBlock; k <= hi; ++k)
        best = pick(best, pts[k].value);
    return best;
}

double
Variable::maxOver(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "maxOver() on an unfrozen variable");
    return extremum(a, b, count,
                    [](double x, double y) { return std::max(x, y); });
}

double
Variable::minOver(double a, double b) const
{
    VIVA_ASSERT(isFrozen, "minOver() on an unfrozen variable");
    return extremum(a, b, count + tableSize(blockCount(count)),
                    [](double x, double y) { return std::min(x, y); });
}

std::vector<Point>
Variable::freeze()
{
    if (isFrozen)
        return {};
    if (std::adjacent_find(points.begin(), points.end(),
                           [](const Point &x, const Point &y) {
                               return x.time >= y.time;
                           }) != points.end())
        sortPoints();
    count = points.size();
    if (count > 0) {
        // One allocation: the points, then their index.
        block =
            std::make_unique_for_overwrite<std::byte[]>(blockBytes(count));
        std::copy(points.begin(), points.end(),
                  std::launder(reinterpret_cast<Point *>(block.get())));
        computeIndex(frozenPoints(), count,
                     std::launder(reinterpret_cast<double *>(
                         block.get() + count * sizeof(Point))));
    }
    isFrozen = true;
    return std::exchange(points, {});
}

bool
Variable::indexConsistent() const
{
    if (!isFrozen)
        return !block;
    if (!points.empty() || bool(block) != (count > 0))
        return false;
    if (count == 0)
        return true;
    std::vector<double> ref(indexSize(count));
    computeIndex(frozenPoints(), count, ref.data());
    return std::memcmp(ref.data(), frozenIndex(),
                       ref.size() * sizeof(double)) == 0;
}

double
Variable::firstTime() const
{
    std::span<const Point> pts = changePoints();
    return pts.empty() ? 0.0 : pts.front().time;
}

double
Variable::lastTime() const
{
    std::span<const Point> pts = changePoints();
    return pts.empty() ? 0.0 : pts.back().time;
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
