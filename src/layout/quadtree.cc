/**
 * @file
 * Implementation of the Barnes-Hut quadtree.
 */

#include "layout/quadtree.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/logging.hh"
#include "support/obs.hh"

namespace viva::layout
{

namespace obs = support::obs;

namespace
{

/** Two points closer than this are the same point for repulsion. */
constexpr double kCoincidenceEps = 1e-9;

/** Morton resolution per axis: 21 bits interleave into 42. */
constexpr int kMortonBits = 21;
constexpr double kMortonGrid = double(std::uint64_t(1) << kMortonBits);

/** Spread the low 21 bits of v over the even bit positions. */
std::uint64_t
spreadBits(std::uint64_t v)
{
    v &= 0x1fffffull;
    v = (v | (v << 16)) & 0x0000ffff0000ffffull;
    v = (v | (v << 8)) & 0x00ff00ff00ff00ffull;
    v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0full;
    v = (v | (v << 2)) & 0x3333333333333333ull;
    v = (v | (v << 1)) & 0x5555555555555555ull;
    return v;
}

/** Quantize a coordinate into [0, 2^21) over [lo, hi]. */
std::uint64_t
quantize(double x, double lo, double hi)
{
    double n = (std::clamp(x, lo, hi) - lo) / (hi - lo);
    double scaled = n * kMortonGrid;
    if (scaled >= kMortonGrid - 1.0)
        return (std::uint64_t(1) << kMortonBits) - 1;
    return std::uint64_t(scaled);
}

/** The interleaved Morton code of a position inside the box. */
std::uint64_t
mortonCode(Vec2 p, Vec2 lo, Vec2 hi)
{
    std::uint64_t qx = quantize(p.x, lo.x, hi.x);
    std::uint64_t qy = quantize(p.y, lo.y, hi.y);
    return (spreadBits(qy) << 1) | spreadBits(qx);
}

/**
 * Points per block of the list evaluation: one AVX2 vector of doubles,
 * or two SSE2 ones. The AVX-512 kernel takes two blocks per vector.
 */
constexpr std::size_t kLanes = 4;

/** Interaction-list entries evaluated per pass over a group. */
constexpr std::size_t kListBlock = 128;

/**
 * Walk stack bound. The stack holds only untested siblings: a cell's
 * children are tested when it opens, and only the elder siblings of
 * the child it descends into wait, at most 3 per level. A descent goes
 * from an internal cell into an internal child, and internal cells sit
 * at depth < kMortonBits, so fewer than kMortonBits levels ever wait.
 */
constexpr std::size_t kStackDepth = 3 * kMortonBits;

/**
 * The squared form of the opening test is trusted only this far from
 * its boundary: its few roundings are 1e-15 relative, so outside the
 * margin it decides as the sqrt/divide form does, and inside it that
 * form decides.
 */
constexpr double kMargin = 1e-9;

/**
 * Above this squared distance the distance is above 2e-9, so above
 * kCoincidenceEps after any rounding of its sqrt.
 */
constexpr double kFarSquared = 4e-18;

/**
 * The squared test runs for theta^2 in [1e-100, 1e100] and squared
 * distances in (kFarSquared, 1e180), where theta^2 * d2 is a normal
 * double: no underflow or overflow can swallow the margin.
 */
constexpr double kMinTheta2 = 1e-100;
constexpr double kMaxTheta2 = 1e100;
constexpr double kMaxSquared = 1e180;

/** A block of interaction-list entries in SoA form. */
struct ListBlock
{
    double x[kListBlock];
    double y[kListBlock];
    double q[kListBlock];
    std::size_t size = 0;
};

/**
 * Squared distance from the box [lo, hi] to a point: 0 inside it, and
 * exactly (p - b).norm2() for the degenerate box {p, p}.
 */
[[gnu::always_inline]] inline double
boxDistance2(Vec2 lo, Vec2 hi, Vec2 b)
{
    double dx = std::max(std::max(lo.x - b.x, b.x - hi.x), 0.0);
    double dy = std::max(std::max(lo.y - b.y, b.y - hi.y), 0.0);
    return dx * dx + dy * dy;
}

/**
 * The group's view of theta: the squared test's bounds, set so that it
 * never runs when theta^2 is out of range (theta <= 0 or NaN included).
 */
struct Opening
{
    double theta;
    double theta2;
    double minSquared;

    explicit Opening(double t) : theta(t), theta2(t * t)
    {
        const bool ranged =
            t > 0.0 && theta2 >= kMinTheta2 && theta2 <= kMaxTheta2;
        minSquared = ranged ? kFarSquared
                            : std::numeric_limits<double>::infinity();
    }

    /**
     * The opening test `dist > kCoincidenceEps && size / dist < theta`
     * with dist = sqrt(d2), decided without sqrt or divide where the
     * squares are clear of the boundary by kMargin; `exact` is called
     * when the sqrt/divide form has to decide. Every answer is that
     * form's.
     */
    template <typename Exact>
    [[gnu::always_inline]] bool
    accepts(double d2, double size, Exact &&exact) const
    {
        if (d2 > minSquared && d2 < kMaxSquared) {
            const double t2 = theta2 * d2;
            const double s2 = size * size;
            if (s2 < t2 * (1.0 - kMargin))
                return true;
            if (s2 > t2 * (1.0 + kMargin))
                return false;
        }
        exact();
        const double dist = std::sqrt(d2);
        return dist > kCoincidenceEps && size / dist < theta;
    }
};

/**
 * Whether a leaf at squared box distance d2 is within kCoincidenceEps
 * of the box: `sqrt(d2) <= kCoincidenceEps`, with the sqrt only when
 * d2 is near it.
 */
[[gnu::always_inline]] inline bool
coincides(double d2)
{
    return !(d2 > kFarSquared) && std::sqrt(d2) <= kCoincidenceEps;
}

/**
 * Visit, in walk order, every cell the box [lo, hi] interacts with:
 * leaves, and internal cells passing the group test; visit gets the
 * cell and its squared box distance. With the box's nearest point in
 * place of the body, the group test is the classic per-body test for
 * the box {p, p}.
 *
 * The order is a stack walk's that pushes a cell's children first to
 * last, so the last quadrant pops first; but the children are tested
 * when their parent opens. From the last child to the first, each
 * leaf or accepted cell is visited at once; at the first child that
 * must open, only its untested elder siblings are pushed, and the walk
 * descends into it. A popped cell is tested as it pops. Every test and
 * every visit comes in the stack walk's order.
 */
template <typename Visit, typename Exact>
[[gnu::always_inline]] inline void
walkCells(const QuadTree::Cell *cells, Vec2 lo, Vec2 hi, double theta,
          Visit &&visit, Exact &&exact)
{
    const Opening opening(theta);
    // Test one cell: visit it, or skip it when it holds no charge, and
    // answer whether it must open instead.
    auto opens = [&](const QuadTree::Cell &c) {
        if (c.charge <= 0.0)
            return false;
        const double d2 = boxDistance2(lo, hi, c.bary);
        if (c.count == 0 || opening.accepts(d2, c.size, exact)) {
            visit(c, d2);
            return false;
        }
        return true;
    };
    // Explicit fixed-size stack: no recursion and no allocation.
    std::array<CellId, kStackDepth> stack;
    std::size_t top = 0;
    const QuadTree::Cell *open = opens(cells[0]) ? &cells[0] : nullptr;
    while (open != nullptr) {
        const std::size_t first = open->first.index();
        std::size_t k = open->count;
        open = nullptr;
        while (k-- > 0) {
            if (!opens(cells[first + k]))
                continue;
            open = &cells[first + k];
            for (std::size_t j = 0; j < k; ++j)
                stack[top++] = CellId::fromIndex(first + j);
            break;
        }
        while (open == nullptr && top > 0) {
            const QuadTree::Cell &c = cells[stack[--top].index()];
            if (opens(c))
                open = &c;
        }
    }
}

/** L doubles as one GCC vector, so the near list's select packs. */
template <std::size_t L>
struct LaneVector
{
    typedef double type __attribute__((vector_size(L * sizeof(double))));
};

/**
 * Add the field of `list` at the points (px, py)[begin, end) into
 * (fx, fy), L points at a time; end - begin is a multiple of L. Far
 * lists hold no entry within kCoincidenceEps of a point; near lists
 * may, and each point skips those (itself included): a lane within it
 * keeps its running sum by a select, since adding a zero would turn a
 * -0 sum into +0, and the select drops the lane's division by zero
 * too. Each point sums the list in list order with the arithmetic of
 * the classic per-body loop, so its result does not depend on the lane
 * or block it lands in, nor on the vector width. The branch-free body
 * packs sqrt and divide (hence -fno-math-errno on viva_layout).
 */
template <bool Near, std::size_t L>
[[gnu::always_inline]] inline void
evaluateList(const ListBlock &list, const double *px, const double *py,
             std::size_t begin, std::size_t end, double *fx, double *fy)
{
    using Lanes = typename LaneVector<L>::type;
    for (std::size_t b = begin; b < end; b += L) {
        Lanes ax, ay, gx, gy;
        std::memcpy(&ax, px + b, sizeof ax);
        std::memcpy(&ay, py + b, sizeof ay);
        std::memcpy(&gx, fx + b, sizeof gx);
        std::memcpy(&gy, fy + b, sizeof gy);
        for (std::size_t j = 0; j < list.size; ++j) {
            const Lanes dx = ax - list.x[j];
            const Lanes dy = ay - list.y[j];
            const Lanes d2 = dx * dx + dy * dy;
            Lanes dist;
            for (std::size_t k = 0; k < L; ++k)
                dist[k] = std::sqrt(d2[k]);
            const Lanes s = list.q[j] / (dist * dist * dist);
            if constexpr (Near) {
                gx = dist < kCoincidenceEps ? gx : gx + dx * s;
                gy = dist < kCoincidenceEps ? gy : gy + dy * s;
            } else {
                gx += dx * s;
                gy += dy * s;
            }
        }
        std::memcpy(fx + b, &gx, sizeof gx);
        std::memcpy(fy + b, &gy, sizeof gy);
    }
}

/**
 * evaluateList over the points [0, n), n a multiple of kLanes, `Wide`
 * lanes at a time; with Wide = 2 * kLanes a last half vector runs
 * kLanes wide.
 */
template <bool Near, std::size_t Wide>
[[gnu::always_inline]] inline void
evaluateBlocks(const ListBlock &list, const double *px, const double *py,
               std::size_t n, double *fx, double *fy)
{
    const std::size_t wide = n / Wide * Wide;
    evaluateList<Near, Wide>(list, px, py, 0, wide, fx, fy);
    if constexpr (Wide > kLanes)
        evaluateList<Near, kLanes>(list, px, py, wide, n, fx, fy);
}

/**
 * The walk of QuadTree::fieldAt plus its list evaluation, `Wide` lanes
 * at a time: compiled once per instruction set below.
 */
template <std::size_t Wide>
[[gnu::always_inline]] inline void
fieldKernel(const QuadTree::Cell *cells, const double *px,
            const double *py, std::size_t n, Vec2 lo, Vec2 hi,
            double theta, double *fx, double *fy)
{
    const std::size_t lanes = (n + kLanes - 1) / kLanes * kLanes;
    // Accepted cells lie farther than kCoincidenceEps from every point
    // by the group test, and so do most leaves: they take the plain
    // list. Leaves within kCoincidenceEps of the box (the group's own
    // bodies among them) take the checked one. Both lists flush in an
    // order fixed by the walk alone.
    ListBlock lists[2];  // far, near
    walkCells(
        cells, lo, hi, theta,
        [&](const QuadTree::Cell &c, double d2) {
            const bool close = c.count == 0 && coincides(d2);
            ListBlock &list = lists[close];
            list.x[list.size] = c.bary.x;
            list.y[list.size] = c.bary.y;
            list.q[list.size] = c.charge;
            if (++list.size < kListBlock)
                return;
            if (close)
                evaluateBlocks<true, Wide>(list, px, py, lanes, fx, fy);
            else
                evaluateBlocks<false, Wide>(list, px, py, lanes, fx, fy);
            list.size = 0;
        },
        [] {});
    evaluateBlocks<false, Wide>(lists[0], px, py, lanes, fx, fy);
    evaluateBlocks<true, Wide>(lists[1], px, py, lanes, fx, fy);
}

using FieldFn = void (*)(const QuadTree::Cell *, const double *,
                         const double *, std::size_t, Vec2, Vec2, double,
                         double *, double *);

/** fieldKernel at the build's baseline instruction set. */
[[gnu::flatten]] void
fieldBaseline(const QuadTree::Cell *cells, const double *px,
              const double *py, std::size_t n, Vec2 lo, Vec2 hi,
              double theta, double *fx, double *fy)
{
    fieldKernel<kLanes>(cells, px, py, n, lo, hi, theta, fx, fy);
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * fieldKernel with AVX2's 256-bit vectors. The target adds no FMA, so
 * no product is contracted and every result is the baseline's.
 */
[[gnu::target("avx2"), gnu::flatten]] void
fieldAvx2(const QuadTree::Cell *cells, const double *px,
          const double *py, std::size_t n, Vec2 lo, Vec2 hi,
          double theta, double *fx, double *fy)
{
    fieldKernel<kLanes>(cells, px, py, n, lo, hi, theta, fx, fy);
}

/**
 * fieldKernel with AVX-512's 512-bit vectors: 8 lanes, and a last half
 * vector on 256-bit ones (AVX-512VL gives those the mask registers
 * too). AVX-512F brings FMA, but -ffp-contract=off keeps every product
 * unfused, so every result is the baseline's.
 */
[[gnu::target("avx512f,avx512vl"), gnu::flatten]] void
fieldAvx512(const QuadTree::Cell *cells, const double *px,
            const double *py, std::size_t n, Vec2 lo, Vec2 hi,
            double theta, double *fx, double *fy)
{
    fieldKernel<2 * kLanes>(cells, px, py, n, lo, hi, theta, fx, fy);
}
#endif

/** The compiled copy of `kernel`. */
FieldFn
fieldFn(QuadTree::Kernel kernel)
{
    switch (kernel) {
#if defined(__x86_64__) || defined(__i386__)
    case QuadTree::Kernel::Avx2:
        return fieldAvx2;
    case QuadTree::Kernel::Avx512:
        return fieldAvx512;
#endif
    default:
        VIVA_ASSERT(kernel == QuadTree::Kernel::Baseline,
                    "field kernel ", int(kernel), " is not compiled in");
        return fieldBaseline;
    }
}

} // namespace

std::size_t
QuadTree::newCell(Vec2 lo, Vec2 hi)
{
    std::size_t i = cells.size();
    Cell cell;
    cell.size = std::max(hi.x - lo.x, hi.y - lo.y);
    cells.push_back(cell);
    boxes.push_back({lo, hi});
    return i;
}

void
QuadTree::build(Vec2 lo, Vec2 hi, const std::vector<Body> &bodies)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("layout.quadtree.build");
    obs::ScopedPhase timer(phase);

    VIVA_ASSERT(lo.x < hi.x && lo.y < hi.y, "degenerate quadtree box");
    cells.clear();
    boxes.clear();
    groupStart.clear();
    inserted = bodies.size();
    newCell(lo, hi);
    if (bodies.empty())
        return;

    const std::size_t n = bodies.size();
    VIVA_ASSERT(n <= kIndexMask + 1, n, " bodies overflow the ",
                kIndexBits, "-bit index of a sort key");
    // Each key packs a body's Morton code above its index, so keys are
    // unique and their order is (code, index): deterministic, the tree
    // (and every force it yields) a pure function of the input
    // sequence. An iteration moves bodies a little, so the previous
    // build's order of the same bodies is nearly sorted: lay the keys
    // out in it and insertion-sort them, unless that takes more than
    // kCoherentMoves moves per body, when std::sort finishes the job.
    // Both give the one sorted sequence.
    const bool coherent = order.size() == n;
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t b = coherent ? order[i] : std::uint32_t(i);
        VIVA_ASSERT(bodies[b].charge > 0, "charge must be positive");
        keys[i] =
            (mortonCode(bodies[b].position, lo, hi) << kIndexBits) | b;
    }
    std::size_t sorted = 0;  // keys[0, sorted) are in order
    if (coherent) {
        const std::size_t bound = kCoherentMoves * n;
        std::size_t moves = 0;
        for (sorted = 1; sorted < n && moves <= bound; ++sorted) {
            const std::uint64_t key = keys[sorted];
            std::size_t j = sorted;
            for (; j > 0 && keys[j - 1] > key; --j)
                keys[j] = keys[j - 1];
            keys[j] = key;
            moves += sorted - j;
        }
    }
    if (sorted < n)
        std::sort(keys.begin(), keys.end());
    order.resize(n);
    sortedX.resize(n);
    sortedY.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = std::uint32_t(keys[i] & kIndexMask);
        sortedX[i] = bodies[order[i]].position.x;
        sortedY[i] = bodies[order[i]].position.y;
    }

    fillCell(0, 0, n, 2 * (kMortonBits - 1), false, bodies);
    groupStart.push_back(std::uint32_t(n));
}

void
QuadTree::fillCell(std::size_t cell, std::size_t begin, std::size_t end,
                   int shift, bool in_group,
                   const std::vector<Body> &bodies)
{
    const bool opens = !in_group && end - begin <= kGroupSize;
    if (opens)
        groupStart.push_back(std::uint32_t(begin));
    // The range is sorted, so equal end codes mean one Morton cell.
    if (end - begin == 1 || shift < 0 ||
        codeAt(begin) == codeAt(end - 1)) {
        // One body, or several sharing a Morton cell: a leaf at the
        // charge-weighted centroid, merged left-to-right in sorted
        // order (deterministic). An overfull merged leaf is split into
        // groups of kGroupSize bodies.
        if (!in_group && !opens)
            for (std::size_t s = begin; s < end; s += kGroupSize)
                groupStart.push_back(std::uint32_t(s));
        const auto [root_lo, root_hi] = boxes[0];
        Vec2 p{};
        double q = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const Body &b = bodies[order[i]];
            // Out-of-box bodies merge at the clamped position.
            Vec2 bp{std::clamp(b.position.x, root_lo.x, root_hi.x),
                    std::clamp(b.position.y, root_lo.y, root_hi.y)};
            double total = q + b.charge;
            p = (p * q + bp * b.charge) / total;
            q = total;
        }
        cells[cell].charge = q;
        cells[cell].bary = p;
        return;
    }

    const auto [lo, hi] = boxes[cell];
    double mx = 0.5 * (lo.x + hi.x);
    double my = 0.5 * (lo.y + hi.y);
    const Vec2 corner[4][2] = {
        {{lo.x, lo.y}, {mx, my}},
        {{mx, lo.y}, {hi.x, my}},
        {{lo.x, my}, {mx, hi.y}},
        {{mx, my}, {hi.x, hi.y}},
    };
    // The range is Morton-sorted, so each quadrant's bodies form one
    // contiguous sub-range; walk the 2-bit digit boundaries in order
    // and append one child per non-empty quadrant, as one block.
    std::size_t bound[5] = {begin};
    std::uint32_t count = 0;
    const std::size_t first = cells.size();
    for (int d = 0; d < 4; ++d) {
        std::size_t sub = bound[count];
        while (sub < end && int((codeAt(sub) >> shift) & 3) == d)
            ++sub;
        if (sub == bound[count])
            continue;  // empty quadrant: no cell at all
        newCell(corner[d][0], corner[d][1]);
        bound[++count] = sub;
    }
    cells[cell].first = CellId::fromIndex(first);
    cells[cell].count = count;
    double charge_sum = 0.0;
    Vec2 moment{};
    for (std::uint32_t k = 0; k < count; ++k) {
        fillCell(first + k, bound[k], bound[k + 1], shift - 2,
                 in_group || opens, bodies);
        const Cell &child = cells[first + k];
        charge_sum += child.charge;
        moment += child.bary * child.charge;
    }
    cells[cell].charge = charge_sum;
    cells[cell].bary = moment / charge_sum;
}

std::vector<QuadTree::Kernel>
QuadTree::kernels()
{
    std::vector<Kernel> out{Kernel::Baseline};
    // A plain function pointer picked from these rather than
    // target_clones, whose ifunc resolver segfaulted under
    // -fsanitize=thread (GCC 12).
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        out.push_back(Kernel::Avx2);
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        out.push_back(Kernel::Avx512);
#endif
    return out;
}

QuadTree::Kernel
QuadTree::kernel()
{
    static const Kernel picked = kernels().back();
    return picked;
}

void
QuadTree::fieldAt(const double *px, const double *py, std::size_t n,
                  Vec2 lo, Vec2 hi, double theta, double *fx,
                  double *fy, Kernel via) const
{
    fieldFn(via)(cells.data(), px, py, n, lo, hi, theta, fx, fy);
}

std::array<Vec2, 2>
QuadTree::groupBox(std::size_t g) const
{
    Vec2 lo{sortedX[groupStart[g]], sortedY[groupStart[g]]};
    Vec2 hi = lo;
    for (std::size_t s = groupStart[g]; s < groupStart[g + 1]; ++s) {
        lo.x = std::min(lo.x, sortedX[s]);
        lo.y = std::min(lo.y, sortedY[s]);
        hi.x = std::max(hi.x, sortedX[s]);
        hi.y = std::max(hi.y, sortedY[s]);
    }
    return {lo, hi};
}

void
QuadTree::groupField(std::size_t g, double theta,
                     std::vector<Vec2> &field) const
{
    groupFieldVia(g, theta, field, kernel());
}

void
QuadTree::debugKernelGroupField(Kernel via, std::size_t g, double theta,
                                std::vector<Vec2> &field) const
{
    const std::vector<Kernel> runnable = kernels();
    VIVA_ASSERT(std::find(runnable.begin(), runnable.end(), via) !=
                    runnable.end(),
                "this CPU cannot run field kernel ", int(via));
    groupFieldVia(g, theta, field, via);
}

void
QuadTree::groupFieldVia(std::size_t g, double theta,
                        std::vector<Vec2> &field, Kernel via) const
{
    VIVA_ASSERT(g < groupCount(), "bad group ", g);
    VIVA_ASSERT(field.size() >= inserted, "field holds ", field.size(),
                " slots for ", inserted, " bodies");
    const std::size_t begin = groupStart[g];
    const std::size_t n = groupStart[g + 1] - begin;
    // The group's bodies, padded to whole lanes with copies of the
    // last one (their results are dropped).
    double px[kGroupSize], py[kGroupSize];
    double fx[kGroupSize] = {}, fy[kGroupSize] = {};
    for (std::size_t i = 0; i < kGroupSize; ++i) {
        px[i] = sortedX[begin + std::min(i, n - 1)];
        py[i] = sortedY[begin + std::min(i, n - 1)];
    }
    auto [lo, hi] = groupBox(g);
    fieldAt(px, py, n, lo, hi, theta, fx, fy, via);
    for (std::size_t i = 0; i < n; ++i)
        field[order[begin + i]] = Vec2{fx[i], fy[i]};
}

Vec2
QuadTree::forceAt(Vec2 position, double theta) const
{
    if (inserted == 0)
        return Vec2{};
    double px[kGroupSize], py[kGroupSize];
    double fx[kGroupSize] = {}, fy[kGroupSize] = {};
    std::fill(px, px + kGroupSize, position.x);
    std::fill(py, py + kGroupSize, position.y);
    fieldAt(px, py, 1, position, position, theta, fx, fy, kernel());
    return Vec2{fx[0], fy[0]};
}

QuadTree::GroupWalk
QuadTree::debugGroupWalk(std::size_t g, double theta) const
{
    VIVA_ASSERT(g < groupCount(), "bad group ", g);
    GroupWalk out;
    out.bodies.assign(order.begin() + groupStart[g],
                      order.begin() + groupStart[g + 1]);
    auto [lo, hi] = groupBox(g);
    walkCells(
        cells.data(), lo, hi, theta,
        [&](const Cell &c, double) {
            if (c.count == 0)
                return;
            out.barycentres.push_back(c.bary);
            out.sizes.push_back(c.size);
        },
        [&] { ++out.exactTests; });
    return out;
}

support::AuditLog
QuadTree::auditInvariants() const
{
    using support::auditFail;
    using support::nearlyEqual;

    // Accumulated floating error of the bottom-up sums; looser than
    // the aggregation tolerance because barycentres divide by charge.
    constexpr double kTol = 1e-9;

    support::AuditLog log;
    if (cells.empty() || boxes.size() != cells.size()) {
        auditFail(log, "quadtree has no root cell or ", boxes.size(),
                  " boxes for ", cells.size(), " cells");
        return log;
    }

    double totalLeafCharge = 0.0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const auto [lo, hi] = boxes[i];
        if (!(lo.x < hi.x && lo.y < hi.y))
            auditFail(log, "cell ", i, " has a degenerate box");
        if (cell.size != std::max(hi.x - lo.x, hi.y - lo.y))
            auditFail(log, "cell ", i, " size ", cell.size,
                      " is not its box's");
        if (cell.charge < 0.0)
            auditFail(log, "cell ", i, " has negative charge ",
                      cell.charge);

        if (cell.count == 0) {
            totalLeafCharge += cell.charge;
            if (inserted > 0 && cell.charge <= 0.0)
                auditFail(log, "leaf ", i, " has non-positive charge ",
                          cell.charge);
            if (cell.bary.x < lo.x - kTol || cell.bary.x > hi.x + kTol ||
                cell.bary.y < lo.y - kTol || cell.bary.y > hi.y + kTol)
                auditFail(log, "leaf ", i, " point escapes its box");
            continue;
        }

        // Children follow their parent as one block, each tiling a
        // distinct quadrant, in quadrant order.
        if (cell.count > 4 || cell.first.value() <= std::int32_t(i) ||
            cell.first.index() + cell.count > cells.size()) {
            auditFail(log, "internal cell ", i, " has a bad child block ",
                      cell.first, " + ", cell.count);
            continue;
        }
        double childCharge = 0.0;
        Vec2 moment;
        double mx = 0.5 * (lo.x + hi.x);
        double my = 0.5 * (lo.y + hi.y);
        const Vec2 corner[4][2] = {
            {{lo.x, lo.y}, {mx, my}},
            {{mx, lo.y}, {hi.x, my}},
            {{lo.x, my}, {mx, hi.y}},
            {{mx, my}, {hi.x, hi.y}},
        };
        int quadrant = 0;
        for (std::uint32_t k = 0; k < cell.count; ++k) {
            const std::size_t child = cell.first.index() + k;
            while (quadrant < 4 &&
                   !(boxes[child][0] == corner[quadrant][0] &&
                     boxes[child][1] == corner[quadrant][1]))
                ++quadrant;
            if (quadrant == 4) {
                auditFail(log, "child ", child, " of cell ", i,
                          " does not tile a later quadrant");
                break;
            }
            ++quadrant;
            childCharge += cells[child].charge;
            moment += cells[child].bary * cells[child].charge;
        }
        if (!nearlyEqual(cell.charge, childCharge, kTol))
            auditFail(log, "internal cell ", i, " charge ", cell.charge,
                      " != sum of children ", childCharge);
        if (cell.charge > 0.0) {
            Vec2 expect = moment / childCharge;
            if (!nearlyEqual(cell.bary.x, expect.x, kTol) ||
                !nearlyEqual(cell.bary.y, expect.y, kTol))
                auditFail(log, "internal cell ", i,
                          " barycentre drifted from its children");
        }
    }

    if (!nearlyEqual(cells[0].charge, totalLeafCharge, kTol))
        auditFail(log, "root charge ", cells[0].charge,
                  " != total leaf charge ", totalLeafCharge);
    if (inserted > 0 && cells[0].charge <= 0.0)
        auditFail(log, "points were inserted but the root holds no "
                  "charge");

    // Groups: consecutive runs of at most kGroupSize sorted bodies
    // covering every body exactly once.
    if (inserted > 0 &&
        (groupStart.size() < 2 || groupStart.front() != 0 ||
         groupStart.back() != inserted))
        auditFail(log, "groups do not span the ", inserted, " bodies");
    for (std::size_t g = 0; g < groupCount(); ++g)
        if (groupStart[g + 1] <= groupStart[g] ||
            groupStart[g + 1] - groupStart[g] > kGroupSize)
            auditFail(log, "group ", g, " holds ",
                      std::int64_t(groupStart[g + 1]) -
                          std::int64_t(groupStart[g]),
                      " bodies");
    return log;
}

void
QuadTree::debugScaleCellCharge(std::size_t cell, double factor)
{
    VIVA_ASSERT(cell < cells.size(), "bad cell index ", cell);
    cells[cell].charge *= factor;
}

} // namespace viva::layout
