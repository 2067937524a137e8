/**
 * @file
 * Implementation of the Barnes-Hut quadtree.
 */

#include "layout/quadtree.hh"

#include <algorithm>
#include <cmath>

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

/** Lanes of the list evaluation: two SSE2 vectors of doubles. */
constexpr std::size_t kLanes = 4;

/** Interaction-list entries evaluated per pass over a group. */
constexpr std::size_t kListBlock = 128;

/**
 * Walk stack bound: cells sit at depth <= kMortonBits, and popping a
 * cell leaves at most 3 siblings pending per level above it.
 */
constexpr std::size_t kStackDepth = 4 * (kMortonBits + 2);

/** A block of interaction-list entries in SoA form. */
struct ListBlock
{
    double x[kListBlock];
    double y[kListBlock];
    double q[kListBlock];
    std::size_t size = 0;
};

/**
 * Distance from the box [lo, hi] to a point: 0 inside it, and exactly
 * (p - b).norm() for the degenerate box {p, p}.
 */
double
boxDistance(Vec2 lo, Vec2 hi, Vec2 b)
{
    double dx = std::max(std::max(lo.x - b.x, b.x - hi.x), 0.0);
    double dy = std::max(std::max(lo.y - b.y, b.y - hi.y), 0.0);
    return std::sqrt(dx * dx + dy * dy);
}

/**
 * Add the field of `list` at the points (px, py) into (fx, fy); n is a
 * multiple of kLanes and no entry lies within kCoincidenceEps of a
 * point. Each point sums the list in list order with the arithmetic of
 * the classic per-body loop, so its result does not depend on the lane
 * or block it lands in. The fixed lane count and the branch-free body
 * let the compiler emit packed sqrt and divide (hence -fno-math-errno
 * on viva_layout).
 */
void
evaluateFar(const ListBlock &list, const double *px, const double *py,
            std::size_t n, double *fx, double *fy)
{
    for (std::size_t b = 0; b < n; b += kLanes) {
        double ax[kLanes], ay[kLanes], gx[kLanes], gy[kLanes];
        for (std::size_t k = 0; k < kLanes; ++k) {
            ax[k] = px[b + k];
            ay[k] = py[b + k];
            gx[k] = fx[b + k];
            gy[k] = fy[b + k];
        }
        for (std::size_t j = 0; j < list.size; ++j) {
            const double lx = list.x[j];
            const double ly = list.y[j];
            const double lq = list.q[j];
            for (std::size_t k = 0; k < kLanes; ++k) {
                double dx = ax[k] - lx;
                double dy = ay[k] - ly;
                double dist = std::sqrt(dx * dx + dy * dy);
                double s = lq / (dist * dist * dist);
                gx[k] += dx * s;
                gy[k] += dy * s;
            }
        }
        for (std::size_t k = 0; k < kLanes; ++k) {
            fx[b + k] = gx[k];
            fy[b + k] = gy[k];
        }
    }
}

/**
 * evaluateFar for entries that may coincide with a point: each point
 * skips the entries within kCoincidenceEps of it (itself included).
 */
void
evaluateNear(const ListBlock &list, const double *px, const double *py,
             std::size_t n, double *fx, double *fy)
{
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < list.size; ++j) {
            double dx = px[i] - list.x[j];
            double dy = py[i] - list.y[j];
            double dist = std::sqrt(dx * dx + dy * dy);
            if (dist < kCoincidenceEps)
                continue;
            double s = list.q[j] / (dist * dist * dist);
            fx[i] += dx * s;
            fy[i] += dy * s;
        }
    }
}

} // namespace

std::size_t
QuadTree::newCell(Vec2 lo, Vec2 hi)
{
    std::size_t i = cellLo.size();
    cellLo.push_back(lo);
    cellHi.push_back(hi);
    bary.push_back(Vec2{});
    cellCharge.push_back(0.0);
    kids.push_back({kNoCell, kNoCell, kNoCell, kNoCell});
    flags.push_back(kLeafBit);
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
    cellLo.clear();
    cellHi.clear();
    bary.clear();
    cellCharge.clear();
    kids.clear();
    flags.clear();
    groupStart.clear();
    inserted = bodies.size();

    if (bodies.empty()) {
        newCell(lo, hi);
        return;
    }

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

    buildRange(lo, hi, 0, bodies.size(), 2 * (kMortonBits - 1), false,
               bodies);
    groupStart.push_back(std::uint32_t(bodies.size()));
}

std::size_t
QuadTree::buildRange(Vec2 lo, Vec2 hi, std::size_t begin,
                     std::size_t end, int shift, bool in_group,
                     const std::vector<Body> &bodies)
{
    std::size_t cell = newCell(lo, hi);
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
        Vec2 p{};
        double q = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const Body &b = bodies[order[i]];
            // Out-of-box bodies merge at the clamped position.
            Vec2 bp{std::clamp(b.position.x, cellLo[0].x, cellHi[0].x),
                    std::clamp(b.position.y, cellLo[0].y, cellHi[0].y)};
            double total = q + b.charge;
            p = (p * q + bp * b.charge) / total;
            q = total;
        }
        cellCharge[cell] = q;
        bary[cell] = p;
        return cell;
    }

    flags[cell] = 0;
    double mx = 0.5 * (lo.x + hi.x);
    double my = 0.5 * (lo.y + hi.y);
    const Vec2 corner[4][2] = {
        {{lo.x, lo.y}, {mx, my}},
        {{mx, lo.y}, {hi.x, my}},
        {{lo.x, my}, {mx, hi.y}},
        {{mx, my}, {hi.x, hi.y}},
    };
    // The range is Morton-sorted, so each quadrant's bodies form one
    // contiguous sub-range; walk the 2-bit digit boundaries in order.
    std::size_t cursor = begin;
    double charge_sum = 0.0;
    Vec2 moment{};
    for (int d = 0; d < 4; ++d) {
        std::size_t sub = cursor;
        while (sub < end &&
               int((codeAt(sub) >> shift) & 3) == d)
            ++sub;
        if (sub == cursor)
            continue;  // empty quadrant: no cell at all
        std::size_t child =
            buildRange(corner[d][0], corner[d][1], cursor, sub,
                       shift - 2, in_group || opens, bodies);
        kids[cell][d] = CellId::fromIndex(child);
        charge_sum += cellCharge[child];
        moment += bary[child] * cellCharge[child];
        cursor = sub;
    }
    cellCharge[cell] = charge_sum;
    bary[cell] = moment / charge_sum;
    return cell;
}

template <typename Visit>
void
QuadTree::walk(Vec2 lo, Vec2 hi, double theta, Visit &&visit) const
{
    // Explicit fixed-size stack: no recursion and no allocation.
    std::array<CellId, kStackDepth> stack;
    std::size_t top = 0;
    stack[top++] = CellId{0};
    while (top > 0) {
        std::size_t c = stack[--top].index();
        if (cellCharge[c] <= 0.0)
            continue;
        if (flags[c] & kLeafBit) {
            visit(c);
            continue;
        }
        // The group test: with the box's nearest point in place of the
        // body, it is the classic per-body test for the box {p, p}.
        double dist = boxDistance(lo, hi, bary[c]);
        double size =
            std::max(cellHi[c].x - cellLo[c].x, cellHi[c].y - cellLo[c].y);
        if (dist > kCoincidenceEps && size / dist < theta) {
            visit(c);
            continue;
        }
        for (int q = 0; q < 4; ++q)
            if (kids[c][q] != kNoCell)
                stack[top++] = kids[c][q];
    }
}

void
QuadTree::fieldAt(const double *px, const double *py, std::size_t n,
                  Vec2 lo, Vec2 hi, double theta, double *fx,
                  double *fy) const
{
    const std::size_t lanes = (n + kLanes - 1) / kLanes * kLanes;
    // Accepted cells lie farther than kCoincidenceEps from every point
    // by the group test, and so do most leaves: they take the packed
    // path. Leaves within kCoincidenceEps of the box (the group's own
    // bodies among them) take the checked one. Both lists flush in an
    // order fixed by the walk alone.
    ListBlock far, near;
    walk(lo, hi, theta, [&](std::size_t c) {
        const bool close = (flags[c] & kLeafBit) &&
                           boxDistance(lo, hi, bary[c]) <= kCoincidenceEps;
        ListBlock &list = close ? near : far;
        list.x[list.size] = bary[c].x;
        list.y[list.size] = bary[c].y;
        list.q[list.size] = cellCharge[c];
        if (++list.size < kListBlock)
            return;
        if (close)
            evaluateNear(list, px, py, n, fx, fy);
        else
            evaluateFar(list, px, py, lanes, fx, fy);
        list.size = 0;
    });
    evaluateFar(far, px, py, lanes, fx, fy);
    evaluateNear(near, px, py, n, fx, fy);
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
    fieldAt(px, py, n, lo, hi, theta, fx, fy);
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
    fieldAt(px, py, 1, position, position, theta, fx, fy);
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
    walk(lo, hi, theta, [&](std::size_t c) {
        if (flags[c] & kLeafBit)
            return;
        out.barycentres.push_back(bary[c]);
        out.sizes.push_back(std::max(cellHi[c].x - cellLo[c].x,
                                     cellHi[c].y - cellLo[c].y));
    });
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
    if (cellLo.empty()) {
        auditFail(log, "quadtree has no root cell");
        return log;
    }

    double totalLeafCharge = 0.0;

    for (std::size_t i = 0; i < cellLo.size(); ++i) {
        if (!(cellLo[i].x < cellHi[i].x && cellLo[i].y < cellHi[i].y))
            auditFail(log, "cell ", i, " has a degenerate box");
        if (cellCharge[i] < 0.0)
            auditFail(log, "cell ", i, " has negative charge ",
                      cellCharge[i]);

        if (flags[i] & kLeafBit) {
            for (int q = 0; q < 4; ++q)
                if (kids[i][q] != kNoCell)
                    auditFail(log, "leaf cell ", i, " has a child");
            totalLeafCharge += cellCharge[i];
            if (inserted > 0 && cellCharge[i] <= 0.0)
                auditFail(log, "leaf ", i, " has non-positive charge ",
                          cellCharge[i]);
            if (bary[i].x < cellLo[i].x - kTol ||
                bary[i].x > cellHi[i].x + kTol ||
                bary[i].y < cellLo[i].y - kTol ||
                bary[i].y > cellHi[i].y + kTol)
                auditFail(log, "leaf ", i, " point escapes its box");
            continue;
        }

        double childCharge = 0.0;
        Vec2 moment;
        std::size_t childCount = 0;
        double mx = 0.5 * (cellLo[i].x + cellHi[i].x);
        double my = 0.5 * (cellLo[i].y + cellHi[i].y);
        const Vec2 corner[4][2] = {
            {{cellLo[i].x, cellLo[i].y}, {mx, my}},
            {{mx, cellLo[i].y}, {cellHi[i].x, my}},
            {{cellLo[i].x, my}, {mx, cellHi[i].y}},
            {{mx, my}, {cellHi[i].x, cellHi[i].y}},
        };
        for (int q = 0; q < 4; ++q) {
            CellId child_ix = kids[i][q];
            // The build creates only non-empty quadrants; an absent
            // child is well-formed, a bad index is not.
            if (child_ix == kNoCell)
                continue;
            if (child_ix.index() >= cellLo.size()) {
                auditFail(log, "internal cell ", i,
                          " has a bad child index ", child_ix);
                continue;
            }
            ++childCount;
            std::size_t child = child_ix.index();
            if (cellLo[child].x != corner[q][0].x ||
                cellLo[child].y != corner[q][0].y ||
                cellHi[child].x != corner[q][1].x ||
                cellHi[child].y != corner[q][1].y)
                auditFail(log, "child ", child_ix, " of cell ", i,
                          " does not tile quadrant ", q);
            childCharge += cellCharge[child];
            moment += bary[child] * cellCharge[child];
        }
        if (childCount == 0)
            auditFail(log, "internal cell ", i, " has no children");
        if (!nearlyEqual(cellCharge[i], childCharge, kTol))
            auditFail(log, "internal cell ", i, " charge ",
                      cellCharge[i], " != sum of children ",
                      childCharge);
        if (cellCharge[i] > 0.0) {
            Vec2 expect = moment / childCharge;
            if (!nearlyEqual(bary[i].x, expect.x, kTol) ||
                !nearlyEqual(bary[i].y, expect.y, kTol))
                auditFail(log, "internal cell ", i,
                          " barycentre drifted from its children");
        }
    }

    if (!nearlyEqual(cellCharge[0], totalLeafCharge, kTol))
        auditFail(log, "root charge ", cellCharge[0],
                  " != total leaf charge ", totalLeafCharge);
    if (inserted > 0 && cellCharge[0] <= 0.0)
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
    VIVA_ASSERT(cell < cellLo.size(), "bad cell index ", cell);
    cellCharge[cell] *= factor;
}

} // namespace viva::layout
