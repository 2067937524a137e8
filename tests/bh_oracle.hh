/**
 * @file
 * Reference Barnes-Hut field: the oracle QuadTree::groupField and
 * QuadTree::forceAt are tested against, bit for bit. It keeps the
 * plainest form of the tree and its walk: one struct per cell with a
 * child slot per quadrant, the opening test on the sqrt/divide chain
 * (`dist > eps && size / dist < theta`), a scalar evaluation per body,
 * and the far/near interaction lists flushed every 128 entries in walk
 * order. Its walk is the plain stack walk (every non-empty child
 * pushed, the last quadrant popped first, a cell tested as it pops),
 * whose accepted cells groupWalk() lists in order. Build, grouping and
 * arithmetic follow QuadTree's documented contract, so any faster form
 * of it must produce the same bits.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "layout/quadtree.hh"
#include "layout/vec2.hh"

namespace viva::layout::testing
{

/** QuadTree's build and field, in their reference form. */
class BhOracle
{
  public:
    BhOracle(Vec2 lo, Vec2 hi, const std::vector<QuadTree::Body> &input)
        : rootLo(lo), rootHi(hi), bodies(input)
    {
        const std::size_t n = bodies.size();
        if (n == 0) {
            cells.push_back(Cell{lo, hi});
            return;
        }
        std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
        for (std::size_t i = 0; i < n; ++i)
            keys.emplace_back(mortonCode(bodies[i].position),
                              std::uint32_t(i));
        std::sort(keys.begin(), keys.end());
        for (const auto &[code, index] : keys) {
            codes.push_back(code);
            order.push_back(index);
        }
        buildRange(lo, hi, 0, n, 2 * (kMortonBits - 1), false);
        groupStart.push_back(n);
    }

    /** Groups of the build, in QuadTree's group order. */
    std::size_t groupCount() const
    {
        return groupStart.empty() ? 0 : groupStart.size() - 1;
    }

    /** The field at every body: each group's walk in turn. */
    std::vector<Vec2>
    field(double theta) const
    {
        std::vector<Vec2> out(bodies.size());
        for (std::size_t g = 0; g < groupCount(); ++g) {
            const std::size_t begin = groupStart[g];
            const std::size_t n = groupStart[g + 1] - begin;
            std::vector<Vec2> points;
            for (std::size_t i = 0; i < n; ++i)
                points.push_back(bodies[order[begin + i]].position);
            auto [lo, hi] = groupBox(g);
            std::vector<Vec2> f = fieldAt(points, lo, hi, theta);
            for (std::size_t i = 0; i < n; ++i)
                out[order[begin + i]] = f[i];
        }
        return out;
    }

    /** The field at one position: the walk for the box {p, p}. */
    Vec2
    forceAt(Vec2 p, double theta) const
    {
        if (bodies.empty())
            return Vec2{};
        return fieldAt({p}, p, p, theta)[0];
    }

    /**
     * The value `size / dist` of every opening test group g's walk
     * makes at theta with dist above the coincidence epsilon: the
     * thetas at which one of its decisions flips.
     */
    std::vector<double>
    ratios(std::size_t g, double theta) const
    {
        std::vector<double> out;
        auto [lo, hi] = groupBox(g);
        walk(lo, hi, theta, [](std::size_t) {},
             [&](double d2, double size) {
                 const double dist = std::sqrt(d2);
                 if (dist > kEps)
                     out.push_back(size / dist);
             });
        return out;
    }

    /** One group's walk, as QuadTree::debugGroupWalk reports it. */
    struct Walk
    {
        std::vector<Vec2> barycentres;  ///< accepted internal cells
        /**
         * Opening tests QuadTree leaves to the sqrt/divide expression:
         * theta not positive or theta^2 outside [1e-100, 1e100], d^2
         * outside (4e-18, 1e180), or size^2 within a relative 1e-9 of
         * theta^2 * d^2.
         */
        std::size_t exactTests = 0;
    };

    /** The internal cells group g's walk accepts, in walk order. */
    Walk
    groupWalk(std::size_t g, double theta) const
    {
        Walk out;
        auto [lo, hi] = groupBox(g);
        const double theta2 = theta * theta;
        const bool ranged =
            theta > 0.0 && theta2 >= 1e-100 && theta2 <= 1e100;
        walk(lo, hi, theta,
             [&](std::size_t index) {
                 if (!cells[index].leaf)
                     out.barycentres.push_back(cells[index].bary);
             },
             [&](double d2, double size) {
                 const double t2 = theta2 * d2;
                 const double s2 = size * size;
                 const bool squared =
                     ranged && d2 > 4e-18 && d2 < 1e180 &&
                     (s2 < t2 * (1.0 - 1e-9) || s2 > t2 * (1.0 + 1e-9));
                 out.exactTests += !squared;
             });
        return out;
    }

  private:
    static constexpr double kEps = 1e-9;
    static constexpr int kMortonBits = 21;
    static constexpr std::size_t kBlock = 128;

    struct Cell
    {
        Vec2 lo, hi;
        Vec2 bary{};
        double charge = 0.0;
        std::array<int, 4> kids{-1, -1, -1, -1};
        bool leaf = true;
    };

    /** An interaction list: entries in walk order. */
    struct List
    {
        std::vector<Vec2> at;
        std::vector<double> q;
    };

    static std::uint64_t
    spread(std::uint64_t v)
    {
        std::uint64_t out = 0;
        for (int b = 0; b < kMortonBits; ++b)
            out |= ((v >> b) & 1) << (2 * b);
        return out;
    }

    std::uint64_t
    quantize(double x, double lo, double hi) const
    {
        const double grid = double(std::uint64_t(1) << kMortonBits);
        double scaled = (std::clamp(x, lo, hi) - lo) / (hi - lo) * grid;
        if (scaled >= grid - 1.0)
            return (std::uint64_t(1) << kMortonBits) - 1;
        return std::uint64_t(scaled);
    }

    std::uint64_t
    mortonCode(Vec2 p) const
    {
        return (spread(quantize(p.y, rootLo.y, rootHi.y)) << 1) |
               spread(quantize(p.x, rootLo.x, rootHi.x));
    }

    std::size_t
    buildRange(Vec2 lo, Vec2 hi, std::size_t begin, std::size_t end,
               int shift, bool in_group)
    {
        const std::size_t cell = cells.size();
        cells.push_back(Cell{lo, hi});
        const bool opens = !in_group && end - begin <= QuadTree::kGroupSize;
        if (opens)
            groupStart.push_back(begin);
        if (end - begin == 1 || shift < 0 || codes[begin] == codes[end - 1]) {
            if (!in_group && !opens)
                for (std::size_t s = begin; s < end;
                     s += QuadTree::kGroupSize)
                    groupStart.push_back(s);
            Vec2 p{};
            double q = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const QuadTree::Body &b = bodies[order[i]];
                Vec2 bp{std::clamp(b.position.x, rootLo.x, rootHi.x),
                        std::clamp(b.position.y, rootLo.y, rootHi.y)};
                double total = q + b.charge;
                p = (p * q + bp * b.charge) / total;
                q = total;
            }
            cells[cell].charge = q;
            cells[cell].bary = p;
            return cell;
        }
        cells[cell].leaf = false;
        const double mx = 0.5 * (lo.x + hi.x);
        const double my = 0.5 * (lo.y + hi.y);
        const Vec2 corner[4][2] = {
            {{lo.x, lo.y}, {mx, my}},
            {{mx, lo.y}, {hi.x, my}},
            {{lo.x, my}, {mx, hi.y}},
            {{mx, my}, {hi.x, hi.y}},
        };
        std::size_t cursor = begin;
        double charge = 0.0;
        Vec2 moment{};
        for (int d = 0; d < 4; ++d) {
            std::size_t sub = cursor;
            while (sub < end && int((codes[sub] >> shift) & 3) == d)
                ++sub;
            if (sub == cursor)
                continue;
            std::size_t child = buildRange(corner[d][0], corner[d][1],
                                           cursor, sub, shift - 2,
                                           in_group || opens);
            cells[cell].kids[d] = int(child);
            charge += cells[child].charge;
            moment += cells[child].bary * cells[child].charge;
            cursor = sub;
        }
        cells[cell].charge = charge;
        cells[cell].bary = moment / charge;
        return cell;
    }

    std::pair<Vec2, Vec2>
    groupBox(std::size_t g) const
    {
        Vec2 lo = bodies[order[groupStart[g]]].position;
        Vec2 hi = lo;
        for (std::size_t s = groupStart[g]; s < groupStart[g + 1]; ++s) {
            Vec2 p = bodies[order[s]].position;
            lo = Vec2{std::min(lo.x, p.x), std::min(lo.y, p.y)};
            hi = Vec2{std::max(hi.x, p.x), std::max(hi.y, p.y)};
        }
        return {lo, hi};
    }

    static double
    boxDistance2(Vec2 lo, Vec2 hi, Vec2 b)
    {
        double dx = std::max(std::max(lo.x - b.x, b.x - hi.x), 0.0);
        double dy = std::max(std::max(lo.y - b.y, b.y - hi.y), 0.0);
        return dx * dx + dy * dy;
    }

    static double
    boxDistance(Vec2 lo, Vec2 hi, Vec2 b)
    {
        return std::sqrt(boxDistance2(lo, hi, b));
    }

    /**
     * Visit, in walk order, the leaves and the internal cells passing
     * the group test; `tested` sees each tested cell's squared
     * distance and size.
     */
    template <typename Visit, typename Tested>
    void
    walk(Vec2 lo, Vec2 hi, double theta, Visit visit,
         Tested tested) const
    {
        std::vector<int> stack{0};
        while (!stack.empty()) {
            const Cell &c = cells[std::size_t(stack.back())];
            const std::size_t index = std::size_t(stack.back());
            stack.pop_back();
            if (c.charge <= 0.0)
                continue;
            if (c.leaf) {
                visit(index);
                continue;
            }
            double d2 = boxDistance2(lo, hi, c.bary);
            double dist = std::sqrt(d2);
            double size = std::max(c.hi.x - c.lo.x, c.hi.y - c.lo.y);
            tested(d2, size);
            if (dist > kEps && size / dist < theta) {
                visit(index);
                continue;
            }
            for (int q = 0; q < 4; ++q)
                if (c.kids[q] >= 0)
                    stack.push_back(c.kids[q]);
        }
    }

    /** Add the field of `list` at every point into f, in list order. */
    static void
    flush(const List &list, const std::vector<Vec2> &points, bool near,
          std::vector<Vec2> &f)
    {
        for (std::size_t i = 0; i < points.size(); ++i)
            for (std::size_t j = 0; j < list.q.size(); ++j) {
                double dx = points[i].x - list.at[j].x;
                double dy = points[i].y - list.at[j].y;
                double dist = std::sqrt(dx * dx + dy * dy);
                if (near && dist < kEps)
                    continue;
                double s = list.q[j] / (dist * dist * dist);
                f[i].x += dx * s;
                f[i].y += dy * s;
            }
    }

    std::vector<Vec2>
    fieldAt(const std::vector<Vec2> &points, Vec2 lo, Vec2 hi,
            double theta) const
    {
        std::vector<Vec2> f(points.size());
        List far, near;
        walk(
            lo, hi, theta,
            [&](std::size_t index) {
                const Cell &c = cells[index];
                const bool close =
                    c.leaf && boxDistance(lo, hi, c.bary) <= kEps;
                List &list = close ? near : far;
                list.at.push_back(c.bary);
                list.q.push_back(c.charge);
                if (list.q.size() < kBlock)
                    return;
                flush(list, points, close, f);
                list = List{};
            },
            [](double, double) {});
        flush(far, points, false, f);
        flush(near, points, true, f);
        return f;
    }

    Vec2 rootLo, rootHi;
    std::vector<QuadTree::Body> bodies;
    std::vector<Cell> cells;
    std::vector<std::uint64_t> codes;     ///< sorted Morton codes
    std::vector<std::uint32_t> order;     ///< body index per sorted slot
    std::vector<std::size_t> groupStart;  ///< plus an end sentinel
};

} // namespace viva::layout::testing
