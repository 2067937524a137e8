/**
 * @file
 * Barnes-Hut quadtree [3]: the O(n log n) approximation of the all-pairs
 * Coulomb repulsion that makes the layout scale to large views
 * (Section 3.3: "we adopt the scalable Barnes-Hut algorithm").
 *
 * The tree lives in one vector of cell records whose capacity persists
 * across rebuilds, so a layout iterating at interactive rates stops
 * paying per-cell allocations after the first few steps. build()
 * Morton-sorts the bodies once and emits the tree in a single pass that
 * stores each cell's non-empty children contiguously, in quadrant
 * order.
 *
 * The field is evaluated per *group* (Barnes 1990, "a modified tree
 * code"): every maximal cell holding at most kGroupSize bodies is one
 * contiguous Morton range, walked once against its tight bounding box.
 * The walk tests a cell's children when the cell opens, visiting
 * leaves and accepted cells at once, and stacks only the untested
 * siblings of the child it descends into: at most 3 per level. Its
 * interaction lists are then evaluated for all the group's bodies in
 * one fixed-order packed loop: the far list, and the near list of
 * leaves that may coincide with a body, whose skipped lanes keep their
 * sums by a select. That loop is compiled for the baseline ISA, AVX2
 * (4 lanes) and AVX-512 (8 lanes), and the widest copy this CPU runs
 * is picked once; all three give the same bits. forceAt() is the same
 * walk for the degenerate box {p, p}.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "layout/vec2.hh"
#include "support/invariant.hh"
#include "support/strong_id.hh"

namespace viva::layout
{

/** Tag type of the quadtree cell index space. */
struct CellTag
{
};

/**
 * Index of one cell inside a QuadTree's arena. Strongly typed so a cell
 * index can never be mixed up with a NodeId even though both are small
 * integers flowing through the same layout code.
 */
using CellId = support::StrongId<CellTag, std::int32_t>;

/** Sentinel for "no child in this quadrant". */
inline constexpr CellId kNoCell{-1};

/**
 * A quadtree over charged 2-D points. build() it once per iteration
 * from the full point set, then query the approximate repulsive field
 * per group with groupField(), or at any point with forceAt().
 */
class QuadTree
{
  public:
    /** One charged input point of build(). */
    struct Body
    {
        Vec2 position;
        double charge = 0.0;
    };

    /** A cell holding at most this many bodies is one group. */
    static constexpr std::size_t kGroupSize = 32;

    /**
     * One cell of the arena: all the walk reads of it, in one record.
     * An internal cell's non-empty children are the `count` records
     * from `first` on, in quadrant order; a leaf has count 0.
     */
    struct Cell
    {
        Vec2 bary;            ///< charge-weighted centre
        double charge = 0.0;  ///< total charge inside
        double size = 0.0;    ///< the box's larger side
        CellId first = kNoCell;
        std::uint32_t count = 0;
    };

    /**
     * Rebuild the whole tree from a point set: Morton-sort the bodies
     * (21 bits per axis, deterministic index tiebreak; starting from
     * the previous build's order when the body count is the same),
     * then emit cells bottom-up into the arena, creating only
     * non-empty quadrants. At most 2^22 bodies. Allocation-free once
     * the arena capacity has warmed up. Bodies quantized to the same
     * Morton cell merge into one leaf at their charge-weighted
     * centroid, clamped into the box.
     */
    void build(Vec2 lo, Vec2 hi, const std::vector<Body> &bodies);

    /** Number of groups of the last build(); they tile the bodies. */
    std::size_t groupCount() const
    {
        return groupStart.empty() ? 0 : groupStart.size() - 1;
    }

    /**
     * The repulsive field at every body of group `g`, written to
     * field[i] for each of its body indices i (positions in the
     * build() input): the sum over charges q_j of
     * q_j * (p - p_j) / |p - p_j|^3. A cell counts as a single charge
     * at its barycentre when (cell size / distance from the group's
     * bounding box to the barycentre) < theta, so every accepted cell
     * also passes each body's own opening test. Leaves always count
     * exactly; near-coincident charges (distance below a small
     * epsilon, the body itself included) are skipped.
     *
     * Each body sums its list in an order fixed by the tree and the
     * group alone, so distinct groups may run concurrently (they
     * write disjoint slots) with bitwise identical results.
     * @param field one slot per body; at least pointCount() long
     */
    void groupField(std::size_t g, double theta,
                    std::vector<Vec2> &field) const;

    /**
     * The field at one position: the group walk for the degenerate
     * box {position, position}, for which the group test is the
     * classic per-body test.
     * @param theta opening angle; 0 degenerates to the exact sum
     */
    Vec2 forceAt(Vec2 position, double theta) const;

    /** Number of bodies of the last build(). */
    std::size_t pointCount() const { return inserted; }

    /** Number of allocated tree cells (memory metric). */
    std::size_t cellCount() const { return cells.size(); }

    /**
     * Deep structural audit: every internal cell's charge and
     * barycentre are consistent with its children, child boxes tile
     * their parent exactly and follow it in quadrant order, each
     * record's size is its box's, leaf barycentres lie inside their
     * cell, the root charge accounts for every leaf, and the groups
     * tile the bodies in runs of at most kGroupSize.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: scale one cell's cached charge,
     * deliberately breaking mass conservation. Never call outside
     * tests.
     */
    void debugScaleCellCharge(std::size_t cell, double factor);

    /** Test introspection: one group's walk. */
    struct GroupWalk
    {
        std::vector<std::uint32_t> bodies;  ///< body indices
        std::vector<Vec2> barycentres;      ///< accepted internal cells
        std::vector<double> sizes;          ///< their box sizes
        /**
         * Opening tests the squared comparison left to the exact
         * sqrt/divide expression (a ratio within its margin of theta,
         * a near-coincident or out-of-range distance).
         */
        std::size_t exactTests = 0;
    };

    /** The cells group `g`'s walk accepts, in walk order. */
    GroupWalk debugGroupWalk(std::size_t g, double theta) const;

    /**
     * The compiled copies of the field kernel, valued by the doubles
     * of one vector operation: the build's baseline instruction set
     * (SSE2 on x86-64), AVX2 and AVX-512. All give the same bits.
     */
    enum class Kernel { Baseline = 2, Avx2 = 4, Avx512 = 8 };

    /** The kernels this CPU can run, Baseline first, widest last. */
    static std::vector<Kernel> kernels();

    /** The kernel groupField() and forceAt() run: the widest one. */
    static Kernel kernel();

    /**
     * Test introspection: groupField() through kernel `via`, which
     * this CPU must be able to run.
     */
    void debugKernelGroupField(Kernel via, std::size_t g, double theta,
                               std::vector<Vec2> &field) const;

  private:
    /** Low bits of a sort key: the body index below its Morton code. */
    static constexpr int kIndexBits = 22;
    static constexpr std::uint64_t kIndexMask =
        (std::uint64_t(1) << kIndexBits) - 1;

    /**
     * Insertion-sort moves per body a coherent build() may spend
     * before it falls back to std::sort.
     */
    static constexpr std::size_t kCoherentMoves = 8;

    /** The Morton code of the i-th body in sorted order. */
    std::uint64_t
    codeAt(std::size_t i) const
    {
        return keys[i] >> kIndexBits;
    }

    /** Append one leaf cell with this box; returns its index. */
    std::size_t newCell(Vec2 lo, Vec2 hi);

    /**
     * Fill the cell for the Morton-sorted body range [begin, end) of
     * `order`: a leaf, or an internal cell whose children are
     * appended as one block and filled in turn, recursing per 2-bit
     * digit at `shift`. Opens a group at the first cell on the path
     * holding at most kGroupSize bodies.
     */
    void fillCell(std::size_t cell, std::size_t begin, std::size_t end,
                  int shift, bool in_group,
                  const std::vector<Body> &bodies);

    /** The tight bounding box {lo, hi} of group g's bodies. */
    std::array<Vec2, 2> groupBox(std::size_t g) const;

    /** groupField(), through kernel `via`. */
    void groupFieldVia(std::size_t g, double theta,
                       std::vector<Vec2> &field, Kernel via) const;

    /**
     * The field at n <= kGroupSize points (px, py) inside the box
     * [lo, hi], added into (fx, fy): one walk, its list evaluated in
     * blocks, by kernel `via`. All four arrays hold kGroupSize slots.
     */
    void fieldAt(const double *px, const double *py, std::size_t n,
                 Vec2 lo, Vec2 hi, double theta, double *fx,
                 double *fy, Kernel via) const;

    // The arena, and each cell's box {lo, hi} beside it for build()
    // and the audit (the walk reads only `cells`). clear() between
    // builds keeps the capacity.
    std::vector<Cell> cells;
    std::vector<std::array<Vec2, 2>> boxes;

    std::size_t inserted = 0;

    // Morton scratch of build(), reused across calls: the sorted keys
    // (code << kIndexBits | body index), the sorted body order (the
    // next build's starting order), the body positions in that order,
    // and the first sorted slot of each group (plus a final end
    // sentinel).
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> order;
    std::vector<double> sortedX;
    std::vector<double> sortedY;
    std::vector<std::uint32_t> groupStart;
};

} // namespace viva::layout
