/**
 * @file
 * Tests for the layout engine: graph mutations, Barnes-Hut accuracy,
 * force-directed convergence, interactivity and the quality metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <string_view>

#include "app/session.hh"
#include "layout/force.hh"
#include "layout/graph.hh"
#include "layout/metrics.hh"
#include "layout/quadtree.hh"
#include "support/random.hh"
#include "trace/builder.hh"

#include "bh_oracle.hh"

namespace vl = viva::layout;

// --- Vec2 -------------------------------------------------------------------

TEST(Vec2, Arithmetic)
{
    vl::Vec2 a{3.0, 4.0};
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    EXPECT_DOUBLE_EQ((a * 2.0).x, 6.0);
    EXPECT_DOUBLE_EQ((a - vl::Vec2{3.0, 0.0}).y, 4.0);
    EXPECT_DOUBLE_EQ(vl::distance({0, 0}, {3, 4}), 5.0);
}

// --- LayoutGraph ---------------------------------------------------------------

TEST(LayoutGraph, IdsAreDenseSlots)
{
    vl::LayoutGraph g;
    auto a = g.addNode(100, {0, 0}, 2.0);
    auto b = g.addNode(200, {1, 0});
    g.addEdge(a, b, 0.5);
    EXPECT_EQ(g.nodeCount(), 2u);
    EXPECT_EQ(g.rawNodes().size(), g.nodeCount());
    EXPECT_EQ(a.index(), 0u);
    EXPECT_EQ(b.index(), 1u);
    EXPECT_EQ(g.node(a).key, 100u);
    EXPECT_EQ(g.node(b).key, 200u);
    EXPECT_DOUBLE_EQ(g.node(a).charge, 2.0);
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_DOUBLE_EQ(g.rawEdges()[0].strength, 0.5);
}

TEST(LayoutGraph, PinningZeroesVelocity)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    g.mutableNodes()[a.index()].velocity = {3, 3};
    g.setPinned(a, true);
    EXPECT_DOUBLE_EQ(g.node(a).velocity.x, 0.0);
    EXPECT_TRUE(g.node(a).pinned);
}

TEST(LayoutGraph, Centroid)
{
    vl::LayoutGraph g;
    g.addNode(1, {0, 0});
    g.addNode(2, {4, 2});
    EXPECT_DOUBLE_EQ(g.centroid().x, 2.0);
    EXPECT_DOUBLE_EQ(g.centroid().y, 1.0);
}

TEST(LayoutGraphDeath, DuplicateKeyAsserts)
{
    // The graph keeps no key index: a session's graph mirrors its
    // projection slot for slot. A node whose key is not its slot's
    // container (here a duplicate of its neighbour's) fails the
    // session audit, and the next cut change asserts on it.
    viva::app::Session s(viva::trace::makeFigure1Trace());
    std::vector<vl::Node> &nodes = s.mutableLayoutGraph().mutableNodes();
    ASSERT_GE(nodes.size(), 2u);
    nodes[1].key = nodes[0].key;
    viva::support::AuditLog log = s.auditInvariants();
    EXPECT_NE(std::find_if(log.begin(), log.end(),
                           [](const std::string &line) {
                               return line.rfind("session: layout node 1 ",
                                                 0) == 0;
                           }),
              log.end());
    EXPECT_DEATH(s.resetAggregation(), "layout slot 1 holds key");
}

// --- QuadTree -------------------------------------------------------------------

TEST(QuadTree, SinglePointField)
{
    vl::QuadTree tree;
    tree.build({-10, -10}, {10, 10}, {{{0, 0}, 2.0}});
    vl::Vec2 f = tree.forceAt({3, 0}, 0.5);
    // field = q * d / |d|^3 = 2 * 3 / 27 along +x.
    EXPECT_NEAR(f.x, 2.0 * 3.0 / 27.0, 1e-12);
    EXPECT_NEAR(f.y, 0.0, 1e-12);
}

TEST(QuadTree, SelfQueryIsFinite)
{
    vl::QuadTree tree;
    tree.build({-1, -1}, {1, 1}, {{{0.5, 0.5}, 1.0}});
    vl::Vec2 f = tree.forceAt({0.5, 0.5}, 0.5);
    EXPECT_DOUBLE_EQ(f.x, 0.0);
    EXPECT_DOUBLE_EQ(f.y, 0.0);
}

TEST(QuadTree, CoincidentPointsMerge)
{
    vl::QuadTree tree;
    tree.build({-1, -1}, {1, 1},
               std::vector<vl::QuadTree::Body>(10, {{0.25, 0.25}, 1.0}));
    EXPECT_EQ(tree.pointCount(), 10u);
    vl::Vec2 f = tree.forceAt({0.75, 0.25}, 0.0);
    // Ten unit charges at distance 0.5: 10 * 0.5 / 0.125 = 40.
    EXPECT_NEAR(f.x, 40.0, 1e-9);
}

TEST(QuadTree, ThetaZeroIsExact)
{
    viva::support::Rng rng(11);
    std::vector<std::pair<vl::Vec2, double>> pts;
    std::vector<vl::QuadTree::Body> bodies;
    for (int i = 0; i < 60; ++i) {
        vl::Vec2 p{rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)};
        double q = rng.uniform(0.5, 3.0);
        pts.emplace_back(p, q);
        bodies.push_back({p, q});
    }
    vl::QuadTree tree;
    tree.build({0, 0}, {100, 100}, bodies);
    vl::Vec2 query{50.0, 50.0};
    vl::Vec2 exact;
    for (auto &[p, q] : pts) {
        vl::Vec2 d = query - p;
        double dist = d.norm();
        if (dist < 1e-9)
            continue;
        exact += d * (q / (dist * dist * dist));
    }
    vl::Vec2 approx = tree.forceAt(query, 0.0);
    EXPECT_NEAR(approx.x, exact.x, 1e-9);
    EXPECT_NEAR(approx.y, exact.y, 1e-9);
}

/** Barnes-Hut error must shrink with theta (property, parameterized). */
class QuadTreeAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(QuadTreeAccuracy, RelativeErrorBounded)
{
    double theta = GetParam();
    viva::support::Rng rng(23);
    vl::LayoutGraph g;
    for (int i = 0; i < 300; ++i)
        g.addNode(i, {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)},
                  rng.uniform(0.5, 4.0));
    double err = vl::barnesHutError(g, theta);
    // Empirical bound: mean relative error well under theta^2 + 2%.
    EXPECT_LT(err, theta * theta * 0.5 + 0.02) << "theta " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, QuadTreeAccuracy,
                         ::testing::Values(0.3, 0.5, 0.8, 1.0, 1.2));

namespace
{

/** A randomized charged graph, no edges (only repulsion matters here). */
vl::LayoutGraph
randomChargedGraph(std::uint64_t seed, int n)
{
    viva::support::Rng rng(seed);
    vl::LayoutGraph g;
    for (int i = 0; i < n; ++i)
        g.addNode(std::uint64_t(i),
                  {rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)},
                  rng.uniform(0.5, 4.0));
    return g;
}

} // namespace

/**
 * Property: with theta = 0 no cell is ever opened as an approximation,
 * so the tree walk degenerates to the exact O(n^2) sum -- the mean
 * relative force error must vanish (to rounding) on every randomized
 * graph, not just a hand-picked one.
 */
TEST(QuadTreeProperty, ThetaZeroMatchesExactSumOnRandomGraphs)
{
    for (std::uint64_t seed : {1u, 29u, 404u, 7777u}) {
        vl::LayoutGraph g = randomChargedGraph(seed, 250);
        EXPECT_LT(vl::barnesHutError(g, 0.0), 1e-9) << "seed " << seed;
    }
}

/**
 * Property: opening fewer cells can only lose accuracy, so the mean
 * relative error is non-decreasing in theta. Averaged over seeds with a
 * small slack, since a single graph can show tiny non-monotone wiggles.
 */
TEST(QuadTreeProperty, ErrorIsMonotoneInTheta)
{
    const double thetas[] = {0.0, 0.4, 0.8, 1.2};
    double mean_err[4] = {0, 0, 0, 0};
    const std::uint64_t seeds[] = {3, 31, 314, 3141};
    for (std::uint64_t seed : seeds) {
        vl::LayoutGraph g = randomChargedGraph(seed, 200);
        for (int i = 0; i < 4; ++i)
            mean_err[i] += vl::barnesHutError(g, thetas[i]) / 4.0;
    }
    EXPECT_LT(mean_err[0], 1e-9);
    for (int i = 0; i + 1 < 4; ++i)
        EXPECT_LE(mean_err[i], mean_err[i + 1] + 1e-4)
            << "theta " << thetas[i] << " vs " << thetas[i + 1];
    // And the sweep is not vacuous: coarse theta has real error.
    EXPECT_GT(mean_err[3], 1e-4);
}

// --- the arena batch build --------------------------------------------------

namespace
{

/** A deterministic random body set inside [0, 500)^2. */
std::vector<vl::QuadTree::Body>
randomBodies(std::uint64_t seed, int n)
{
    viva::support::Rng rng(seed);
    std::vector<vl::QuadTree::Body> bodies;
    for (int i = 0; i < n; ++i)
        bodies.push_back({{rng.uniform(0.0, 500.0),
                           rng.uniform(0.0, 500.0)},
                          rng.uniform(0.5, 4.0)});
    return bodies;
}

} // namespace

TEST(QuadTreeArena, BatchBuildAuditsClean)
{
    std::vector<vl::QuadTree::Body> bodies = randomBodies(17, 700);
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
    EXPECT_EQ(tree.pointCount(), 700u);
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeArena, RebuildReusesTheArena)
{
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {500.0, 500.0}, randomBodies(31, 800));
    std::size_t big = tree.cellCount();
    EXPECT_TRUE(tree.auditInvariants().empty());

    // A smaller rebuild shrinks the logical tree (capacity is an
    // implementation detail, but the cell count must track the build).
    tree.build({0.0, 0.0}, {500.0, 500.0}, randomBodies(37, 50));
    EXPECT_LT(tree.cellCount(), big);
    EXPECT_EQ(tree.pointCount(), 50u);
    EXPECT_TRUE(tree.auditInvariants().empty());
}

TEST(QuadTreeArena, CoincidentBodiesMergeIntoOneLeaf)
{
    std::vector<vl::QuadTree::Body> bodies(10,
                                           {{0.25, 0.25}, 1.0});
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {1.0, 1.0}, bodies);
    EXPECT_EQ(tree.pointCount(), 10u);
    EXPECT_TRUE(tree.auditInvariants().empty());
    vl::Vec2 f = tree.forceAt({0.75, 0.25}, 0.0);
    // Ten unit charges at distance 0.5: 10 * 0.5 / 0.125 = 40.
    EXPECT_NEAR(f.x, 40.0, 1e-9);
}

TEST(QuadTreeArena, EmptyBuildIsWellFormed)
{
    vl::QuadTree tree;
    tree.build({0.0, 0.0}, {1.0, 1.0}, {});
    EXPECT_EQ(tree.pointCount(), 0u);
    EXPECT_TRUE(tree.auditInvariants().empty());
    vl::Vec2 f = tree.forceAt({0.5, 0.5}, 0.8);
    EXPECT_DOUBLE_EQ(f.x, 0.0);
    EXPECT_DOUBLE_EQ(f.y, 0.0);
}

// --- the grouped field -------------------------------------------------------

namespace
{

/** The exact field at every body: the O(n^2) reference sum. */
std::vector<vl::Vec2>
exactField(const std::vector<vl::QuadTree::Body> &bodies)
{
    std::vector<vl::Vec2> out(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i)
        for (const auto &b : bodies) {
            vl::Vec2 d = bodies[i].position - b.position;
            double dist = d.norm();
            if (dist < 1e-9)
                continue;
            out[i] += d * (b.charge / (dist * dist * dist));
        }
    return out;
}

/** The grouped field at every body. */
std::vector<vl::Vec2>
groupedField(const vl::QuadTree &tree, double theta)
{
    std::vector<vl::Vec2> field(tree.pointCount());
    for (std::size_t g = 0; g < tree.groupCount(); ++g)
        tree.groupField(g, theta, field);
    return field;
}

} // namespace

TEST(QuadTreeField, ThetaZeroEqualsExactSum)
{
    // With theta = 0 no cell is accepted as an approximation, so both
    // the grouped field and forceAt degenerate to the exact sum.
    std::vector<vl::QuadTree::Body> bodies = randomBodies(19, 300);
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
    std::vector<vl::Vec2> exact = exactField(bodies);
    std::vector<vl::Vec2> field = groupedField(tree, 0.0);
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        EXPECT_NEAR(field[i].x, exact[i].x, 1e-9) << "body " << i;
        EXPECT_NEAR(field[i].y, exact[i].y, 1e-9) << "body " << i;
        vl::Vec2 at = tree.forceAt(bodies[i].position, 0.0);
        EXPECT_NEAR(at.x, exact[i].x, 1e-9) << "body " << i;
        EXPECT_NEAR(at.y, exact[i].y, 1e-9) << "body " << i;
    }
}

TEST(QuadTreeField, CoherentRebuildEqualsAFreshBuildBitwise)
{
    // A rebuild starts its sort from the previous build's order: small
    // moves (insertion sort), large ones (past the move bound, the
    // std::sort fallback) and coincident bodies must all give the tree
    // a fresh build gives, down to the bits of every field.
    std::vector<vl::QuadTree::Body> bodies = randomBodies(23, 900);
    for (std::size_t i = 0; i < 40; ++i)
        bodies[i + 40].position = bodies[i].position;  // exact ties
    vl::QuadTree warm;
    const vl::Vec2 lo{-60.0, -60.0};
    const vl::Vec2 hi{560.0, 560.0};
    warm.build(lo, hi, bodies);
    viva::support::Rng rng(29);
    for (double jitter : {0.5, 5.0, 400.0}) {
        SCOPED_TRACE(jitter);
        for (vl::QuadTree::Body &b : bodies)
            b.position += vl::Vec2{rng.uniform(-jitter, jitter),
                                   rng.uniform(-jitter, jitter)};
        warm.build(lo, hi, bodies);
        vl::QuadTree fresh;
        fresh.build(lo, hi, bodies);
        ASSERT_EQ(warm.groupCount(), fresh.groupCount());
        ASSERT_EQ(warm.cellCount(), fresh.cellCount());
        for (std::size_t g = 0; g < warm.groupCount(); ++g)
            ASSERT_EQ(warm.debugGroupWalk(g, 0.8).bodies,
                      fresh.debugGroupWalk(g, 0.8).bodies);
        std::vector<vl::Vec2> a = groupedField(warm, 0.8);
        std::vector<vl::Vec2> b = groupedField(fresh, 0.8);
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].x),
                      std::bit_cast<std::uint64_t>(b[i].x));
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].y),
                      std::bit_cast<std::uint64_t>(b[i].y));
        }
        EXPECT_TRUE(warm.auditInvariants().empty());
    }
}

TEST(QuadTreeField, GroupsTileTheBodies)
{
    std::vector<vl::QuadTree::Body> bodies = randomBodies(41, 1000);
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
    EXPECT_TRUE(tree.auditInvariants().empty());
    std::vector<int> seen(bodies.size(), 0);
    for (std::size_t g = 0; g < tree.groupCount(); ++g) {
        auto walk = tree.debugGroupWalk(g, 0.8);
        EXPECT_LE(walk.bodies.size(), vl::QuadTree::kGroupSize);
        for (std::uint32_t b : walk.bodies)
            ++seen[b];
    }
    for (std::size_t i = 0; i < bodies.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "body " << i;
    // Far fewer walks than bodies: that is the point of grouping.
    EXPECT_LT(tree.groupCount(), bodies.size() / 4);
}

/**
 * Property: the group test is conservative. Every internal cell a
 * group's walk accepts also passes the classic per-body test
 * (distance above the coincidence epsilon, size / distance < theta)
 * for every body of the group, so the grouped field is at least as
 * accurate as the per-body walk.
 */
TEST(QuadTreeField, AcceptedCellsPassEveryBodyTest)
{
    for (std::uint64_t seed : {2u, 43u, 977u}) {
        viva::support::Rng rng(seed);
        // Random sizes, and a cluster of near-duplicates, so small,
        // full and merged-leaf groups all occur.
        int n = 200 + int(rng.index(1500));
        std::vector<vl::QuadTree::Body> bodies = randomBodies(seed, n);
        for (int i = 0; i < 40; ++i)
            bodies.push_back({{250.0 + i * 1e-8, 250.0}, 1.0});
        vl::QuadTree tree;
        tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
        for (double theta : {0.3, 0.8, 1.2}) {
            std::size_t accepted = 0;
            for (std::size_t g = 0; g < tree.groupCount(); ++g) {
                auto walk = tree.debugGroupWalk(g, theta);
                for (std::size_t c = 0; c < walk.barycentres.size();
                     ++c) {
                    ++accepted;
                    for (std::uint32_t b : walk.bodies) {
                        double dist = vl::distance(bodies[b].position,
                                                   walk.barycentres[c]);
                        ASSERT_GT(dist, 1e-9);
                        ASSERT_LT(walk.sizes[c] / dist, theta)
                            << "seed " << seed << " group " << g;
                    }
                }
            }
            // Not vacuous: the walks do approximate.
            EXPECT_GT(accepted, 0u) << "theta " << theta;
        }
    }
}

/**
 * The grouped field is at least as accurate as the per-body walk
 * (forceAt) on the same tree: its group test accepts only cells every
 * body would accept.
 */
TEST(QuadTreeField, NoLessAccurateThanThePerBodyWalk)
{
    std::vector<vl::QuadTree::Body> bodies = randomBodies(53, 800);
    vl::QuadTree tree;
    tree.build({-1.0, -1.0}, {501.0, 501.0}, bodies);
    std::vector<vl::Vec2> exact = exactField(bodies);
    for (double theta : {0.5, 0.8, 1.2}) {
        std::vector<vl::Vec2> field = groupedField(tree, theta);
        double grouped = 0.0, per_body = 0.0;
        for (std::size_t i = 0; i < bodies.size(); ++i) {
            double norm = exact[i].norm();
            grouped += (field[i] - exact[i]).norm() / norm;
            per_body += (tree.forceAt(bodies[i].position, theta) -
                         exact[i]).norm() /
                        norm;
        }
        EXPECT_LE(grouped, per_body) << "theta " << theta;
    }
}

namespace
{

/** Bitwise equality of two fields, NaN and signed zeros included. */
::testing::AssertionResult
sameBits(const std::vector<vl::Vec2> &a, const std::vector<vl::Vec2> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "sizes differ";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a[i].x) !=
                std::bit_cast<std::uint64_t>(b[i].x) ||
            std::bit_cast<std::uint64_t>(a[i].y) !=
                std::bit_cast<std::uint64_t>(b[i].y))
            return ::testing::AssertionFailure()
                   << "body " << i << ": (" << a[i].x << ", " << a[i].y
                   << ") vs the oracle's (" << b[i].x << ", " << b[i].y
                   << ")";
    return ::testing::AssertionSuccess();
}

/** The root box of the oracle comparison. */
constexpr vl::Vec2 kOracleLo{-1.0, -1.0};
constexpr vl::Vec2 kOracleHi{501.0, 501.0};

/**
 * A body at the centre of quadrants 0, 1 and 2 of each of the 21 cells
 * [hi - s, hi] (s = 502 / 2^i), and one in quadrant 3 of the last:
 * 85 cells, internal down to the grid's last level.
 */
std::vector<vl::QuadTree::Body>
deepestChain()
{
    std::vector<vl::QuadTree::Body> chain;
    double side = kOracleHi.x - kOracleLo.x;
    for (int level = 0; level < 21; ++level, side /= 2.0) {
        const vl::Vec2 lo = kOracleHi - vl::Vec2{side, side};
        for (vl::Vec2 at : {vl::Vec2{0.25, 0.25}, vl::Vec2{0.75, 0.25},
                            vl::Vec2{0.25, 0.75}})
            chain.push_back({lo + at * side, 1.0 + 0.1 * level});
    }
    chain.push_back({kOracleHi - vl::Vec2{0.25, 0.25} * (2.0 * side),
                     0.5});
    return chain;
}

/** The input sets of the oracle comparison, by name. */
std::vector<std::pair<const char *, std::vector<vl::QuadTree::Body>>>
oracleInputs()
{
    std::vector<std::pair<const char *, std::vector<vl::QuadTree::Body>>>
        sets;
    sets.emplace_back("random", randomBodies(61, 700));

    viva::support::Rng rng(67);
    std::vector<vl::QuadTree::Body> clustered;
    for (int c = 0; c < 6; ++c) {
        vl::Vec2 centre{rng.uniform(20.0, 480.0), rng.uniform(20.0, 480.0)};
        double radius = rng.uniform(0.5, 15.0);
        for (int i = 0; i < 90; ++i)
            clustered.push_back(
                {centre + vl::Vec2{rng.uniform(-radius, radius),
                                   rng.uniform(-radius, radius)},
                 rng.uniform(0.5, 4.0)});
    }
    sets.emplace_back("clustered", std::move(clustered));

    // Bodies 1e-8 apart share one Morton cell: one merged leaf, split
    // into groups, whose barycentre lies within 1e-6 of every body but
    // further than the coincidence epsilon.
    std::vector<vl::QuadTree::Body> near = randomBodies(71, 300);
    for (int i = 0; i < 80; ++i)
        near.push_back({{250.0 + i * 1e-8, 250.0 - i * 1e-8}, 1.0});
    sets.emplace_back("near-coincident", std::move(near));

    // Exact duplicates: one merged leaf too full for one group.
    std::vector<vl::QuadTree::Body> merged = randomBodies(73, 300);
    for (int i = 0; i < 75; ++i)
        merged.push_back({{125.0, 375.0}, 0.5 + 0.01 * i});
    sets.emplace_back("merged-leaf", std::move(merged));

    // A group of every size from 1 to 32, so every 8-lane block and
    // 4-lane tail runs: s bodies inside one cell of the level-9 grid,
    // and 40 in the next cell of the same parent, which therefore
    // holds more than a group.
    const double h = (kOracleHi.x - kOracleLo.x) / 512.0;
    std::vector<vl::QuadTree::Body> sized;
    for (int s = 1; s <= 32; ++s) {
        const double x = kOracleLo.x + (16 * ((s - 1) % 8) + 0.5) * h;
        const double y = kOracleLo.y + (16 * ((s - 1) / 8) + 4.5) * h;
        for (int i = 0; i < s + 40; ++i) {
            const double cx = i < s ? x : x + h;
            sized.push_back({{cx + rng.uniform(-0.3, 0.3) * h,
                              y + rng.uniform(-0.3, 0.3) * h},
                             rng.uniform(0.5, 4.0)});
        }
    }
    sets.emplace_back("group-sizes", std::move(sized));

    // The deepest tree the 21-bit Morton grid allows: a geometric
    // chain into the top-right corner, with one body in each of the
    // other three quadrants of every level, so at theta 0 the walk
    // leaves 3 siblings pending at each of the 20 levels it descends.
    sets.emplace_back("deepest-chain", deepestChain());
    return sets;
}

/**
 * The field kernels this CPU can run, from its features: a dispatch
 * that left a compiled copy out would fail here, not skip it.
 */
std::vector<vl::QuadTree::Kernel>
runnableKernels()
{
    using Kernel = vl::QuadTree::Kernel;
    std::vector<Kernel> want{Kernel::Baseline};
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2"))
        want.push_back(Kernel::Avx2);
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        want.push_back(Kernel::Avx512);
#endif
    EXPECT_EQ(vl::QuadTree::kernels(), want);
    EXPECT_EQ(vl::QuadTree::kernel(), want.back());
    return want;
}

} // namespace

/**
 * The field is bitwise the reference walk's (tests/bh_oracle.hh: the
 * sqrt/divide opening test, per-quadrant child order, scalar
 * evaluation) on every input shape and theta, and at thetas a few ulps
 * from an opening test's size / dist, where the squared test must
 * leave the decision to the exact expression.
 */
TEST(QuadTreeField, FieldEqualsTheOracleBitwise)
{
    const vl::Vec2 lo = kOracleLo;
    const vl::Vec2 hi = kOracleHi;
    const std::vector<vl::QuadTree::Kernel> kernels = runnableKernels();
    for (const auto &[name, bodies] : oracleInputs()) {
        SCOPED_TRACE(name);
        vl::QuadTree tree;
        tree.build(lo, hi, bodies);
        vl::testing::BhOracle oracle(lo, hi, bodies);
        ASSERT_EQ(tree.groupCount(), oracle.groupCount());
        for (double theta : {0.0, 0.3, 0.8, 1.2}) {
            SCOPED_TRACE(theta);
            const std::vector<vl::Vec2> want_field = oracle.field(theta);
            ASSERT_TRUE(sameBits(groupedField(tree, theta), want_field));
            // Every kernel this CPU runs, not only the one it picks.
            for (vl::QuadTree::Kernel via : kernels) {
                SCOPED_TRACE(int(via));
                std::vector<vl::Vec2> field(bodies.size());
                for (std::size_t g = 0; g < tree.groupCount(); ++g)
                    tree.debugKernelGroupField(via, g, theta, field);
                ASSERT_TRUE(sameBits(field, want_field));
            }
            std::vector<vl::Vec2> at, want;
            for (std::size_t i = 0; i < bodies.size(); i += 7) {
                at.push_back(tree.forceAt(bodies[i].position, theta));
                want.push_back(oracle.forceAt(bodies[i].position, theta));
                vl::Vec2 off = bodies[i].position + vl::Vec2{0.37, -0.21};
                at.push_back(tree.forceAt(off, theta));
                want.push_back(oracle.forceAt(off, theta));
            }
            ASSERT_TRUE(sameBits(at, want));
        }
    }

    // Thetas on an opening test's boundary: size / dist exactly, and a
    // few ulps either side.
    std::vector<vl::QuadTree::Body> bodies = randomBodies(79, 600);
    vl::QuadTree tree;
    tree.build(lo, hi, bodies);
    vl::testing::BhOracle oracle(lo, hi, bodies);
    std::size_t boundaries = 0;
    for (std::size_t g = 0; g < tree.groupCount() && boundaries < 24;
         g += 3) {
        for (double ratio : oracle.ratios(g, 0.8)) {
            if (ratio < 0.2 || ratio > 1.5)
                continue;
            // The cell must still be tested when theta is its ratio.
            std::vector<double> at = oracle.ratios(g, ratio);
            if (std::find(at.begin(), at.end(), ratio) == at.end())
                continue;
            ++boundaries;
            EXPECT_GT(tree.debugGroupWalk(g, ratio).exactTests, 0u)
                << "group " << g << " ratio " << ratio;
            double theta = std::nextafter(ratio, 0.0);
            theta = std::nextafter(theta, 0.0);
            for (int step = 0; step < 5; ++step) {
                SCOPED_TRACE(theta);
                ASSERT_TRUE(sameBits(groupedField(tree, theta),
                                     oracle.field(theta)));
                theta = std::nextafter(theta, 2.0);
            }
            break;
        }
    }
    EXPECT_GE(boundaries, 12u);

    // Points a few ulps either side of the coincidence epsilon from a
    // body, where the leaf test takes the sqrt: the field is still the
    // reference's.
    bodies.push_back({{0.0, 0.0}, 1.0});
    tree.build(lo, hi, bodies);
    vl::testing::BhOracle coincident(lo, hi, bodies);
    std::vector<vl::Vec2> at, want;
    for (double scale : {1.0, 0.6, 0.8}) {
        double d = std::nextafter(std::nextafter(1e-9, 0.0), 0.0);
        for (int step = 0; step < 5; ++step) {
            const vl::Vec2 p{d * scale, d * std::sqrt(1.0 - scale * scale)};
            at.push_back(tree.forceAt(p, 0.8));
            want.push_back(coincident.forceAt(p, 0.8));
            d = std::nextafter(d, 1.0);
        }
    }
    EXPECT_TRUE(sameBits(at, want));
}

/**
 * The walk visits the reference stack walk's accepted cells in its
 * order, and leaves as many opening tests to the exact expression, on
 * every oracle input; the two extra inputs reach every group size and
 * the deepest tree.
 */
TEST(QuadTreeField, WalkOrderIsTheOracles)
{
    for (const auto &[name, bodies] : oracleInputs()) {
        SCOPED_TRACE(name);
        vl::QuadTree tree;
        tree.build(kOracleLo, kOracleHi, bodies);
        vl::testing::BhOracle oracle(kOracleLo, kOracleHi, bodies);
        ASSERT_EQ(tree.groupCount(), oracle.groupCount());
        std::size_t accepted = 0;
        for (double theta : {0.3, 0.8, 1.2}) {
            SCOPED_TRACE(theta);
            for (std::size_t g = 0; g < tree.groupCount(); ++g) {
                const auto walk = tree.debugGroupWalk(g, theta);
                const auto want = oracle.groupWalk(g, theta);
                ASSERT_TRUE(sameBits(walk.barycentres, want.barycentres))
                    << "group " << g;
                ASSERT_EQ(walk.exactTests, want.exactTests)
                    << "group " << g;
                accepted += walk.barycentres.size();
            }
        }
        EXPECT_GT(accepted, 0u);

        if (std::string_view(name) == "deepest-chain") {
            EXPECT_EQ(tree.cellCount(), 85u);
        }
        if (std::string_view(name) == "group-sizes") {
            std::vector<bool> sizes(vl::QuadTree::kGroupSize + 1, false);
            for (std::size_t g = 0; g < tree.groupCount(); ++g)
                sizes[tree.debugGroupWalk(g, 0.8).bodies.size()] = true;
            for (std::size_t n = 1; n < sizes.size(); ++n) {
                EXPECT_TRUE(sizes[n]) << "no group of " << n << " bodies";
            }
        }
    }
}

// --- ForceLayout ------------------------------------------------------------------

TEST(ForceLayout, TwoConnectedNodesApproachRestLength)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {1, 0});
    g.addEdge(a, b);
    vl::ForceLayout layout(g);
    layout.params().restLength = 40.0;
    layout.stabilize(3000, 1e-10).value();

    double d = vl::distance(g.node(a).position, g.node(b).position);
    // Equilibrium: spring pull equals charge push, so distance settles
    // somewhat above the rest length; it must be stable and finite.
    EXPECT_GT(d, 30.0);
    EXPECT_LT(d, 400.0);

    // At equilibrium the forces balance: k*q1*q2/d^2 == s*(d - L).
    double push = layout.params().charge / (d * d);
    double pull = layout.params().spring * (d - 40.0);
    EXPECT_NEAR(push, pull, 0.05 * std::max(push, pull) + 1e-6);
}

TEST(ForceLayout, DisconnectedNodesRepel)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {0.5, 0});
    vl::ForceLayout layout(g);
    double before = vl::distance(g.node(a).position, g.node(b).position);
    for (int i = 0; i < 50; ++i)
        layout.step().value();
    double after = vl::distance(g.node(a).position, g.node(b).position);
    EXPECT_GT(after, before);
}

TEST(ForceLayout, StabilizeConverges)
{
    viva::support::Rng rng(5);
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    for (int i = 0; i < 30; ++i)
        ids.push_back(g.addNode(
            i, {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}));
    for (int i = 1; i < 30; ++i)
        g.addEdge(ids[i], ids[rng.index(i)]);  // random tree

    vl::ForceLayout layout(g);
    std::size_t iters = layout.stabilize(2000, 1e-4).value();
    EXPECT_LT(iters, 2000u);
    EXPECT_LT(layout.kineticEnergy() / 30.0, 1e-4);
}

TEST(ForceLayout, PinnedNodeStaysPut)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {5, 5});
    auto b = g.addNode(2, {6, 5});
    g.addEdge(a, b);
    g.setPinned(a, true);
    vl::ForceLayout layout(g);
    layout.stabilize(500).value();
    EXPECT_DOUBLE_EQ(g.node(a).position.x, 5.0);
    EXPECT_DOUBLE_EQ(g.node(a).position.y, 5.0);
    EXPECT_NE(g.node(b).position.x, 6.0);  // b moved away
}

TEST(ForceLayout, DragPullsNeighborsAlong)
{
    // A 4-node chain; drag one end far away: its neighbour must follow.
    vl::LayoutGraph g;
    std::vector<vl::NodeId> n;
    for (int i = 0; i < 4; ++i)
        n.push_back(g.addNode(i, {double(i) * 40.0, 0}));
    for (int i = 0; i < 3; ++i)
        g.addEdge(n[i], n[i + 1]);

    vl::ForceLayout layout(g);
    layout.stabilize(500).value();
    double before = g.node(n[1]).position.x;

    layout.dragNode(n[0], {-500.0, 0.0});
    layout.stabilize(800).value();
    layout.releaseNode(n[0]);
    EXPECT_DOUBLE_EQ(g.node(n[0]).position.x, -500.0);  // held while pinned
    EXPECT_LT(g.node(n[1]).position.x, before - 50.0);  // followed left
}

TEST(ForceLayout, ChargeSliderSpreadsLayout)
{
    auto area_with_charge = [](double charge) {
        viva::support::Rng rng(9);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 20; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}));
        for (int i = 1; i < 20; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 2]);  // binary tree
        vl::ForceLayout layout(g);
        layout.params().charge = charge;
        layout.stabilize(1500, 1e-6).value();
        return vl::boundingBoxArea(g);
    };
    // Higher charge, more disperse nodes (Section 4.2).
    EXPECT_GT(area_with_charge(8000.0), area_with_charge(500.0) * 1.5);
}

TEST(ForceLayout, SpringSliderTightensEdges)
{
    auto mean_edge = [](double spring) {
        viva::support::Rng rng(9);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 20; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}));
        for (int i = 1; i < 20; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 2]);
        vl::ForceLayout layout(g);
        layout.params().spring = spring;
        layout.stabilize(1500, 1e-6).value();
        return vl::edgeLengths(g).mean();
    };
    EXPECT_LT(mean_edge(0.5), mean_edge(0.02));
}

TEST(ForceLayout, BarnesHutMatchesExactStepClosely)
{
    auto run = [](bool use_bh) {
        viva::support::Rng rng(13);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        for (int i = 0; i < 40; ++i)
            ids.push_back(g.addNode(
                i, {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)}));
        for (int i = 1; i < 40; ++i)
            g.addEdge(ids[i], ids[(i - 1) / 3]);
        vl::ForceLayout layout(g);
        layout.params().useBarnesHut = use_bh;
        layout.params().theta = 0.5;
        layout.stabilize(400, 1e-8).value();
        return vl::snapshotPositions(g);
    };
    auto exact = run(false);
    auto approx = run(true);
    // The two layouts need not be identical, but their shape statistics
    // must agree: compare bounding metrics via displacement spread.
    viva::support::RunningStats d = vl::displacement(exact, approx);
    EXPECT_EQ(d.count(), 40u);
    // Converged equilibria are close relative to the layout extent.
    EXPECT_LT(d.mean(), 60.0);
}

/**
 * The layout's bits are pinned: a seeded tree-plus-chords graph of
 * 3000 nodes after 20 Barnes-Hut steps, at 1 and 4 threads, digests to
 * a recorded constant. A faster field or step must keep it.
 */
TEST(ForceLayout, StepBitsArePinned)
{
    for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::size_t n = 3000;
        viva::support::Rng rng(83);
        vl::LayoutGraph g;
        std::vector<vl::NodeId> ids;
        const double extent = 50.0 * std::sqrt(double(n));
        for (std::size_t i = 0; i < n; ++i)
            ids.push_back(g.addNode(i,
                                    {rng.uniform(0.0, extent),
                                     rng.uniform(0.0, extent)},
                                    rng.uniform(0.5, 4.0)));
        for (std::size_t i = 1; i < n; ++i)
            g.addEdge(ids[i], ids[rng.index(i)]);
        for (std::size_t i = 0; i < n / 4; ++i) {
            std::size_t a = rng.index(n);
            std::size_t b = rng.index(n);
            if (a != b)
                g.addEdge(ids[a], ids[b]);
        }
        vl::ForceLayout layout(g);
        layout.params().threads = threads;
        for (int s = 0; s < 20; ++s)
            layout.step().value();
        // FNV-1a over the bits of every position and velocity.
        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (const vl::Node &node : g.rawNodes())
            for (double v : {node.position.x, node.position.y,
                             node.velocity.x, node.velocity.y}) {
                std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
                for (int b = 0; b < 8; ++b) {
                    digest ^= (bits >> (8 * b)) & 0xff;
                    digest *= 0x100000001b3ull;
                }
            }
        EXPECT_EQ(digest, 0xd9e3272a6270b992ull) << std::hex << digest;
    }
}

TEST(ForceLayout, DynamicInsertKeepsOthersNear)
{
    viva::support::Rng rng(17);
    vl::LayoutGraph g;
    std::vector<vl::NodeId> ids;
    for (int i = 0; i < 25; ++i)
        ids.push_back(g.addNode(
            i, {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}));
    for (int i = 1; i < 25; ++i)
        g.addEdge(ids[i], ids[(i - 1) / 2]);
    vl::ForceLayout layout(g);
    layout.stabilize(2000, 1e-6).value();
    auto before = vl::snapshotPositions(g);
    double extent = std::sqrt(vl::boundingBoxArea(g));

    // Insert a node connected to node 0, near it.
    auto fresh = g.addNode(1000, g.node(ids[0]).position + vl::Vec2{5, 5});
    g.addEdge(fresh, ids[0]);
    layout.stabilize(2000, 1e-6).value();

    auto after = vl::snapshotPositions(g);
    viva::support::RunningStats d = vl::displacement(before, after);
    // The smooth-evolution property: mean displacement is a small
    // fraction of the layout extent.
    EXPECT_LT(d.mean(), extent * 0.35);
}

// --- metrics ----------------------------------------------------------------------

TEST(LayoutMetrics, SnapshotAndDisplacement)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    g.addNode(2, {3, 4});
    auto before = vl::snapshotPositions(g);
    g.setPosition(a, {1, 0});
    auto after = vl::snapshotPositions(g);
    auto d = vl::displacement(before, after);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.5);
}

TEST(LayoutMetrics, DisplacementIgnoresUnsharedKeys)
{
    vl::Snapshot a{{1, {0, 0}}, {2, {1, 1}}};
    vl::Snapshot b{{2, {1, 1}}, {3, {9, 9}}};
    auto d = vl::displacement(a, b);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(LayoutMetrics, EdgeCrossingsKnownConfigurations)
{
    vl::LayoutGraph g;
    auto a = g.addNode(1, {0, 0});
    auto b = g.addNode(2, {10, 10});
    auto c = g.addNode(3, {0, 10});
    auto d = g.addNode(4, {10, 0});
    g.addEdge(a, b);  // diagonal
    g.addEdge(c, d);  // crossing diagonal
    EXPECT_EQ(vl::edgeCrossings(g), 1u);

    vl::LayoutGraph g2;
    auto a2 = g2.addNode(1, {0, 0});
    auto b2 = g2.addNode(2, {10, 0});
    auto c2 = g2.addNode(3, {5, 10});
    g2.addEdge(a2, b2);
    g2.addEdge(b2, c2);
    g2.addEdge(c2, a2);  // triangle: shared endpoints never cross
    EXPECT_EQ(vl::edgeCrossings(g2), 0u);
}

TEST(LayoutMetrics, BoundingBoxArea)
{
    vl::LayoutGraph g;
    g.addNode(1, {0, 0});
    g.addNode(2, {4, 5});
    EXPECT_DOUBLE_EQ(vl::boundingBoxArea(g), 20.0);
}
