/**
 * @file
 * Implementation of the layout metrics.
 */

#include "layout/metrics.hh"

#include <algorithm>

#include "layout/quadtree.hh"
#include "support/logging.hh"

namespace viva::layout
{

Snapshot
snapshotPositions(const LayoutGraph &graph)
{
    Snapshot snap;
    for (const Node &n : graph.rawNodes())
        snap.emplace(n.key, n.position);
    return snap;
}

support::RunningStats
displacement(const Snapshot &before, const Snapshot &after)
{
    // The Welford fold is order-sensitive in floating point, so the
    // shared keys are sorted first; the collection pass itself is
    // order-independent.
    std::vector<std::uint64_t> keys;
    keys.reserve(before.size());
    for (const auto &entry : before)  // viva-analyze: allow(unordered-iter): the keys are sorted right below
        if (after.count(entry.first))
            keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());

    support::RunningStats stats;
    for (std::uint64_t key : keys)
        stats.add(distance(before.at(key), after.at(key)));
    return stats;
}

support::RunningStats
edgeLengths(const LayoutGraph &graph)
{
    support::RunningStats stats;
    const auto &nodes = graph.rawNodes();
    for (const Edge &e : graph.rawEdges())
        stats.add(distance(nodes[e.a.index()].position,
                           nodes[e.b.index()].position));
    return stats;
}

double
boundingBoxArea(const LayoutGraph &graph)
{
    bool any = false;
    Vec2 lo{0, 0}, hi{0, 0};
    for (const Node &n : graph.rawNodes()) {
        if (!any) {
            lo = hi = n.position;
            any = true;
            continue;
        }
        lo.x = std::min(lo.x, n.position.x);
        lo.y = std::min(lo.y, n.position.y);
        hi.x = std::max(hi.x, n.position.x);
        hi.y = std::max(hi.y, n.position.y);
    }
    return any ? (hi.x - lo.x) * (hi.y - lo.y) : 0.0;
}

namespace
{

/** Orientation of the triplet (a, b, c). */
int
orientation(Vec2 a, Vec2 b, Vec2 c)
{
    double v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    if (v > 1e-12)
        return 1;
    if (v < -1e-12)
        return -1;
    return 0;
}

/** Proper segment intersection (shared endpoints do not count). */
bool
segmentsCross(Vec2 p1, Vec2 p2, Vec2 q1, Vec2 q2)
{
    int o1 = orientation(p1, p2, q1);
    int o2 = orientation(p1, p2, q2);
    int o3 = orientation(q1, q2, p1);
    int o4 = orientation(q1, q2, p2);
    return o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 &&
           o4 != 0;
}

} // namespace

std::size_t
edgeCrossings(const LayoutGraph &graph)
{
    const auto &nodes = graph.rawNodes();
    const auto &edges = graph.rawEdges();
    std::size_t crossings = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        for (std::size_t j = i + 1; j < edges.size(); ++j) {
            const Edge &e1 = edges[i];
            const Edge &e2 = edges[j];
            if (e1.a == e2.a || e1.a == e2.b || e1.b == e2.a ||
                e1.b == e2.b)
                continue;  // edges sharing a node never "cross"
            if (segmentsCross(nodes[e1.a.index()].position, nodes[e1.b.index()].position,
                              nodes[e2.a.index()].position, nodes[e2.b.index()].position))
                ++crossings;
        }
    }
    return crossings;
}

double
barnesHutError(const LayoutGraph &graph, double theta)
{
    const auto &nodes = graph.rawNodes();
    if (graph.nodeCount() < 2)
        return 0.0;

    Vec2 lo{1e300, 1e300}, hi{-1e300, -1e300};
    for (const Node &n : nodes) {
        lo.x = std::min(lo.x, n.position.x);
        lo.y = std::min(lo.y, n.position.y);
        hi.x = std::max(hi.x, n.position.x);
        hi.y = std::max(hi.y, n.position.y);
    }
    double pad = std::max({hi.x - lo.x, hi.y - lo.y, 1.0}) * 0.05;
    // The field the layout steps with: one build, one walk per group.
    std::vector<QuadTree::Body> bodies;
    for (const Node &n : nodes)
        bodies.push_back({n.position, n.charge});
    QuadTree tree;
    tree.build({lo.x - pad, lo.y - pad}, {hi.x + pad, hi.y + pad},
               bodies);
    std::vector<Vec2> field(nodes.size());
    for (std::size_t grp = 0; grp < tree.groupCount(); ++grp)
        tree.groupField(grp, theta, field);

    support::RunningStats rel;
    for (const Node &a : nodes) {
        Vec2 approx = field[a.id.index()];
        Vec2 exact;
        for (const Node &b : nodes) {
            if (b.id == a.id)
                continue;
            Vec2 d = a.position - b.position;
            double dist = d.norm();
            if (dist < 1e-9)
                continue;
            exact += d * (b.charge / (dist * dist * dist));
        }
        double norm = exact.norm();
        if (norm > 1e-12)
            rel.add((approx - exact).norm() / norm);
    }
    return rel.mean();
}

} // namespace viva::layout
