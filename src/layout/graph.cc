/**
 * @file
 * Implementation of the layout graph.
 */

#include "layout/graph.hh"

#include "support/logging.hh"

namespace viva::layout
{

NodeId
LayoutGraph::addNode(std::uint64_t key, Vec2 position, double charge)
{
    VIVA_ASSERT(charge > 0, "node charge must be positive, got ", charge);
    Node n;
    n.id = NodeId(static_cast<std::uint32_t>(nodes.size()));
    n.key = key;
    n.position = position;
    n.charge = charge;
    nodes.push_back(n);
    return n.id;
}

void
LayoutGraph::addEdge(NodeId a, NodeId b, double strength)
{
    VIVA_ASSERT(a.index() < nodes.size() && b.index() < nodes.size(),
                "edge endpoints must be nodes");
    VIVA_ASSERT(a != b, "self-loop on node ", a);
    edges.push_back({a, b, strength});
}

const Node &
LayoutGraph::node(NodeId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad node ", id);
    return nodes[id.index()];
}

void
LayoutGraph::setPosition(NodeId id, Vec2 position)
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad node ", id);
    nodes[id.index()].position = position;
    nodes[id.index()].velocity = {0.0, 0.0};
}

void
LayoutGraph::setPinned(NodeId id, bool pinned)
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad node ", id);
    nodes[id.index()].pinned = pinned;
    if (pinned)
        nodes[id.index()].velocity = {0.0, 0.0};
}

Vec2
LayoutGraph::centroid() const
{
    if (nodes.empty())
        return {0.0, 0.0};
    Vec2 sum;
    for (const Node &n : nodes)
        sum += n.position;
    return sum / double(nodes.size());
}

support::AuditLog
LayoutGraph::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        if (n.id != NodeId(static_cast<std::uint32_t>(i)))
            auditFail(log, "node in slot ", i, " carries id ", n.id);
        if (n.charge <= 0.0)
            auditFail(log, "node ", i, " has non-positive charge ",
                      n.charge);
    }

    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Edge &e = edges[i];
        if (e.a == e.b)
            auditFail(log, "edge ", i, " is a self-loop on node ", e.a);
        for (NodeId end : {e.a, e.b})
            if (end.index() >= nodes.size())
                auditFail(log, "edge ", i, " references node ", end,
                          " out of range");
    }
    return log;
}

support::AuditLog
auditFinitePositions(const LayoutGraph &graph)
{
    support::AuditLog log;
    for (const Node &n : graph.rawNodes()) {
        if (!std::isfinite(n.position.x) || !std::isfinite(n.position.y))
            support::auditFail(log, "node ", n.id, " (key ", n.key,
                               ") has a non-finite position");
        if (!std::isfinite(n.velocity.x) || !std::isfinite(n.velocity.y))
            support::auditFail(log, "node ", n.id, " (key ", n.key,
                               ") has a non-finite velocity");
    }
    return log;
}

} // namespace viva::layout
