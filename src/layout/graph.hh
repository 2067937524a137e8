/**
 * @file
 * The layout graph: the nodes and edges whose positions the
 * force-directed algorithm evolves, plus pinning (the analyst dragging a
 * node) and per-node charge (an aggregated node carries the summed
 * charge of everything it groups, Section 4.2). The graph is dense and
 * append-only: the session rebuilds it from the hierarchy cut whenever
 * the cut changes, node i standing for the cut projection's node i.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "layout/vec2.hh"
#include "support/invariant.hh"
#include "support/strong_id.hh"

namespace viva::layout
{

/** Tag type of the layout-node id space (one space per LayoutGraph). */
struct NodeTag
{
};

using NodeId = support::StrongId<NodeTag, std::uint32_t>;
inline constexpr NodeId kNoNode{0xFFFFFFFFu};

/** One layout node. */
struct Node
{
    NodeId id = kNoNode;
    std::uint64_t key = 0;   ///< caller's identifier (e.g. ContainerId)
    Vec2 position;
    Vec2 velocity;
    double charge = 1.0;     ///< Coulomb repulsion strength
    bool pinned = false;     ///< dragged / fixed by the analyst
};

/** One spring between two nodes. */
struct Edge
{
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    double strength = 1.0;   ///< Hooke stiffness multiplier
};

/**
 * Dense graph: node ids index the node vector (id == slot), so every
 * slot holds a node. Ids stay valid until the owner replaces the graph;
 * the session does so on every cut change, so external references must
 * go through keys, not ids, across a sync. The graph keeps no key
 * index: its owner knows which slot holds which key (the session reads
 * its projection's slot map).
 */
class LayoutGraph
{
  public:
    /** Add a node at a position. @return its id */
    NodeId addNode(std::uint64_t key, Vec2 position, double charge = 1.0);

    /** Add a spring between two distinct nodes. */
    void addEdge(NodeId a, NodeId b, double strength = 1.0);

    /** Access a node. */
    const Node &node(NodeId id) const;

    /** Mutate a node's position (velocity reset). */
    void setPosition(NodeId id, Vec2 position);

    /** Pin (true) or release (false) a node. */
    void setPinned(NodeId id, bool pinned);

    /** Node count. */
    std::size_t nodeCount() const { return nodes.size(); }

    /** Edge count. */
    std::size_t edgeCount() const { return edges.size(); }

    /** Every node, in id order. */
    const std::vector<Node> &rawNodes() const { return nodes; }
    /** Every edge, in insertion order. */
    const std::vector<Edge> &rawEdges() const { return edges; }

    /** Centroid of the nodes (origin when empty). */
    Vec2 centroid() const;

    // Internal mutable access for the force stepper.
    std::vector<Node> &mutableNodes() { return nodes; }

    /**
     * Deep structural audit: node ids match their slots, every edge
     * joins two distinct in-range nodes, and no node carries a
     * non-positive charge.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

  private:
    std::vector<Node> nodes;
    std::vector<Edge> edges;
};

/**
 * Audit that every node's position and velocity are finite -- the
 * first thing a divergent or mis-parallelised force step destroys.
 * @return the violated invariants; empty when well-formed
 */
support::AuditLog auditFinitePositions(const LayoutGraph &graph);

} // namespace viva::layout
