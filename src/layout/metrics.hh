/**
 * @file
 * Layout quality and stability metrics. Stability is how the paper
 * argues the dynamic layout keeps the analyst oriented across
 * aggregation changes ("the layout is smooth when aggregating,
 * preventing the analyst to get confused when changing scale"): nodes
 * shared between two cuts should barely move.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "layout/graph.hh"
#include "support/stats.hh"

namespace viva::layout
{

/** A position snapshot keyed by the caller's node keys. */
using Snapshot = std::unordered_map<std::uint64_t, Vec2>;

/** Capture the nodes' positions keyed by node key. */
Snapshot snapshotPositions(const LayoutGraph &graph);

/**
 * Displacement statistics between two snapshots over their shared keys
 * (nodes present in both layouts). Empty stats when nothing is shared.
 */
support::RunningStats displacement(const Snapshot &before,
                                   const Snapshot &after);

/** Edge length statistics of the current layout. */
support::RunningStats edgeLengths(const LayoutGraph &graph);

/** Area of the bounding box of the nodes. */
double boundingBoxArea(const LayoutGraph &graph);

/**
 * Number of crossing edge pairs (O(E^2); intended for small views and
 * tests, not for 10k-edge graphs).
 */
std::size_t edgeCrossings(const LayoutGraph &graph);

/**
 * Mean relative error of Barnes-Hut repulsion versus the exact sum at
 * the node positions, for a given theta (accuracy metric used by
 * the property tests and the scalability bench).
 */
double barnesHutError(const LayoutGraph &graph, double theta);

} // namespace viva::layout

