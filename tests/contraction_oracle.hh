/**
 * @file
 * The cut projection computed the way agg::project did before it kept
 * a slot map: the cut's own queries for the nodes and leaf counts, and
 * the relation contraction through a hash map of endpoint pairs. The
 * oracle that project(), its slot map and its edge chains are tested
 * against.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agg/aggregate.hh"
#include "agg/hierarchy_cut.hh"
#include "trace/trace.hh"

namespace viva::agg::testing
{

/**
 * Contract the trace's relations onto a cut given each endpoint's
 * representative: self-loops vanish, parallel edges merge into the
 * first occurrence's slot with a multiplicity. `first` receives each
 * edge's first relation index when given.
 */
template <class Representative>
std::vector<ViewEdge>
contractRelationsHashed(const trace::Trace &trace, Representative &&rep,
                        std::vector<std::uint32_t> *first = nullptr)
{
    std::vector<ViewEdge> edges;
    std::unordered_map<std::uint64_t, std::size_t> index;
    const std::vector<trace::Trace::Relation> &rels = trace.relations();
    for (std::size_t ri = 0; ri < rels.size(); ++ri) {
        trace::ContainerId a = rep(rels[ri].a);
        trace::ContainerId b = rep(rels[ri].b);
        if (a == b)
            continue;  // contracted inside one aggregated node
        trace::ContainerId lo = std::min(a, b);
        trace::ContainerId hi = std::max(a, b);
        std::uint64_t key = (std::uint64_t(lo.value()) << 32) | hi.value();
        auto [it, fresh] = index.try_emplace(key, edges.size());
        if (fresh) {
            edges.push_back({lo, hi, 1});
            if (first != nullptr)
                first->push_back(std::uint32_t(ri));
        } else {
            ++edges[it->second].multiplicity;
        }
    }
    return edges;
}

/**
 * project(trace, cut) the slow way: the cut's visible nodes, one
 * subtree walk per node for its leaves, the slot map from the node
 * list, every container's representative from the cut's own query,
 * and the hashed contraction over those representatives.
 */
inline CutProjection
projectHashed(const trace::Trace &trace, const HierarchyCut &cut)
{
    CutProjection p;
    p.nodes = cut.visibleNodes();
    p.slotOf.assign(trace.containerCount(), kHidden);
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        p.leafCounts.push_back(trace.leavesUnder(p.nodes[i]).size());
        p.slotOf[p.nodes[i].index()] = std::uint32_t(i);
    }
    for (trace::ContainerId id{0}; id.index() < trace.containerCount();
         ++id)
        p.repOf.push_back(cut.representative(id));
    p.edges = contractRelationsHashed(
        trace, [&cut](trace::ContainerId id) {
            return cut.representative(id);
        },
        &p.firstRelation);
    return p;
}

} // namespace viva::agg::testing
