/**
 * @file
 * The analyst's spatial scale: a *cut* through the container hierarchy.
 *
 * Every container is either expanded (its children are inspected
 * individually) or collapsed (the whole subtree is one aggregated node).
 * The visible nodes of the representation are the collapsed containers
 * plus every leaf not hidden under one -- exactly the interactive
 * aggregate/disaggregate operations of Section 3.2.2 and Fig. 3/8.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hh"
#include "support/invariant.hh"
#include "trace/trace.hh"

namespace viva::agg
{

/**
 * Tracks which subtrees are collapsed. Starts fully disaggregated
 * (every leaf visible). Cheap to copy; the trace must outlive it.
 */
class HierarchyCut
{
  public:
    explicit HierarchyCut(const trace::Trace &trace);

    /** The trace this cut refers to. */
    const trace::Trace &trace() const { return *tr; }

    // --- operations -------------------------------------------------------

    /**
     * Collapse a subtree into a single aggregated node (a no-op on
     * leaves, which are already single nodes).
     */
    void aggregate(trace::ContainerId group);

    /**
     * Expand a collapsed node one level: each internal child becomes a
     * collapsed node, each leaf child becomes visible. Expanding an
     * already-expanded node is a no-op.
     */
    void disaggregate(trace::ContainerId group);

    /**
     * Set the whole-tree scale: every internal container at `depth`
     * becomes collapsed, everything shallower expanded. Leaves above
     * that depth stay visible. aggregateToDepth(1) on a platform trace
     * is the "Grid" view of Fig. 8; deeper values give site, cluster,
     * and host (reset()) views.
     */
    void aggregateToDepth(std::uint16_t depth);

    /**
     * Focus the view on some containers: their subtrees stay fully
     * disaggregated and everything along the paths from the root stays
     * expanded, while every other sibling subtree collapses into one
     * aggregated node. This is the paper's "group similar entities to
     * focus on outliers" gesture: full detail where the analyst looks,
     * one summary node per everything else.
     */
    void focus(const std::vector<trace::ContainerId> &targets);

    /** Fully disaggregate (every leaf visible). */
    void reset();

    // --- queries ------------------------------------------------------------

    /** True when the container is collapsed (an aggregated node). */
    bool isCollapsed(trace::ContainerId id) const;

    /** True when the container is a visible node of the representation. */
    bool isVisible(trace::ContainerId id) const;

    /**
     * The visible node covering a container: its topmost collapsed
     * ancestor, or the container itself when nothing above it is
     * collapsed.
     */
    trace::ContainerId representative(trace::ContainerId id) const;

    /** All visible nodes, in preorder (stable across equal cuts). */
    std::vector<trace::ContainerId> visibleNodes() const;

    /**
     * Number of visible nodes (what layout scalability depends on):
     * the same walk as visibleNodes, without building the list.
     */
    std::size_t visibleCount() const;

    /**
     * The raw per-container collapsed flags, one byte per container in
     * id order -- the cut's complete serializable state (checkpoints).
     */
    const std::vector<std::uint8_t> &collapsedFlags() const
    {
        return collapsed;
    }

    /**
     * Replace the flags wholesale (checkpoint restore). Validates
     * before mutating: the vector must match the container count, hold
     * only 0/1, mark no leaf collapsed, and describe a well-formed cut
     * (antichain covering every leaf once). On error the cut is
     * unchanged.
     */
    support::Expected<void>
    setCollapsedFlags(const std::vector<std::uint8_t> &flags);

    /**
     * Deep structural audit: the flag vector matches the trace, no leaf
     * is marked collapsed, and the visible nodes form an antichain that
     * covers every leaf exactly once (the defining property of a cut).
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: force one container's collapsed
     * flag, bypassing every operation's guard. Never call outside
     * tests.
     */
    void debugSetCollapsed(trace::ContainerId id, bool value);

  private:
    /** Walk the cut in preorder: visit(id) for every visible node. */
    template <class Visit>
    void forEachVisible(Visit &&visit) const;

    const trace::Trace *tr;
    std::vector<std::uint8_t> collapsed;  ///< per container
};

} // namespace viva::agg

