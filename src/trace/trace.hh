/**
 * @file
 * The Trace: a container hierarchy, a metric registry, one
 * piecewise-constant Variable per (container, metric), an optional state
 * log, and the relations (edges) that connect monitored entities in the
 * topology-based representation (Section 3.1).
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/interval.hh"
#include "support/invariant.hh"
#include "support/logging.hh"
#include "trace/container.hh"
#include "trace/metric.hh"
#include "trace/variable.hh"

namespace viva::trace
{

/**
 * Everything observed about one execution: what was monitored (the
 * container hierarchy), how entities relate (relations/edges), what was
 * measured (metrics) and the measurements themselves (variables).
 */
class Trace
{
  public:
    /** An undirected edge between two monitored entities. */
    struct Relation
    {
        ContainerId a;
        ContainerId b;
        bool operator==(const Relation &other) const = default;
    };

    /** A process state over [begin, end), e.g. "compute" or "wait". */
    struct StateRecord
    {
        ContainerId container;
        double begin;
        double end;
        std::string state;
    };

    /** Creates the implicit root container (id 0). */
    Trace();

    /**
     * A plain copy: a frozen trace's store holds its variables by
     * value and its closure only indices, so a copy of a frozen trace
     * is frozen and shares nothing with the original.
     */
    Trace(const Trace &) = default;
    Trace &operator=(const Trace &) = default;
    Trace(Trace &&) = default;
    Trace &operator=(Trace &&) = default;
    ~Trace() = default;

    // --- containers --------------------------------------------------

    /** The root container id (always 0). */
    ContainerId root() const { return ContainerId{0}; }

    /**
     * Create a container under a parent.
     * @param name unique among the parent's children (enforced)
     * @param kind semantic kind
     * @param parent the enclosing container
     * @return the new container's id
     */
    ContainerId addContainer(const std::string &name, ContainerKind kind,
                             ContainerId parent);

    /** Access a container by id (panics on a bad id). */
    const Container &container(ContainerId id) const;

    /** Total number of containers, root included. */
    std::size_t containerCount() const { return nodes.size(); }

    /** The direct child of parent with this name, or kNoContainer. */
    ContainerId findChild(ContainerId parent, const std::string &name) const;

    /**
     * Look up a container by slash-separated path from the root, e.g.
     * "grid5000/lyon/sagittaire/sagittaire-3". An empty path is the root.
     * @return kNoContainer when any component is missing
     */
    ContainerId findByPath(const std::string &path) const;

    /**
     * Find the unique container with this simple name anywhere in the
     * tree; kNoContainer when absent or ambiguous.
     */
    ContainerId findByName(const std::string &name) const;

    /** Slash-separated path of a container from (but excluding) root. */
    std::string fullName(ContainerId id) const;

    /** All containers of one kind, in id order. */
    std::vector<ContainerId> containersOfKind(ContainerKind kind) const;

    /** All leaf containers in the subtree rooted at id (id included if leaf). */
    std::vector<ContainerId> leavesUnder(ContainerId id) const;

    /** All containers in the subtree rooted at id, id included, preorder. */
    std::vector<ContainerId> subtree(ContainerId id) const;

    /** True when anc is id or one of its ancestors. */
    bool isAncestorOrSelf(ContainerId anc, ContainerId id) const;

    /**
     * The ancestor of id at the given depth (root is depth 0). If the
     * container is shallower than depth, returns id itself.
     */
    ContainerId ancestorAtDepth(ContainerId id, std::uint16_t depth) const;

    // --- metrics ------------------------------------------------------

    /**
     * Register a metric, or return the existing id when a metric of this
     * name already exists (the descriptor is not modified then).
     */
    MetricId addMetric(const std::string &name, const std::string &unit,
                       MetricNature nature, MetricId capacity_of = kNoMetric);

    /** Metric id by name, or kNoMetric. */
    MetricId findMetric(const std::string &name) const;

    /** Access a metric by id (panics on a bad id). */
    const Metric &metric(MetricId id) const;

    /** Number of registered metrics. */
    std::size_t metricCount() const { return metricTable.size(); }

    // --- variables ----------------------------------------------------

    /** The variable for (container, metric), created on first access. */
    Variable &variable(ContainerId c, MetricId m);

    /**
     * The variable for (container, metric), or nullptr if never set.
     * On a frozen trace this reads the closure slabs (an empty
     * variable, one created but never given a point, is found among
     * `emptyKeys`).
     */
    const Variable *findVariable(ContainerId c, MetricId m) const;

    /** True when at least one point was recorded for (container, metric). */
    bool hasVariable(ContainerId c, MetricId m) const;

    /** Number of (container, metric) variables materialized. */
    std::size_t variableCount() const { return store.size() + vars.size(); }

    /** Total number of change points across all variables. */
    std::size_t pointCount() const;

    // --- relations ------------------------------------------------------

    /** Record an undirected relation (deduplicated; self-loops dropped). */
    void addRelation(ContainerId a, ContainerId b);

    /** All relations, in insertion order. */
    const std::vector<Relation> &relations() const { return rels; }

    /** Containers directly related to id. */
    std::vector<ContainerId> neighbors(ContainerId id) const;

    // --- states ---------------------------------------------------------

    /** Record a state interval for a container. */
    void addState(ContainerId c, double begin, double end,
                  const std::string &state);

    /** The full state log, in insertion order. */
    const std::vector<StateRecord> &states() const { return stateLog; }

    // --- global properties ------------------------------------------------

    /** The observation period T: hull of all variable points and states. */
    support::Interval span() const;

    // --- freezing ---------------------------------------------------------

    /**
     * Make the trace immutable and queryable: build the hierarchy
     * closure (the preorder subtree of every container, its leaf
     * count and the relation incidence index), then move
     * every variable out of the hash map into `store` in fold order,
     * freezing each on the way (sort, one allocation for its points
     * and slice index; see Variable::freeze), so the carrier list of
     * every (container, metric) is one run of the store. Idempotent.
     * Every mutator aborts on a frozen trace; carriers() and
     * cachedSubtree() abort on an unfrozen one. Readers,
     * TraceBuilder::take() and Session freeze; builders such as
     * sim::Tracer and mirrorPlatform do not.
     */
    void freeze();

    /** True once freeze() has run. */
    bool frozen() const { return isFrozen; }

    /**
     * The cached preorder subtree of a container (id included).
     * Requires a frozen trace; identical to subtree(id) without the
     * allocation.
     */
    std::span<const ContainerId> cachedSubtree(ContainerId id) const;

    /**
     * Leaves in the subtree of a container (1 for a leaf):
     * leavesUnder(id).size() without the walk. Requires a frozen trace.
     */
    std::size_t leafCount(ContainerId id) const;

    /**
     * The relations incident to a container, as indices into
     * relations(), in relation order; a relation joining a container to
     * itself is listed once. Requires a frozen trace.
     */
    std::span<const std::uint32_t> incidentRelations(ContainerId id) const;

    /**
     * incidentRelations of every container of the subtree of id,
     * concatenated in preorder (cachedSubtree order): one contiguous
     * run of the incidence index. A relation with both endpoints in the
     * subtree is listed twice. Requires a frozen trace.
     */
    std::span<const std::uint32_t> subtreeIncidence(ContainerId id) const;

    /**
     * The carrier list of (c, m): the non-empty variables carrying
     * metric m inside the subtree of c, in preorder -- the sequence
     * the Eq.-1 fold reduces, contiguous in the store. Every member
     * counts, not just leaves: traces may attach measurements at any
     * level. Requires a frozen trace. An out-of-range metric (e.g. a
     * failed findMetric) yields an empty span, matching findVariable's
     * nullptr.
     */
    std::span<const Variable> carriers(ContainerId c, MetricId m) const;

    // --- auditing ---------------------------------------------------------

    /**
     * Deep structural audit: the hierarchy is a tree rooted at 0 with
     * consistent parent/child/depth records and unique sibling names,
     * metrics and their name index agree, every variable belongs to a
     * real (container, metric) pair with time-sorted points, the
     * relations are deduplicated with valid endpoints, and, once
     * frozen, every slice index and the closure equal a fresh rebuild.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: mutable access to a container so
     * a test can corrupt its linkage. Never call outside tests.
     */
    Container &debugMutableContainer(ContainerId id);

  private:
    /**
     * (c, m)'s entry in `carrierOff`: the store index of the first
     * carrier at or after c's preorder slot; the next entry is the one
     * after the slot. Requires a frozen trace and valid ids.
     */
    const std::uint32_t *carrierSlot(ContainerId c, MetricId m) const;

    /**
     * Visit every variable, frozen or not (the store and the hash map;
     * one of them is always empty), in no particular order.
     */
    template <class Visit>
    void forEachVariable(Visit &&visit) const;

    static std::uint64_t
    varKey(ContainerId c, MetricId m)
    {
        return (std::uint64_t(c.value()) << 16) | m.value();
    }

    static std::uint64_t
    relKey(ContainerId a, ContainerId b)
    {
        if (a > b)
            std::swap(a, b);
        return (std::uint64_t(a.value()) << 32) | b.value();
    }

    /**
     * The hierarchy-closure cache. `preorder` is the root-first DFS
     * order of the whole tree; a container's subtree is the contiguous
     * slab preorder[preIndex[c] .. preIndex[c] + subtreeSize[c]).
     * Per metric m, `carrierOff[m * (preorder.size() + 1) + s]` is the
     * store index of the first carrier at or after preorder slot s, so
     * the carrier list of a subtree is the store run between its
     * slab's two bounds, and a slot whose two bounds differ carries
     * its own variable there. Indices only: a copy is a plain copy.
     * Built by freeze(), after which nothing can change what it
     * records.
     *
     * `leafCount` is per container id. The relation incidence index is
     * a CSR over preorder slots: slot s's relations (indices into
     * `rels`, ascending) are incidence[incidenceOff[s] ..
     * incidenceOff[s + 1]), so a subtree's rows are one run of it.
     */
    struct Closure
    {
        std::vector<ContainerId> preorder;
        std::vector<std::uint32_t> preIndex;
        std::vector<std::uint32_t> subtreeSize;
        std::vector<std::uint32_t> carrierOff;
        std::vector<std::uint32_t> leafCount;
        std::vector<std::uint32_t> incidenceOff;
        std::vector<std::uint32_t> incidence;
    };

    std::vector<Container> nodes;
    std::vector<Metric> metricTable;
    std::unordered_map<std::string, MetricId> metricByName;
    /** The variables while the trace is built; empty once frozen. */
    std::unordered_map<std::uint64_t, Variable> vars;
    /**
     * The frozen variables in fold order: metric after metric, the
     * non-empty ones in preorder (each carrier once), then the empty
     * ones in `emptyKeys` order. Empty until freeze().
     */
    std::vector<Variable> store;
    /** Sorted keys of the frozen variables that hold no point. */
    std::vector<std::uint64_t> emptyKeys;
    std::vector<Relation> rels;
    std::unordered_set<std::uint64_t> relSet;
    std::vector<StateRecord> stateLog;
    Closure closure;
    bool isFrozen = false;
};

inline std::span<const ContainerId>
Trace::cachedSubtree(ContainerId id) const
{
    VIVA_ASSERT(isFrozen, "cachedSubtree() on an unfrozen trace");
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return {closure.preorder.data() + closure.preIndex[id.index()],
            closure.subtreeSize[id.index()]};
}

inline std::size_t
Trace::leafCount(ContainerId id) const
{
    VIVA_ASSERT(isFrozen, "leafCount() on an unfrozen trace");
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return closure.leafCount[id.index()];
}

inline std::span<const std::uint32_t>
Trace::incidentRelations(ContainerId id) const
{
    VIVA_ASSERT(isFrozen, "incidentRelations() on an unfrozen trace");
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    const std::uint32_t slot = closure.preIndex[id.index()];
    const std::uint32_t begin = closure.incidenceOff[slot];
    return {closure.incidence.data() + begin,
            closure.incidenceOff[slot + 1] - begin};
}

inline std::span<const std::uint32_t>
Trace::subtreeIncidence(ContainerId id) const
{
    VIVA_ASSERT(isFrozen, "subtreeIncidence() on an unfrozen trace");
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    const std::uint32_t slot = closure.preIndex[id.index()];
    const std::uint32_t begin = closure.incidenceOff[slot];
    return {closure.incidence.data() + begin,
            closure.incidenceOff[slot + closure.subtreeSize[id.index()]] -
                begin};
}

} // namespace viva::trace

