/**
 * @file
 * Implementation of the hierarchy cut.
 */

#include "agg/hierarchy_cut.hh"

#include "support/logging.hh"
#include "support/obs.hh"

namespace viva::agg
{

namespace obs = support::obs;

using trace::ContainerId;

HierarchyCut::HierarchyCut(const trace::Trace &trace) : tr(&trace)
{
    collapsed.assign(tr->containerCount(), 0);
}

void
HierarchyCut::aggregate(ContainerId group)
{
    VIVA_ASSERT(group.index() < tr->containerCount(), "bad container ", group);
    if (tr->container(group).leaf())
        return;
    collapsed[group.index()] = 1;
}

void
HierarchyCut::disaggregate(ContainerId group)
{
    VIVA_ASSERT(group.index() < tr->containerCount(), "bad container ", group);
    if (!collapsed[group.index()])
        return;
    collapsed[group.index()] = 0;
    for (ContainerId child : tr->container(group).children) {
        if (!tr->container(child).leaf())
            collapsed[child.index()] = 1;
    }
}

void
HierarchyCut::aggregateToDepth(std::uint16_t depth)
{
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        const trace::Container &c = tr->container(id);
        collapsed[id.index()] = (!c.leaf() && c.depth == depth) ? 1 : 0;
    }
}

void
HierarchyCut::focus(const std::vector<ContainerId> &targets)
{
    // expanded = on a root->target path, or inside a target's subtree.
    std::vector<std::uint8_t> expanded(tr->containerCount(), 0);
    for (ContainerId target : targets) {
        VIVA_ASSERT(target.index() < tr->containerCount(), "bad container ",
                    target);
        ContainerId cur = target;
        while (true) {
            expanded[cur.index()] = 1;
            if (cur == tr->root())
                break;
            cur = tr->container(cur).parent;
        }
        for (ContainerId inside : tr->subtree(target))
            expanded[inside.index()] = 1;
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        collapsed[id.index()] =
            (!tr->container(id).leaf() && !expanded[id.index()]) ? 1 : 0;
    }
}

void
HierarchyCut::reset()
{
    std::fill(collapsed.begin(), collapsed.end(), 0);
}

bool
HierarchyCut::isCollapsed(ContainerId id) const
{
    VIVA_ASSERT(id.index() < collapsed.size(), "bad container ", id);
    return collapsed[id.index()] != 0;
}

bool
HierarchyCut::isVisible(ContainerId id) const
{
    VIVA_ASSERT(id.index() < tr->containerCount(), "bad container ", id);
    if (!collapsed[id.index()] && !tr->container(id).leaf())
        return false;
    // Visible unless a strict ancestor is collapsed.
    ContainerId cur = id;
    while (cur != tr->root()) {
        cur = tr->container(cur).parent;
        if (collapsed[cur.index()])
            return false;
    }
    return true;
}

ContainerId
HierarchyCut::representative(ContainerId id) const
{
    VIVA_ASSERT(id.index() < tr->containerCount(), "bad container ", id);
    ContainerId top = id;
    ContainerId cur = id;
    if (collapsed[cur.index()])
        top = cur;
    while (cur != tr->root()) {
        cur = tr->container(cur).parent;
        if (collapsed[cur.index()])
            top = cur;
    }
    return top;
}

template <class Visit>
void
HierarchyCut::forEachVisible(Visit &&visit) const
{
    std::vector<ContainerId> stack{tr->root()};
    while (!stack.empty()) {
        ContainerId cur = stack.back();
        stack.pop_back();
        const trace::Container &c = tr->container(cur);
        if (collapsed[cur.index()] || (c.leaf() && cur != tr->root())) {
            visit(cur);
            continue;
        }
        for (auto it = c.children.rbegin(); it != c.children.rend(); ++it)
            stack.push_back(*it);
    }
}

std::vector<ContainerId>
HierarchyCut::visibleNodes() const
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("cut.recompute");
    static const obs::CounterId recomputations =
        reg.counter("cut.recomputations");
    obs::ScopedPhase timer(phase);
    reg.add(recomputations);

    std::vector<ContainerId> out;
    forEachVisible([&out](ContainerId id) { out.push_back(id); });
    return out;
}

std::size_t
HierarchyCut::visibleCount() const
{
    std::size_t n = 0;
    forEachVisible([&n](ContainerId) { ++n; });
    return n;
}

support::Expected<void>
HierarchyCut::setCollapsedFlags(const std::vector<std::uint8_t> &flags)
{
    if (flags.size() != tr->containerCount()) {
        return VIVA_ERROR(support::Errc::Invalid, "cut flag vector has ",
                          flags.size(), " entries for ",
                          tr->containerCount(), " containers");
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        if (flags[id.index()] > 1) {
            return VIVA_ERROR(support::Errc::Invalid,
                              "cut flag for container ", id, " is ",
                              unsigned(flags[id.index()]), ", not 0/1");
        }
        if (flags[id.index()] && tr->container(id).leaf()) {
            return VIVA_ERROR(support::Errc::Invalid, "leaf container ",
                              id, " ('", tr->fullName(id),
                              "') marked collapsed");
        }
    }
    // Stage-then-swap: prove the candidate describes a well-formed cut
    // on a scratch copy before touching this one.
    HierarchyCut staged(*tr);
    staged.collapsed = flags;
    support::AuditLog audit = staged.auditInvariants();
    if (!audit.empty()) {
        return VIVA_ERROR(support::Errc::Invalid,
                          "cut flags violate the cut property: ",
                          audit.front());
    }
    collapsed = flags;
    return {};
}

support::AuditLog
HierarchyCut::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    if (collapsed.size() != tr->containerCount()) {
        auditFail(log, "flag vector holds ", collapsed.size(),
                  " entries for ", tr->containerCount(), " containers");
        return log;
    }

    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        if (collapsed[id.index()] && tr->container(id).leaf())
            auditFail(log, "leaf container ", id, " ('",
                      tr->fullName(id), "') is marked collapsed");
    }

    // The cut property: the visible nodes are an antichain covering
    // every leaf exactly once. Walking each leaf's ancestor chain and
    // counting visible nodes on it checks both at once -- a count of
    // zero is a coverage hole, more than one is a nested pair.
    std::vector<std::uint8_t> visible(tr->containerCount(), 0);
    for (ContainerId id : visibleNodes()) {
        if (!isVisible(id))
            auditFail(log, "visibleNodes() lists ", id, " ('",
                      tr->fullName(id), "') but isVisible denies it");
        visible[id.index()] = 1;
    }
    for (ContainerId id{0}; id.index() < tr->containerCount(); ++id) {
        // The root only represents itself when collapsed, so a childless
        // trace legitimately has no visible nodes.
        if (!tr->container(id).leaf() || id == tr->root())
            continue;
        std::size_t covers = 0;
        for (ContainerId cur = id;; cur = tr->container(cur).parent) {
            covers += visible[cur.index()];
            if (cur == tr->root())
                break;
        }
        if (covers != 1)
            auditFail(log, "leaf ", id, " ('", tr->fullName(id),
                      "') is covered by ", covers,
                      " visible nodes instead of 1");
    }
    return log;
}

void
HierarchyCut::debugSetCollapsed(ContainerId id, bool value)
{
    VIVA_ASSERT(id.index() < collapsed.size(), "bad container ", id);
    collapsed[id.index()] = value ? 1 : 0;
}

} // namespace viva::agg
