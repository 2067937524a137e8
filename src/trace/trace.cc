/**
 * @file
 * Implementation of the Trace.
 */

#include "trace/trace.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::trace
{

const char *
containerKindName(ContainerKind kind)
{
    switch (kind) {
      case ContainerKind::Root: return "root";
      case ContainerKind::Grid: return "grid";
      case ContainerKind::Site: return "site";
      case ContainerKind::Cluster: return "cluster";
      case ContainerKind::Host: return "host";
      case ContainerKind::Link: return "link";
      case ContainerKind::Router: return "router";
      case ContainerKind::Process: return "process";
      case ContainerKind::Custom: return "custom";
    }
    return "custom";
}

ContainerKind
containerKindFromName(std::string_view name)
{
    static const std::pair<const char *, ContainerKind> table[] = {
        {"root", ContainerKind::Root},       {"grid", ContainerKind::Grid},
        {"site", ContainerKind::Site},       {"cluster", ContainerKind::Cluster},
        {"host", ContainerKind::Host},       {"link", ContainerKind::Link},
        {"router", ContainerKind::Router},   {"process", ContainerKind::Process},
        {"custom", ContainerKind::Custom},
    };
    for (const auto &[key, kind] : table)
        if (name == key)
            return kind;
    return ContainerKind::Custom;
}

const char *
metricNatureName(MetricNature nature)
{
    switch (nature) {
      case MetricNature::Capacity: return "capacity";
      case MetricNature::Utilization: return "utilization";
      case MetricNature::Gauge: return "gauge";
      case MetricNature::Counter: return "counter";
    }
    return "gauge";
}

MetricNature
metricNatureFromName(std::string_view name)
{
    if (name == "capacity")
        return MetricNature::Capacity;
    if (name == "utilization")
        return MetricNature::Utilization;
    if (name == "counter")
        return MetricNature::Counter;
    return MetricNature::Gauge;
}

Trace::Trace()
{
    Container root_node;
    root_node.id = ContainerId{0};
    root_node.name = "root";
    root_node.kind = ContainerKind::Root;
    root_node.parent = kNoContainer;
    root_node.depth = 0;
    nodes.push_back(std::move(root_node));
}

ContainerId
Trace::addContainer(const std::string &name, ContainerKind kind,
                    ContainerId parent)
{
    VIVA_ASSERT(!isFrozen, "addContainer() on a frozen trace");
    VIVA_ASSERT(parent.index() < nodes.size(), "bad parent container id ", parent);
    VIVA_ASSERT(!name.empty(), "container name must not be empty");
    VIVA_ASSERT(name.find('/') == std::string::npos,
                "container name '", name, "' must not contain '/'");
    // A precondition, not an input error: readers validate duplicates
    // before calling (and report a recoverable support::Error), so a
    // duplicate here is a library bug.
    VIVA_ASSERT(findChild(parent, name) == kNoContainer,
                "duplicate container '", name, "' under '",
                fullName(parent), "'");

    Container node;
    node.id = ContainerId::fromIndex(nodes.size());
    node.name = name;
    node.kind = kind;
    node.parent = parent;
    node.depth = std::uint16_t(nodes[parent.index()].depth + 1);
    nodes.push_back(std::move(node));
    nodes[parent.index()].children.push_back(ContainerId::fromIndex(nodes.size() - 1));
    return ContainerId::fromIndex(nodes.size() - 1);
}

const Container &
Trace::container(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return nodes[id.index()];
}

ContainerId
Trace::findChild(ContainerId parent, const std::string &name) const
{
    VIVA_ASSERT(parent.index() < nodes.size(), "bad parent container id ", parent);
    for (ContainerId child : nodes[parent.index()].children)
        if (nodes[child.index()].name == name)
            return child;
    return kNoContainer;
}

ContainerId
Trace::findByPath(const std::string &path) const
{
    ContainerId cur = root();
    if (path.empty())
        return cur;
    for (const std::string &part : support::split(path, '/')) {
        cur = findChild(cur, part);
        if (cur == kNoContainer)
            return kNoContainer;
    }
    return cur;
}

ContainerId
Trace::findByName(const std::string &name) const
{
    ContainerId found = kNoContainer;
    for (const Container &node : nodes) {
        if (node.name == name) {
            if (found != kNoContainer)
                return kNoContainer;  // ambiguous
            found = node.id;
        }
    }
    return found;
}

std::string
Trace::fullName(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    if (id == root())
        return "";
    std::vector<const std::string *> parts;
    for (ContainerId cur = id; cur != root(); cur = nodes[cur.index()].parent)
        parts.push_back(&nodes[cur.index()].name);
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '/';
        out += **it;
    }
    return out;
}

std::vector<ContainerId>
Trace::containersOfKind(ContainerKind kind) const
{
    std::vector<ContainerId> out;
    for (const Container &node : nodes)
        if (node.kind == kind)
            out.push_back(node.id);
    return out;
}

std::vector<ContainerId>
Trace::leavesUnder(ContainerId id) const
{
    std::vector<ContainerId> out;
    for (ContainerId c : subtree(id))
        if (nodes[c.index()].leaf())
            out.push_back(c);
    return out;
}

std::vector<ContainerId>
Trace::subtree(ContainerId id) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    std::vector<ContainerId> out;
    std::vector<ContainerId> stack{id};
    while (!stack.empty()) {
        ContainerId cur = stack.back();
        stack.pop_back();
        out.push_back(cur);
        const auto &children = nodes[cur.index()].children;
        for (auto it = children.rbegin(); it != children.rend(); ++it)
            stack.push_back(*it);
    }
    return out;
}

bool
Trace::isAncestorOrSelf(ContainerId anc, ContainerId id) const
{
    VIVA_ASSERT(anc.index() < nodes.size() && id.index() < nodes.size(),
                "bad container id ", anc, " or ", id);
    ContainerId cur = id;
    while (true) {
        if (cur == anc)
            return true;
        if (cur == root())
            return false;
        cur = nodes[cur.index()].parent;
    }
}

ContainerId
Trace::ancestorAtDepth(ContainerId id, std::uint16_t depth) const
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    ContainerId cur = id;
    while (nodes[cur.index()].depth > depth)
        cur = nodes[cur.index()].parent;
    return cur;
}

MetricId
Trace::addMetric(const std::string &name, const std::string &unit,
                 MetricNature nature, MetricId capacity_of)
{
    VIVA_ASSERT(!isFrozen, "addMetric() on a frozen trace");
    auto it = metricByName.find(name);
    if (it != metricByName.end())
        return it->second;
    VIVA_ASSERT(capacity_of == kNoMetric || capacity_of.index() < metricTable.size(),
                "bad capacity metric id ", capacity_of);
    Metric m;
    m.id = MetricId::fromIndex(metricTable.size());
    m.name = name;
    m.unit = unit;
    m.nature = nature;
    m.capacityOf = capacity_of;
    metricTable.push_back(m);
    metricByName.emplace(name, m.id);
    return m.id;
}

MetricId
Trace::findMetric(const std::string &name) const
{
    auto it = metricByName.find(name);
    return it == metricByName.end() ? kNoMetric : it->second;
}

const Metric &
Trace::metric(MetricId id) const
{
    VIVA_ASSERT(id.index() < metricTable.size(), "bad metric id ", id);
    return metricTable[id.index()];
}

Variable &
Trace::variable(ContainerId c, MetricId m)
{
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    VIVA_ASSERT(m.index() < metricTable.size(), "bad metric id ", m);
    // The caller gets a mutable reference: a frozen trace hands out none.
    VIVA_ASSERT(!isFrozen, "variable() on a frozen trace");
    return vars[varKey(c, m)];
}

const Variable *
Trace::findVariable(ContainerId c, MetricId m) const
{
    if (!isFrozen) {
        auto it = vars.find(varKey(c, m));
        return it == vars.end() ? nullptr : &it->second;
    }
    if (c.index() >= nodes.size() || m.index() >= metricTable.size())
        return nullptr;
    // A slot holds at most one carrier per metric: its own variable.
    const std::uint32_t *slot = carrierSlot(c, m);
    if (slot[1] != slot[0])
        return &store[slot[0]];
    auto it = std::lower_bound(emptyKeys.begin(), emptyKeys.end(),
                               varKey(c, m));
    if (it == emptyKeys.end() || *it != varKey(c, m))
        return nullptr;
    return &store[store.size() - emptyKeys.size() +
                  std::size_t(it - emptyKeys.begin())];
}

template <class Visit>
void
Trace::forEachVariable(Visit &&visit) const
{
    for (const Variable &var : store)
        visit(var);
    for (const auto &[key, var] : vars)  // viva-analyze: allow(unordered-iter): callers fold order-free (integer sum, min/max)
        visit(var);
}

bool
Trace::hasVariable(ContainerId c, MetricId m) const
{
    const Variable *v = findVariable(c, m);
    return v && !v->empty();
}

std::size_t
Trace::pointCount() const
{
    std::size_t n = 0;
    // Integer sum: exactly order-independent.
    forEachVariable([&n](const Variable &var) { n += var.pointCount(); });
    return n;
}

void
Trace::addRelation(ContainerId a, ContainerId b)
{
    VIVA_ASSERT(!isFrozen, "addRelation() on a frozen trace");
    VIVA_ASSERT(a.index() < nodes.size() && b.index() < nodes.size(),
                "bad relation endpoints ", a, ", ", b);
    if (a == b)
        return;
    if (!relSet.insert(relKey(a, b)).second)
        return;
    rels.push_back({a, b});
}

std::vector<ContainerId>
Trace::neighbors(ContainerId id) const
{
    std::vector<ContainerId> out;
    for (const Relation &r : rels) {
        if (r.a == id)
            out.push_back(r.b);
        else if (r.b == id)
            out.push_back(r.a);
    }
    return out;
}

void
Trace::addState(ContainerId c, double begin, double end,
                const std::string &state)
{
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    VIVA_ASSERT(!isFrozen, "addState() on a frozen trace");
    VIVA_ASSERT(begin <= end, "reversed state interval");
    stateLog.push_back({c, begin, end, state});
}

support::Interval
Trace::span() const
{
    bool any = false;
    double lo = 0.0;
    double hi = 0.0;
    auto fold = [&](double b, double e) {
        if (!any) {
            lo = b;
            hi = e;
            any = true;
        } else {
            lo = std::min(lo, b);
            hi = std::max(hi, e);
        }
    };
    // min/max hull: exactly commutative, any visit order yields the
    // same bits.
    forEachVariable([&fold](const Variable &var) {
        if (!var.empty())
            fold(var.firstTime(), var.lastTime());
    });
    for (const StateRecord &s : stateLog)
        fold(s.begin, s.end);
    return support::Interval(lo, hi);
}

void
Trace::freeze()
{
    if (isFrozen)
        return;
    namespace obs = support::obs;
    obs::Registry &reg = obs::Registry::global();
    {
        static const obs::HistogramId phase =
            reg.histogram("trace.closure.build");
        obs::ScopedPhase timer(phase);

        // Preorder of the whole tree; every subtree is one contiguous
        // slab of it. Sizes and leaf counts are filled right-to-left so
        // children are done before their parent.
        closure.preorder = subtree(root());
        closure.preIndex.assign(nodes.size(), 0);
        closure.subtreeSize.assign(nodes.size(), 0);
        closure.leafCount.assign(nodes.size(), 0);
        for (std::size_t slot = 0; slot < closure.preorder.size(); ++slot)
            closure.preIndex[closure.preorder[slot].index()] =
                std::uint32_t(slot);
        for (std::size_t slot = closure.preorder.size(); slot-- > 0;) {
            ContainerId id = closure.preorder[slot];
            const Container &c = nodes[id.index()];
            std::uint32_t size = 1;
            std::uint32_t leaves = c.leaf() ? 1 : 0;
            for (ContainerId child : c.children) {
                size += closure.subtreeSize[child.index()];
                leaves += closure.leafCount[child.index()];
            }
            closure.subtreeSize[id.index()] = size;
            closure.leafCount[id.index()] = leaves;
        }
        // Incidence: count per slot, prefix-sum, then fill in relation
        // order, so every row comes out ascending.
        const std::size_t slots = closure.preorder.size();
        closure.incidenceOff.assign(slots + 1, 0);
        for (const Relation &r : rels) {
            ++closure.incidenceOff[closure.preIndex[r.a.index()] + 1];
            if (r.b != r.a)
                ++closure.incidenceOff[closure.preIndex[r.b.index()] + 1];
        }
        for (std::size_t slot = 0; slot < slots; ++slot)
            closure.incidenceOff[slot + 1] += closure.incidenceOff[slot];
        closure.incidence.resize(closure.incidenceOff[slots]);
        std::vector<std::uint32_t> fill(closure.incidenceOff.begin(),
                                        closure.incidenceOff.end() - 1);
        for (std::size_t ri = 0; ri < rels.size(); ++ri) {
            const Relation &r = rels[ri];
            closure.incidence[fill[closure.preIndex[r.a.index()]]++] =
                std::uint32_t(ri);
            if (r.b != r.a)
                closure.incidence[fill[closure.preIndex[r.b.index()]]++] =
                    std::uint32_t(ri);
        }
    }

    static const obs::HistogramId phase = reg.histogram("trace.index.build");
    obs::ScopedPhase timer(phase);

    // The variables that never got a point go after the carriers, in
    // key order, so findVariable still tells them from never-set ones.
    for (const auto &[key, var] : vars)  // viva-analyze: allow(unordered-iter): the keys are sorted right below
        if (var.empty())
            emptyKeys.push_back(key);
    std::sort(emptyKeys.begin(), emptyKeys.end());

    // Per metric: the carriers of the whole preorder, one slot at a
    // time, each frozen and moved into the store as it is reached, with
    // the store size before every slot. A subtree's carrier list is
    // then the store run between its slab's bounds.
    //
    // The fold streams the blocks in this order, so they should lie in
    // it too, and a block lands in whatever memory was freed last. So
    // the hash map's nodes, scattered in load order, go only at the
    // end, and so do the build vectors of short histories (at most
    // kShortHistory points): their blocks are most carriers and one or
    // two cache lines each. Long histories hold most points, and their
    // build vectors go at once, which bounds the memory held twice.
    constexpr std::size_t kShortHistory = 32;
    std::vector<std::vector<Variable::Point>> spent;
    spent.reserve(vars.size());
    const std::size_t slots = closure.preorder.size();
    store.reserve(vars.size());
    closure.carrierOff.assign(metricTable.size() * (slots + 1), 0);
    for (std::size_t mi = 0; mi < metricTable.size(); ++mi) {
        std::uint32_t *off = closure.carrierOff.data() + mi * (slots + 1);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            off[slot] = std::uint32_t(store.size());
            auto it = vars.find(
                varKey(closure.preorder[slot], MetricId::fromIndex(mi)));
            if (it == vars.end() || it->second.empty())
                continue;
            std::vector<Variable::Point> built = it->second.freeze();
            if (built.size() <= kShortHistory)
                spent.push_back(std::move(built));
            store.push_back(std::move(it->second));
        }
        off[slots] = std::uint32_t(store.size());
    }
    for (std::uint64_t key : emptyKeys) {
        Variable &var = vars.at(key);
        var.freeze();
        store.push_back(std::move(var));
    }
    decltype(vars)().swap(vars);
    isFrozen = true;
}

const std::uint32_t *
Trace::carrierSlot(ContainerId c, MetricId m) const
{
    return closure.carrierOff.data() +
           m.index() * (closure.preorder.size() + 1) +
           closure.preIndex[c.index()];
}

std::span<const Variable>
Trace::carriers(ContainerId c, MetricId m) const
{
    VIVA_ASSERT(isFrozen, "carriers() on an unfrozen trace");
    VIVA_ASSERT(c.index() < nodes.size(), "bad container id ", c);
    // An unknown metric carries nothing -- same answer findVariable
    // gives (nullptr), so lookups with a failed findMetric stay benign.
    if (m.index() >= metricTable.size())
        return {};
    const std::uint32_t *off = carrierSlot(c, m);
    const std::uint32_t end = off[closure.subtreeSize[c.index()]];
    return {store.data() + off[0], end - off[0]};
}

support::AuditLog
Trace::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;
    if (nodes.empty()) {
        auditFail(log, "trace has no root container");
        return log;
    }
    if (nodes[0].id != ContainerId{0} || nodes[0].parent != kNoContainer ||
        nodes[0].depth != 0)
        auditFail(log, "container 0 is not a well-formed root");

    // Hierarchy: slot/id agreement, parent/child symmetry, depth chain,
    // unique sibling names.
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        const Container &c = nodes[i];
        if (c.id != ContainerId::fromIndex(i))
            auditFail(log, "container in slot ", i, " carries id ", c.id);
        if (c.parent.index() >= nodes.size()) {
            auditFail(log, "container ", i, " ('", c.name,
                      "') has bad parent ", c.parent);
            continue;
        }
        const Container &p = nodes[c.parent.index()];
        if (c.depth != p.depth + 1)
            auditFail(log, "container ", i, " ('", c.name, "') at depth ",
                      c.depth, " under parent at depth ", p.depth);
        if (std::count(p.children.begin(), p.children.end(),
                       ContainerId::fromIndex(i)) != 1)
            auditFail(log, "container ", i, " ('", c.name,
                      "') is not listed once by parent ", c.parent);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Container &c = nodes[i];
        for (std::size_t a = 0; a < c.children.size(); ++a) {
            ContainerId child = c.children[a];
            if (child.index() >= nodes.size() || child == ContainerId{0}) {
                auditFail(log, "container ", i, " lists bad child ",
                          child);
                continue;
            }
            if (nodes[child.index()].parent != ContainerId::fromIndex(i))
                auditFail(log, "child ", child, " of container ", i,
                          " points back at ", nodes[child.index()].parent);
            for (std::size_t b = a + 1; b < c.children.size(); ++b)
                if (c.children[b].index() < nodes.size() &&
                    nodes[child.index()].name == nodes[c.children[b].index()].name)
                    auditFail(log, "containers ", child, " and ",
                              c.children[b], " under ", i,
                              " share the name '", nodes[child.index()].name, "'");
        }
    }

    // Metrics and their name index.
    for (std::size_t i = 0; i < metricTable.size(); ++i) {
        const Metric &m = metricTable[i];
        if (m.id != MetricId::fromIndex(i))
            auditFail(log, "metric in slot ", i, " carries id ", m.id);
        if (m.capacityOf != kNoMetric && m.capacityOf.index() >= metricTable.size())
            auditFail(log, "metric '", m.name, "' caps bad metric ",
                      m.capacityOf);
        auto it = metricByName.find(m.name);
        if (it == metricByName.end() || it->second != m.id)
            auditFail(log, "metric '", m.name,
                      "' is missing from the name index");
    }
    if (metricByName.size() != metricTable.size())
        auditFail(log, "metric name index holds ", metricByName.size(),
                  " entries for ", metricTable.size(), " metrics");

    // Variables: valid (container, metric) key, time-sorted points,
    // an index consistent with them and with the trace's freeze.
    auto audit_variable = [&](ContainerId c, MetricId m,
                              const Variable &var) {
        if (c.index() >= nodes.size())
            auditFail(log, "variable key references bad container ", c);
        if (m.index() >= metricTable.size())
            auditFail(log, "variable key references bad metric ", m);
        std::span<const Variable::Point> points = var.changePoints();
        for (std::size_t i = 1; i < points.size(); ++i)
            if (points[i - 1].time >= points[i].time)
                auditFail(log, "variable (", c, ", ", m,
                          ") has unsorted change points at index ", i);
        if (var.frozen() != isFrozen || !var.indexConsistent())
            auditFail(log, "variable (", c, ", ", m,
                      ") carries a slice index inconsistent with its "
                      "points or with the trace's freeze");
    };
    // Unfrozen, the hash map holds them (keys sorted first so the log
    // order is deterministic); frozen, the store does, audited with
    // the closure below.
    if (isFrozen ? !vars.empty() : !store.empty())
        auditFail(log, "variables held outside the ",
                  isFrozen ? "store of a frozen" : "hash map of an unfrozen",
                  " trace");
    std::vector<std::uint64_t> var_keys;
    var_keys.reserve(vars.size());
    for (const auto &entry : vars)  // viva-analyze: allow(unordered-iter): the keys are sorted right below
        var_keys.push_back(entry.first);
    std::sort(var_keys.begin(), var_keys.end());
    for (std::uint64_t key : var_keys)
        audit_variable(ContainerId::fromIndex(key >> 16),
                       MetricId::fromIndex(key & 0xFFFF), vars.at(key));

    // Relations: valid distinct endpoints, deduplicated.
    for (std::size_t i = 0; i < rels.size(); ++i) {
        const Relation &r = rels[i];
        if (r.a.index() >= nodes.size() || r.b.index() >= nodes.size())
            auditFail(log, "relation ", i, " has bad endpoints ", r.a,
                      ", ", r.b);
        if (r.a == r.b)
            auditFail(log, "relation ", i, " is a self-loop on ", r.a);
        if (relSet.find(relKey(r.a, r.b)) == relSet.end())
            auditFail(log, "relation ", i,
                      " is missing from the dedup set");
    }
    if (relSet.size() != rels.size())
        auditFail(log, "dedup set holds ", relSet.size(),
                  " keys for ", rels.size(), " relations");

    // States: valid containers, ordered intervals.
    for (std::size_t i = 0; i < stateLog.size(); ++i) {
        const StateRecord &s = stateLog[i];
        if (s.container.index() >= nodes.size())
            auditFail(log, "state ", i, " references bad container ",
                      s.container);
        if (s.begin > s.end)
            auditFail(log, "state ", i, " has a reversed interval");
    }

    // Closure: once frozen, every cached subtree must equal an
    // independent recomputation from the hierarchy, and the store must
    // hold, metric after metric, one non-empty variable per slot whose
    // carrier count steps, then the empty ones under their keys, so
    // that every carrier list is one run of it.
    if (isFrozen) {
        if (closure.preIndex.size() != nodes.size() ||
            closure.subtreeSize.size() != nodes.size() ||
            closure.preorder.size() != nodes.size() ||
            closure.carrierOff.size() !=
                metricTable.size() * (nodes.size() + 1) ||
            closure.leafCount.size() != nodes.size() ||
            closure.incidenceOff.size() != nodes.size() + 1 ||
            closure.incidenceOff.back() != closure.incidence.size()) {
            auditFail(log, "closure cache arrays are missized");
            return log;
        }
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            ContainerId id = ContainerId::fromIndex(ni);
            std::vector<ContainerId> expect = subtree(id);
            std::span<const ContainerId> cached = cachedSubtree(id);
            if (cached.size() != expect.size() ||
                !std::equal(cached.begin(), cached.end(),
                            expect.begin()))
                auditFail(log, "cached subtree of container ", ni,
                          " disagrees with the hierarchy");
            if (leafCount(id) != leavesUnder(id).size())
                auditFail(log, "leaf count of container ", ni,
                          " disagrees with the hierarchy");
        }
        // Incidence: every relation listed at each distinct endpoint,
        // rows ascending, nothing else.
        std::vector<std::uint32_t> listed(rels.size(), 0);
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            ContainerId id = ContainerId::fromIndex(ni);
            std::span<const std::uint32_t> row = incidentRelations(id);
            for (std::size_t k = 0; k < row.size(); ++k) {
                if (row[k] >= rels.size() ||
                    (rels[row[k]].a != id && rels[row[k]].b != id) ||
                    (k > 0 && row[k - 1] >= row[k])) {
                    auditFail(log, "incidence row of container ", ni,
                              " breaks at entry ", k);
                    break;
                }
                ++listed[row[k]];
            }
        }
        for (std::size_t ri = 0; ri < rels.size(); ++ri)
            if (listed[ri] != (rels[ri].a == rels[ri].b ? 1u : 2u))
                auditFail(log, "relation ", ri, " is listed ", listed[ri],
                          " times in the incidence index");
        const std::size_t slots = closure.preorder.size();
        std::uint32_t carried = 0;
        for (std::size_t mi = 0; mi < metricTable.size(); ++mi) {
            MetricId m = MetricId::fromIndex(mi);
            const std::uint32_t *off =
                closure.carrierOff.data() + mi * (slots + 1);
            if (off[0] != carried)
                auditFail(log, "carriers of metric ", mi,
                          " do not start where metric ", mi - 1,
                          "'s carriers end");
            for (std::size_t slot = 0; slot < slots; ++slot) {
                if (off[slot + 1] < off[slot] ||
                    off[slot + 1] - off[slot] > 1 ||
                    off[slot + 1] > store.size()) {
                    auditFail(log, "carrier offsets of metric ", mi,
                              " break at preorder slot ", slot);
                    return log;
                }
                if (off[slot + 1] == off[slot])
                    continue;
                const Variable &var = store[off[slot]];
                if (var.empty())
                    auditFail(log, "carrier (", closure.preorder[slot],
                              ", ", m, ") holds no point");
                audit_variable(closure.preorder[slot], m, var);
            }
            carried = off[slots];
        }
        if (store.size() != carried + emptyKeys.size()) {
            auditFail(log, "store holds ", store.size(), " variables for ",
                      carried, " carriers and ", emptyKeys.size(),
                      " empty ones");
            return log;
        }
        for (std::size_t i = 0; i < emptyKeys.size(); ++i) {
            ContainerId c = ContainerId::fromIndex(emptyKeys[i] >> 16);
            MetricId m = MetricId::fromIndex(emptyKeys[i] & 0xFFFF);
            if (i > 0 && emptyKeys[i - 1] >= emptyKeys[i])
                auditFail(log, "empty variable keys are not sorted at ", i);
            const Variable &var = store[carried + i];
            if (!var.empty())
                auditFail(log, "empty variable (", c, ", ", m,
                          ") holds points");
            audit_variable(c, m, var);
            if (c.index() < nodes.size() && m.index() < metricTable.size() &&
                carrierSlot(c, m)[1] != carrierSlot(c, m)[0])
                auditFail(log, "empty variable (", c, ", ", m,
                          ") shadows a carrier");
        }
    }
    return log;
}

Container &
Trace::debugMutableContainer(ContainerId id)
{
    VIVA_ASSERT(id.index() < nodes.size(), "bad container id ", id);
    return nodes[id.index()];
}

} // namespace viva::trace
