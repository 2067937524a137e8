/**
 * @file
 * Implementation of the platform model and its BFS routing.
 */

#include "platform/platform.hh"

#include <algorithm>
#include <deque>

#include "support/logging.hh"

namespace viva::platform
{

Platform::Platform(const std::string &grid_name)
{
    Group grid_group;
    grid_group.id = GroupId{0};
    grid_group.name = grid_name;
    grid_group.kind = GroupKind::Grid;
    groups.push_back(std::move(grid_group));
    groupByName.emplace(grid_name, GroupId{0});
}

GroupId
Platform::addSite(const std::string &name)
{
    Group g;
    g.id = GroupId::fromIndex(groups.size());
    g.name = name;
    g.kind = GroupKind::Site;
    g.parent = grid();
    groups.push_back(g);
    groups[grid().index()].children.push_back(g.id);
    const bool fresh_group = groupByName.emplace(name, g.id).second;
    VIVA_ASSERT(fresh_group, "duplicate group name '", name, "'");
    return g.id;
}

GroupId
Platform::addCluster(const std::string &name, GroupId parent)
{
    VIVA_ASSERT(parent.index() < groups.size(), "bad parent group ", parent);
    Group g;
    g.id = GroupId::fromIndex(groups.size());
    g.name = name;
    g.kind = GroupKind::Cluster;
    g.parent = parent;
    groups.push_back(g);
    groups[parent.index()].children.push_back(g.id);
    const bool fresh_group = groupByName.emplace(name, g.id).second;
    VIVA_ASSERT(fresh_group, "duplicate group name '", name, "'");
    return g.id;
}

VertexId
Platform::newVertex(bool is_host, std::uint32_t index)
{
    VertexId v = VertexId::fromIndex(vertexInfo.size());
    vertexInfo.push_back({is_host, index});
    adjacency.emplace_back();
    return v;
}

HostId
Platform::addHost(const std::string &name, double power_mflops,
                  GroupId group_id)
{
    VIVA_ASSERT(group_id.index() < groups.size(), "bad group ", group_id);
    VIVA_ASSERT(power_mflops > 0, "host '", name, "' needs positive power");
    Host h;
    h.id = HostId::fromIndex(hosts.size());
    h.name = name;
    h.powerMflops = power_mflops;
    h.group = group_id;
    h.vertex = newVertex(true, h.id.value());
    const bool fresh_host = hostByName.emplace(name, h.id).second;
    VIVA_ASSERT(fresh_host, "duplicate host name '", name, "'");
    hosts.push_back(std::move(h));
    return HostId::fromIndex(hosts.size() - 1);
}

RouterId
Platform::addRouter(const std::string &name, GroupId group_id)
{
    VIVA_ASSERT(group_id.index() < groups.size(), "bad group ", group_id);
    Router r;
    r.id = RouterId::fromIndex(routers.size());
    r.name = name;
    r.group = group_id;
    r.vertex = newVertex(false, r.id.value());
    routers.push_back(std::move(r));
    return RouterId::fromIndex(routers.size() - 1);
}

LinkId
Platform::addLink(const std::string &name, double bandwidth_mbps,
                  double latency_s, GroupId group_id)
{
    VIVA_ASSERT(group_id.index() < groups.size(), "bad group ", group_id);
    VIVA_ASSERT(bandwidth_mbps > 0, "link '", name,
                "' needs positive bandwidth");
    VIVA_ASSERT(latency_s >= 0, "link '", name, "' has negative latency");
    Link l;
    l.id = LinkId::fromIndex(links.size());
    l.name = name;
    l.bandwidthMbps = bandwidth_mbps;
    l.latencyS = latency_s;
    l.group = group_id;
    links.push_back(std::move(l));
    return LinkId::fromIndex(links.size() - 1);
}

void
Platform::connect(VertexId a, VertexId b, LinkId link_id)
{
    VIVA_ASSERT(a.index() < adjacency.size() && b.index() < adjacency.size(),
                "bad vertices ", a, ", ", b);
    VIVA_ASSERT(link_id.index() < links.size(), "bad link ", link_id);
    VIVA_ASSERT(a != b, "self-loop on vertex ", a);
    adjacency[a.index()].emplace_back(b, link_id);
    adjacency[b.index()].emplace_back(a, link_id);
    routeCache.clear();
}

const Group &
Platform::group(GroupId id) const
{
    VIVA_ASSERT(id.index() < groups.size(), "bad group id ", id);
    return groups[id.index()];
}

const Host &
Platform::host(HostId id) const
{
    VIVA_ASSERT(id.index() < hosts.size(), "bad host id ", id);
    return hosts[id.index()];
}

const Link &
Platform::link(LinkId id) const
{
    VIVA_ASSERT(id.index() < links.size(), "bad link id ", id);
    return links[id.index()];
}

const Router &
Platform::router(RouterId id) const
{
    VIVA_ASSERT(id.index() < routers.size(), "bad router id ", id);
    return routers[id.index()];
}

HostId
Platform::findHost(const std::string &name) const
{
    auto it = hostByName.find(name);
    return it == hostByName.end() ? kNoHost : it->second;
}

GroupId
Platform::findGroup(const std::string &name) const
{
    auto it = groupByName.find(name);
    return it == groupByName.end() ? kNoGroup : it->second;
}

bool
Platform::groupIsUnder(GroupId descendant, GroupId ancestor) const
{
    VIVA_ASSERT(descendant.index() < groups.size() && ancestor.index() < groups.size(),
                "bad group ids");
    GroupId cur = descendant;
    while (true) {
        if (cur == ancestor)
            return true;
        if (cur == grid())
            return false;
        cur = groups[cur.index()].parent;
    }
}

std::vector<HostId>
Platform::hostsUnder(GroupId id) const
{
    std::vector<HostId> out;
    for (const Host &h : hosts)
        if (groupIsUnder(h.group, id))
            out.push_back(h.id);
    return out;
}

std::string
Platform::groupPath(GroupId id) const
{
    VIVA_ASSERT(id.index() < groups.size(), "bad group id ", id);
    std::vector<const std::string *> parts;
    GroupId cur = id;
    while (true) {
        parts.push_back(&groups[cur.index()].name);
        if (cur == grid())
            break;
        cur = groups[cur.index()].parent;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '/';
        out += **it;
    }
    return out;
}

const std::vector<std::pair<VertexId, LinkId>> &
Platform::edges(VertexId v) const
{
    VIVA_ASSERT(v.index() < adjacency.size(), "bad vertex ", v);
    return adjacency[v.index()];
}

HostId
Platform::vertexHost(VertexId v) const
{
    VIVA_ASSERT(v.index() < vertexInfo.size(), "bad vertex ", v);
    return vertexInfo[v.index()].isHost ? HostId{vertexInfo[v.index()].index} : kNoHost;
}

RouterId
Platform::vertexRouter(VertexId v) const
{
    VIVA_ASSERT(v.index() < vertexInfo.size(), "bad vertex ", v);
    return vertexInfo[v.index()].isHost ? kNoRouter : RouterId{vertexInfo[v.index()].index};
}

const Route &
Platform::route(HostId src, HostId dst) const  // viva-analyze: allow(fatal-reachable): disconnected hosts are a construction error; panic is documented
{
    VIVA_ASSERT(src.index() < hosts.size() && dst.index() < hosts.size(),
                "bad route endpoints ", src, ", ", dst);
    std::uint64_t key = (std::uint64_t(src.value()) << 32) | dst.value();
    auto it = routeCache.find(key);
    if (it != routeCache.end())
        return it->second;

    Route result;
    if (src == dst) {
        result.latencyS = 0.0;
        return routeCache.emplace(key, std::move(result)).first->second;
    }

    // Plain BFS over vertices, remembering the (vertex, link) we came by.
    VertexId start = hosts[src.index()].vertex;
    VertexId goal = hosts[dst.index()].vertex;
    std::vector<std::pair<VertexId, LinkId>> pred(
        adjacency.size(), {kNoVertex, kNoLink});
    std::deque<VertexId> queue{start};
    pred[start.index()] = {start, kNoLink};
    bool found = false;
    while (!queue.empty() && !found) {
        VertexId cur = queue.front();
        queue.pop_front();
        for (const auto &[next, l] : adjacency[cur.index()]) {
            if (pred[next.index()].first != kNoVertex)
                continue;
            pred[next.index()] = {cur, l};
            if (next == goal) {
                found = true;
                break;
            }
            queue.push_back(next);
        }
    }
    if (!found) {
        // A precondition, not an input error: platforms are built
        // programmatically by the builders, which always produce
        // connected topologies, so a missing route is a library bug.
        support::panic("Platform::route", "hosts '", hosts[src.index()].name,
                       "' and '", hosts[dst.index()].name, "' are disconnected");
    }

    for (VertexId cur = goal; cur != start; cur = pred[cur.index()].first) {
        LinkId l = pred[cur.index()].second;
        result.links.push_back(l);
        result.latencyS += links[l.index()].latencyS;
    }
    std::reverse(result.links.begin(), result.links.end());
    return routeCache.emplace(key, std::move(result)).first->second;
}

support::AuditLog
Platform::auditInvariants() const
{
    using support::auditFail;

    support::AuditLog log;

    // Groups: slot/id agreement, parent/child symmetry, acyclicity.
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const Group &g = groups[i];
        if (g.id != GroupId::fromIndex(i))
            auditFail(log, "group in slot ", i, " carries id ", g.id);
        if (GroupId::fromIndex(i) == grid()) {
            if (g.parent != kNoGroup)
                auditFail(log, "the grid group has parent ", g.parent);
        } else if (g.parent.index() >= groups.size()) {
            auditFail(log, "group ", i, " ('", g.name,
                      "') has bad parent ", g.parent);
        } else {
            const auto &siblings = groups[g.parent.index()].children;
            if (std::count(siblings.begin(), siblings.end(),
                           GroupId::fromIndex(i)) != 1)
                auditFail(log, "group ", i, " ('", g.name,
                          "') is not listed once by parent ", g.parent);
        }
        for (GroupId child : g.children) {
            if (child.index() >= groups.size())
                auditFail(log, "group ", i, " lists bad child ", child);
            else if (groups[child.index()].parent != GroupId::fromIndex(i))
                auditFail(log, "child ", child, " of group ", i,
                          " points back at ", groups[child.index()].parent);
        }
        // Acyclicity: every chain must reach the grid within the
        // group count.
        GroupId cur = GroupId::fromIndex(i);
        std::size_t hops = 0;
        while (cur != grid() && cur.index() < groups.size() &&
               hops <= groups.size()) {
            cur = groups[cur.index()].parent;
            ++hops;
        }
        if (cur != grid())
            auditFail(log, "group ", i, " ('", g.name,
                      "') never reaches the grid");
    }

    // Entities: slot/id agreement, valid group, vertex round-trip.
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const Host &h = hosts[i];
        if (h.id != HostId::fromIndex(i))
            auditFail(log, "host in slot ", i, " carries id ", h.id);
        if (h.group.index() >= groups.size())
            auditFail(log, "host '", h.name, "' has bad group ", h.group);
        if (h.powerMflops <= 0.0)
            auditFail(log, "host '", h.name, "' has non-positive power");
        if (h.vertex.index() >= vertexInfo.size())
            auditFail(log, "host '", h.name, "' has bad vertex ",
                      h.vertex);
        else if (!vertexInfo[h.vertex.index()].isHost ||
                 HostId{vertexInfo[h.vertex.index()].index} != h.id)
            auditFail(log, "vertex ", h.vertex,
                      " does not round-trip to host ", i);
        auto it = hostByName.find(h.name);
        if (it == hostByName.end() || it->second != h.id)
            auditFail(log, "host '", h.name,
                      "' is missing from the name index");
    }
    for (std::size_t i = 0; i < routers.size(); ++i) {
        const Router &r = routers[i];
        if (r.id != RouterId::fromIndex(i))
            auditFail(log, "router in slot ", i, " carries id ", r.id);
        if (r.group.index() >= groups.size())
            auditFail(log, "router '", r.name, "' has bad group ",
                      r.group);
        if (r.vertex.index() >= vertexInfo.size())
            auditFail(log, "router '", r.name, "' has bad vertex ",
                      r.vertex);
        else if (vertexInfo[r.vertex.index()].isHost ||
                 RouterId{vertexInfo[r.vertex.index()].index} != r.id)
            auditFail(log, "vertex ", r.vertex,
                      " does not round-trip to router ", i);
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
        const Link &l = links[i];
        if (l.id != LinkId::fromIndex(i))
            auditFail(log, "link in slot ", i, " carries id ", l.id);
        if (l.group.index() >= groups.size())
            auditFail(log, "link '", l.name, "' has bad group ", l.group);
        if (l.bandwidthMbps <= 0.0)
            auditFail(log, "link '", l.name,
                      "' has non-positive bandwidth");
        if (l.latencyS < 0.0)
            auditFail(log, "link '", l.name, "' has negative latency");
    }

    // Topology: parallel vertex arrays, symmetric adjacency over valid
    // links.
    if (vertexInfo.size() != adjacency.size())
        auditFail(log, vertexInfo.size(), " vertex records vs ",
                  adjacency.size(), " adjacency rows");
    std::size_t n = std::min(vertexInfo.size(), adjacency.size());
    for (VertexId v{0}; v.index() < n; ++v) {
        for (const auto &[next, l] : adjacency[v.index()]) {
            if (next.index() >= n) {
                auditFail(log, "vertex ", v, " has bad neighbour ", next);
                continue;
            }
            if (l.index() >= links.size())
                auditFail(log, "edge ", v, "--", next,
                          " uses bad link ", l);
            std::size_t mirror = 0;
            for (const auto &[back, bl] : adjacency[next.index()])
                if (back == v && bl == l)
                    ++mirror;
            if (mirror != 1)
                auditFail(log, "edge ", v, "--", next, " over link ", l,
                          " is mirrored ", mirror, " times instead of 1");
        }
    }
    return log;
}

void
Platform::debugOrphanGroup(GroupId id)
{
    VIVA_ASSERT(id.index() < groups.size() && id != grid(), "bad group ", id);
    auto &siblings = groups[groups[id.index()].parent.index()].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                   siblings.end());
}

} // namespace viva::platform
