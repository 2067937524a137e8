/**
 * @file
 * Implementation of the NAS DT White Hole workload.
 */

#include "workload/nasdt.hh"

#include <memory>

#include "support/logging.hh"

namespace viva::workload
{

using platform::GroupId;
using platform::GroupKind;
using platform::HostId;
using platform::Platform;

std::size_t
DtParams::processCount() const
{
    VIVA_ASSERT(fanout >= 1, "fanout must be >= 1");
    std::size_t total = 0;
    std::size_t layer = 1;
    for (std::size_t d = 0; d <= depth; ++d) {
        total += layer;
        layer *= fanout;
    }
    return total;
}

std::size_t
DtParams::leafCount() const
{
    std::size_t layer = 1;
    for (std::size_t d = 0; d < depth; ++d)
        layer *= fanout;
    return layer;
}

namespace
{

/** Children of rank r in the BFS numbering of a complete k-ary tree. */
std::vector<std::size_t>
childrenOf(std::size_t rank, std::size_t fanout, std::size_t total)
{
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < fanout; ++c) {
        std::size_t child = rank * fanout + 1 + c;
        if (child < total)
            out.push_back(child);
    }
    return out;
}

/** All ranks of the subtree rooted at `rank`, in BFS order. */
std::vector<std::size_t>
subtreeRanks(std::size_t rank, std::size_t fanout, std::size_t total)
{
    std::vector<std::size_t> out{rank};
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t child : childrenOf(out[i], fanout, total))
            out.push_back(child);
    }
    return out;
}

} // namespace

Deployment
sequentialDeployment(const Platform &platform, const DtParams &params)
{
    VIVA_ASSERT(platform.hostCount() > 0, "platform has no hosts");
    std::size_t total = params.processCount();
    Deployment dep(total);
    for (std::size_t r = 0; r < total; ++r)
        dep[r] = HostId(
            static_cast<std::uint32_t>(r % platform.hostCount()));
    return dep;
}

Deployment
localityDeployment(const Platform &platform, const DtParams &params)
{
    std::size_t total = params.processCount();
    Deployment dep(total, platform::kNoHost);

    // Free host pools per cluster, in host-id order.
    std::vector<GroupId> clusters;
    for (GroupId g{0}; g.index() < platform.groupCount(); ++g)
        if (platform.group(g).kind == GroupKind::Cluster)
            clusters.push_back(g);
    VIVA_ASSERT(!clusters.empty(), "platform has no clusters");

    std::vector<std::vector<HostId>> pool(clusters.size());
    for (std::size_t c = 0; c < clusters.size(); ++c)
        pool[c] = platform.hostsUnder(clusters[c]);

    auto take = [&](std::size_t cluster) -> HostId {
        // Prefer the requested cluster; spill to the fullest other pool.
        std::size_t best = cluster;
        if (pool[best].empty()) {
            std::size_t most = 0;
            for (std::size_t c = 0; c < pool.size(); ++c)
                if (pool[c].size() > most) {
                    most = pool[c].size();
                    best = c;
                }
            VIVA_ASSERT(most > 0, "not enough hosts for the DT tree");
        }
        HostId h = pool[best].front();
        pool[best].erase(pool[best].begin());
        return h;
    };

    // Source goes to the first cluster; each forwarder subtree is packed
    // into one cluster, round-robin, so forwarder->descendant traffic
    // stays inside a cluster.
    dep[0] = take(0);
    std::vector<std::size_t> forwarders =
        childrenOf(0, params.fanout, total);
    for (std::size_t f = 0; f < forwarders.size(); ++f) {
        std::size_t cluster = f % clusters.size();
        for (std::size_t rank :
             subtreeRanks(forwarders[f], params.fanout, total)) {
            dep[rank] = take(cluster);
        }
    }
    return dep;
}

namespace
{

/** Shared mutable state threaded through the callback graph. */
struct DtState
{
    DtParams params;
    Deployment dep;
    sim::SimulationRun *run = nullptr;
    sim::TagId tag = sim::kDefaultTag;
    std::size_t total = 0;
    std::size_t cyclesStarted = 0;
    std::size_t leavesDone = 0;
    std::size_t messages = 0;
    /** Per-rank containers (empty unless createProcessContainers). */
    std::vector<trace::ContainerId> rankContainer;
};

void onReceive(const std::shared_ptr<DtState> &st, std::size_t rank);

void
startCycle(const std::shared_ptr<DtState> &st)
{
    if (st->cyclesStarted == st->params.cycles)
        return;
    ++st->cyclesStarted;

    auto arrivals = std::make_shared<std::size_t>(0);
    std::vector<std::size_t> kids =
        childrenOf(0, st->params.fanout, st->total);
    std::size_t expected = kids.size();
    for (std::size_t child : kids) {
        ++st->messages;
        st->run->engine.startComm(
            st->dep[0], st->dep[child], st->params.messageMbits,
            [st, child, arrivals, expected] {
                onReceive(st, child);
                if (++*arrivals == expected)
                    startCycle(st);  // pipeline the next cycle
            },
            st->tag);
    }
}

void
onReceive(const std::shared_ptr<DtState> &st, std::size_t rank)
{
    double began = st->run->engine.now();
    st->run->engine.startCompute(
        st->dep[rank], st->params.computeMflop,
        [st, rank, began] {
            if (st->params.recordStates) {
                bool leaf = childrenOf(rank, st->params.fanout,
                                       st->total).empty();
                trace::ContainerId where =
                    st->rankContainer.empty()
                        ? st->run->mirror.hostContainer[st->dep[rank].index()]
                        : st->rankContainer[rank];
                st->run->trace.addState(where, began,
                                        st->run->engine.now(),
                                        leaf ? "consume" : "forward");
            }
            std::vector<std::size_t> kids =
                childrenOf(rank, st->params.fanout, st->total);
            if (kids.empty()) {
                ++st->leavesDone;
                return;
            }
            for (std::size_t child : kids) {
                ++st->messages;
                st->run->engine.startComm(
                    st->dep[rank], st->dep[child],
                    st->params.messageMbits,
                    [st, child] { onReceive(st, child); }, st->tag);
            }
        },
        st->tag);
}

} // namespace

DtResult
runNasDtWhiteHole(sim::SimulationRun &run, const DtParams &params,
                  const Deployment &deployment, sim::TagId tag)
{
    std::size_t total = params.processCount();
    VIVA_ASSERT(deployment.size() == total, "deployment has ",
                deployment.size(), " entries, tree needs ", total);
    VIVA_ASSERT(params.cycles > 0, "need at least one cycle");

    auto st = std::make_shared<DtState>();
    st->params = params;
    st->dep = deployment;
    st->run = &run;
    st->tag = tag;
    st->total = total;

    if (params.createProcessContainers) {
        st->rankContainer.resize(total);
        for (std::size_t r = 0; r < total; ++r) {
            st->rankContainer[r] = run.trace.addContainer(
                "rank-" + std::to_string(r),
                trace::ContainerKind::Process,
                run.mirror.hostContainer[deployment[r].index()]);
        }
    }

    startCycle(st);
    run.engine.run();

    VIVA_ASSERT(st->leavesDone == params.leafCount() * params.cycles,
                "DT run ended early: ", st->leavesDone, " leaf events");

    DtResult result;
    result.makespanS = run.engine.now();
    result.processes = total;
    result.messages = st->messages;
    return result;
}

} // namespace viva::workload
