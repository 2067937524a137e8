/**
 * @file
 * Implementation of the force-directed stepper.
 */

#include "layout/force.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "support/fault.hh"
#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/threadpool.hh"

namespace viva::layout
{

namespace obs = support::obs;

ForceLayout::ForceLayout(LayoutGraph &graph, ForceParams params)
    : g(graph), prm(params)
{
}

support::Expected<double>
ForceLayout::step(double timestep_scale, support::Deadline deadline)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId step_phase =
        reg.histogram("layout.force.step");
    static const obs::HistogramId chunk_phase =
        reg.histogram("layout.force.chunk");
    static const obs::CounterId iterations =
        reg.counter("layout.force.iterations");
    static const obs::CounterId quarantine =
        reg.counter("layout.quarantine");
    obs::ScopedPhase step_timer(step_phase);

    const double dt = prm.timestep * timestep_scale;
    std::vector<Node> &nodes = g.mutableNodes();
    // Reused accumulator: assign() keeps the capacity across steps.
    forceBuf.assign(nodes.size(), Vec2{});
    std::vector<Vec2> &force = forceBuf;

    // The repulsion pass writes only force[i] from the chunk owning
    // slot i, so fanning chunks over workers is race-free and bitwise
    // identical to the serial loop regardless of thread count.
    const std::size_t threads =
        prm.threads ? prm.threads : support::defaultThreadCount();
    support::ThreadPool &pool = support::ThreadPool::global();
    // The grain is a pure function of the node count -- NOT the thread
    // count -- so the number of chunks (and therefore the per-chunk
    // histogram's count) is identical however many workers run them.
    const std::size_t grain =
        std::max<std::size_t>(32, nodes.size() / 64);

    // Cooperative cancellation: each chunk polls once on entry and
    // latches the verdict, so an expired deadline costs one clock read
    // total, not one per chunk. Without a deadline no poll reads the
    // clock.
    std::atomic<bool> aborted{false};
    auto expired = [&]() {
        if (!deadline.armed())
            return false;
        if (aborted.load(std::memory_order_relaxed))
            return true;
        if (!deadline.expired())
            return false;
        aborted.store(true, std::memory_order_relaxed);
        return true;
    };
    auto abortError = [&]() {
        support::noteDeadlineAbort();
        return VIVA_ERROR(support::Errc::Deadline, "force step over ",
                          g.nodeCount(),
                          " nodes ran past its deadline");
    };

    // --- repulsion ------------------------------------------------------
    if (prm.useBarnesHut && g.nodeCount() > 1) {
        // Bounding box, padded so the tree never degenerates.
        Vec2 lo{1e300, 1e300}, hi{-1e300, -1e300};
        for (const Node &n : nodes) {
            lo.x = std::min(lo.x, n.position.x);
            lo.y = std::min(lo.y, n.position.y);
            hi.x = std::max(hi.x, n.position.x);
            hi.y = std::max(hi.y, n.position.y);
        }
        double pad = std::max({hi.x - lo.x, hi.y - lo.y, 1.0}) * 0.05;
        // One Morton-sorted batch build into the persistent arena; the
        // arena and the body list keep their capacity across steps.
        bodies.clear();
        for (const Node &n : nodes)
            bodies.push_back({n.position, n.charge});
        tree.build({lo.x - pad, lo.y - pad}, {hi.x + pad, hi.y + pad},
                   bodies);
        pool.parallelFor(
            0, nodes.size(), grain, threads,
            [&](std::size_t clo, std::size_t chi) {
                obs::ScopedPhase chunk_timer(chunk_phase);
                if (expired())
                    return;
                // One pooled traversal stack per chunk: forceAt does
                // zero heap allocation once capacities have warmed up.
                auto stack = stacks.acquire();
                for (std::size_t i = clo; i < chi; ++i) {
                    const Node &n = nodes[i];
                    // forceAt excludes the coincident self charge; the
                    // result is the field, scale by this node's own
                    // charge.
                    Vec2 field =
                        tree.forceAt(n.position, prm.theta, *stack);
                    force[n.id.index()] += field * (prm.charge * n.charge);
                }
            });
    } else {
        pool.parallelFor(
            0, nodes.size(), grain, threads,
            [&](std::size_t clo, std::size_t chi) {
                obs::ScopedPhase chunk_timer(chunk_phase);
                if (expired())
                    return;
                for (std::size_t i = clo; i < chi; ++i) {
                    const Node &a = nodes[i];
                    for (const Node &b : nodes) {
                        if (b.id == a.id)
                            continue;
                        Vec2 d = a.position - b.position;
                        double dist = d.norm();
                        if (dist < 1e-9)
                            continue;
                        force[a.id.index()] +=
                            d * (prm.charge * a.charge * b.charge /
                                 (dist * dist * dist));
                    }
                }
            });
    }

    // --- fault injection --------------------------------------------------
    // Serial and gated on anyArmed() so production runs pay one relaxed
    // atomic load; injected NaNs exercise the integration watchdog below.
    if (support::FaultInjector::global().anyArmed()) {
        for (const Node &n : nodes) {
            if (support::faultAt("layout.force.nan"))
                force[n.id.index()] =
                    Vec2{std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::quiet_NaN()};
        }
    }

    // --- springs ----------------------------------------------------------
    // Pass-boundary cancellation point: the spring pass is serial, so
    // check once before entering it.
    if (expired())
        return abortError();
    for (const Edge &e : g.rawEdges()) {
        Vec2 d = nodes[e.b.index()].position - nodes[e.a.index()].position;
        double dist = d.norm();
        if (dist < 1e-9)
            continue;
        double stretch = dist - prm.restLength;
        Vec2 pull = d * (prm.spring * e.strength * stretch / dist);
        force[e.a.index()] += pull;
        force[e.b.index()] -= pull;
    }

    // --- integration -------------------------------------------------------
    // Last cancellation point before anything commits: up to here only
    // the local `force` vector was written, so an abort leaves every
    // position and velocity exactly as before the call.
    if (expired())
        return abortError();
    // Watchdog: compute each update into locals and only commit finite
    // values. A non-finite update (overflow, corrupt input, injected
    // fault) quarantines the node -- velocity zeroed, last finite
    // position kept -- instead of spreading NaN through the next
    // repulsion pass.
    double energy = 0.0;
    for (Node &n : nodes) {
        if (n.pinned)
            continue;
        Vec2 vel = (n.velocity + force[n.id.index()] * dt) * prm.damping;
        Vec2 move = vel * dt;
        double len = move.norm();
        if (len > prm.maxDisplacement) {
            move = move * (prm.maxDisplacement / len);
            vel = move / dt;
        }
        Vec2 pos = n.position + move;
        if (!std::isfinite(vel.x) || !std::isfinite(vel.y) ||
            !std::isfinite(pos.x) || !std::isfinite(pos.y)) {
            n.velocity = Vec2{0.0, 0.0};
            ++quarantined;
            reg.add(quarantine);
            support::warnLimited(
                "layout.nonfinite", "ForceLayout::step",
                "non-finite update for node ", n.id.index(),
                " quarantined (", quarantined, " so far)");
            continue;
        }
        n.velocity = vel;
        n.position = pos;
        energy += n.velocity.norm2();
    }
    ++iters;
    reg.add(iterations);
    if constexpr (support::validateEnabled())
        support::requireClean(auditFinitePositions(g),
                              "ForceLayout::step: ");
    return energy;
}

support::Expected<std::size_t>
ForceLayout::stabilize(std::size_t max_iters, double energy_per_node,
                       support::Deadline deadline)
{
    std::size_t done = 0;
    std::size_t n = std::max<std::size_t>(g.nodeCount(), 1);
    double cooling = 1.0;
    double prev = std::numeric_limits<double>::infinity();
    while (done < max_iters) {
        support::Expected<double> stepped = step(cooling, deadline);
        if (!stepped) {
            return VIVA_ERROR_CONTEXT(stepped.error(),
                                      "stabilize aborted after ", done,
                                      " committed iterations");
        }
        double energy = *stepped;
        ++done;
        if (energy / double(n) < energy_per_node)
            break;
        // Cool when the energy stops decreasing: kills the residual
        // oscillation a fixed timestep would sustain forever.
        if (energy >= prev * 0.999)
            cooling = std::max(cooling * 0.95, 1e-4);
        prev = energy;
    }
    return done;
}

double
ForceLayout::kineticEnergy() const
{
    double energy = 0.0;
    for (const Node &n : g.rawNodes())
        energy += n.velocity.norm2();
    return energy;
}

void
ForceLayout::dragNode(NodeId id, Vec2 position)
{
    g.setPosition(id, position);
    g.setPinned(id, true);
}

void
ForceLayout::releaseNode(NodeId id)
{
    g.setPinned(id, false);
}

} // namespace viva::layout
