/**
 * @file
 * The dynamic force-directed layout of Sections 3.3 and 4.2: Coulomb
 * repulsion between all nodes (Barnes-Hut approximated), Hooke springs
 * along edges, and a damping factor -- the three analyst-facing sliders
 * (Charge, Spring, Damping). The algorithm keeps iterating as nodes are
 * added, removed or dragged, so the layout evolves smoothly instead of
 * being recomputed from scratch. step() and stabilize() are the one
 * code path with or without a time budget: an optional
 * support::Deadline cancels them cooperatively.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "layout/graph.hh"
#include "layout/quadtree.hh"
#include "support/error.hh"
#include "support/governor.hh"
#include "support/scratch.hh"

namespace viva::layout
{

/** Tunable parameters; defaults give stable layouts on 10..10k nodes. */
struct ForceParams
{
    /**
     * Coulomb constant: repulsion between i and j is
     * charge * q_i * q_j / d^2 (the "Charge" slider).
     */
    double charge = 2000.0;

    /** Hooke stiffness of springs (the "Spring" slider). */
    double spring = 0.08;

    /** Natural spring length in layout units. */
    double restLength = 40.0;

    /**
     * Velocity retained per step, in (0, 1]; lower damps harder and can
     * freeze the layout (the "Damping" slider: "can be used ... to stop
     * it by affecting nodes position").
     */
    double damping = 0.85;

    /** Integration step. */
    double timestep = 0.3;

    /** Cap on per-step displacement, for stability. */
    double maxDisplacement = 50.0;

    /** Barnes-Hut opening angle; 0 forces the exact O(n^2) sum. */
    double theta = 0.8;

    /** Use the Barnes-Hut tree (false: exact pairwise repulsion). */
    bool useBarnesHut = true;

    /**
     * Worker threads for the force-accumulation phase; 0 means
     * hardware_concurrency. Results are bitwise identical for every
     * value: the repulsion pass writes one slot per node and the spring
     * and integration passes stay serial, so the thread count only
     * changes wall-clock time, never positions.
     */
    std::size_t threads = 0;
};

/**
 * Steps a LayoutGraph toward equilibrium. The graph is borrowed and may
 * be mutated between steps (the dynamic part); parameters may be changed
 * at any time (the sliders).
 */
class ForceLayout
{
  public:
    explicit ForceLayout(LayoutGraph &graph,
                         ForceParams params = ForceParams());

    /** Current parameters (mutable: the sliders). */
    ForceParams &params() { return prm; }
    const ForceParams &params() const { return prm; }

    /**
     * Advance one iteration.
     *
     * Cancellable: with a `deadline`, every repulsion chunk and each
     * serial pass boundary polls it, and once it has passed the step
     * aborts with Errc::Deadline *before* the integration commit --
     * positions and velocities are exactly as before the call. Without
     * one the step cannot fail.
     * @param timestep_scale multiplies the configured timestep (the
     *        cooling schedule of stabilize() uses this)
     * @return kinetic energy after the step
     */
    support::Expected<double> step(double timestep_scale = 1.0,
                                   support::Deadline deadline = {});

    /**
     * Iterate until the average kinetic energy per node drops below
     * `energy_per_node` or `max_iters` is reached. A cooling schedule
     * shrinks the timestep whenever the energy stops decreasing, so
     * near-equilibrium oscillation is damped out. A deadline abort
     * propagates the step's error; iterations committed before it
     * remain (Session rolls the node vector back for whole-operation
     * atomicity).
     * @return iterations actually performed
     */
    support::Expected<std::size_t>
    stabilize(std::size_t max_iters = 500, double energy_per_node = 1e-3,
              support::Deadline deadline = {});

    /** Kinetic energy of the system (sum of v^2 per node). */
    double kineticEnergy() const;

    /**
     * Drag a node to a position: the node is pinned there for this and
     * subsequent steps until releaseNode(); its neighbours follow
     * through the springs ("whenever a node is moved by the analyst,
     * all his neighbors seamlessly follow").
     */
    void dragNode(NodeId id, Vec2 position);

    /** Release a dragged node back to the solver. */
    void releaseNode(NodeId id);

    /**
     * Iterations performed since construction, including those a
     * caller later rolled back after a deadline abort.
     */
    std::size_t iterations() const { return iters; }

    /**
     * Nodes quarantined by the non-finite watchdog since construction.
     * step() refuses to commit a NaN/inf update: the node keeps its
     * last finite position, its velocity is zeroed, and this counter
     * advances -- one bad node can never poison the whole layout.
     */
    std::size_t quarantineCount() const { return quarantined; }

  private:
    LayoutGraph &g;
    ForceParams prm;
    std::size_t iters = 0;
    std::size_t quarantined = 0;

    // Per-iteration scratch, reused across steps so a steady-state
    // iteration performs no heap allocation: the quadtree arena, the
    // body list fed to its batch build, the force accumulator, and a
    // pool of traversal stacks (one per in-flight repulsion chunk).
    QuadTree tree;
    std::vector<QuadTree::Body> bodies;
    std::vector<Vec2> forceBuf;
    support::ScratchPool<QuadTree::TraversalStack> stacks;
};

} // namespace viva::layout

