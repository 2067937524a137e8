/**
 * @file
 * The smooth-layout claim (Section 3.3, Fig. 8 caption): when the
 * analyst aggregates or disaggregates groups of nodes, the dynamic
 * force-directed layout evolves instead of being recomputed, so the
 * surviving nodes barely move and the analyst stays oriented.
 *
 * Measures, on the mirrored Grid'5000 topology, the mean and maximum
 * displacement of surviving nodes (relative to the layout extent)
 * across every scale transition of the Fig. 8 walk, plus the number of
 * iterations the layout needs to settle again. A from-scratch baseline
 * (fresh random ring placement, as a static layout engine would do)
 * puts the numbers in context.
 */

#include <cmath>
#include <cstdio>

#include "app/session.hh"
#include "layout/metrics.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"

namespace
{

viva::app::Session
makeSession()
{
    viva::platform::Platform grid = viva::platform::makeGrid5000();
    viva::trace::Trace t;
    viva::platform::mirrorPlatform(grid, t);
    return viva::app::Session(std::move(t));
}

} // namespace

int
main()
{
    std::printf("=== layout_stability: smoothness across scale changes "
                "===\n");
    viva::app::Session session = makeSession();

    // Start the analysis at host level (2170 hosts + links), settled.
    session.stabilizeLayout(300).value();

    struct Step { const char *label; int depth; } steps[] = {
        {"host -> cluster", 3},
        {"cluster -> site", 2},
        {"site -> cluster", 3},
        {"cluster -> host", -1},
    };

    std::printf("%-18s %10s %12s %12s %10s\n", "transition", "shared",
                "mean disp%", "max disp%", "iters");
    bool all_smooth = true;
    for (const auto &step : steps) {
        double extent = std::sqrt(
            viva::layout::boundingBoxArea(session.layoutGraph()));
        auto before =
            viva::layout::snapshotPositions(session.layoutGraph());

        if (step.depth < 0)
            session.resetAggregation();
        else
            session.aggregateToDepth(std::uint16_t(step.depth));
        std::size_t iters = session.stabilizeLayout(600).value();

        auto after =
            viva::layout::snapshotPositions(session.layoutGraph());
        auto disp = viva::layout::displacement(before, after);
        double mean_pct = 100.0 * disp.mean() / extent;
        double max_pct = 100.0 * disp.max() / extent;
        std::printf("%-18s %10zu %11.1f%% %11.1f%% %10zu\n", step.label,
                    disp.count(), mean_pct, max_pct, iters);
        if (disp.count() > 0 && mean_pct > 60.0)
            all_smooth = false;
    }

    // Baseline: what a static engine would do -- relayout from scratch.
    {
        viva::app::Session fresh = makeSession();
        fresh.aggregateToDepth(3);
        fresh.stabilizeLayout(800).value();
        auto before =
            viva::layout::snapshotPositions(fresh.layoutGraph());
        double extent = std::sqrt(
            viva::layout::boundingBoxArea(fresh.layoutGraph()));

        // Scatter everything (a fresh static layout ignores history).
        viva::support::Rng rng(7);
        for (const viva::layout::Node &n :
             fresh.layoutGraph().rawNodes()) {
            fresh.mutableLayoutGraph().setPosition(
                n.id, {rng.uniform(-extent, extent),
                       rng.uniform(-extent, extent)});
        }
        fresh.stabilizeLayout(600).value();
        auto after =
            viva::layout::snapshotPositions(fresh.layoutGraph());
        auto disp = viva::layout::displacement(before, after);
        std::printf("%-18s %10zu %11.1f%% %11.1f%% %10s\n",
                    "static relayout", disp.count(),
                    100.0 * disp.mean() / extent,
                    100.0 * disp.max() / extent, "-");
    }

    std::printf("=> shape check [%s]: scale transitions keep mean "
                "displacement well below the layout extent\n",
                all_smooth ? "OK" : "FAILED");
    return 0;
}
