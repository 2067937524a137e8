/**
 * @file
 * Implementation of scene composition.
 */

#include "viz/scene.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "agg/states.hh"
#include "support/logging.hh"

namespace viva::viz
{

using trace::ContainerId;
using trace::ContainerKind;
using trace::MetricId;

namespace
{

/** Value of a metric on one view node (by metric id). */
double
metricValue(const agg::View &view, const agg::ViewNode &node, MetricId m)
{
    for (std::size_t k = 0; k < view.requests.size(); ++k)
        if (view.requests[k].metric == m)
            return node.values[k];
    return 0.0;
}

/** Proportional fill: utilization over its capacity, clamped. */
double
fillFraction(const trace::Trace &trace, const agg::View &view,
             const agg::ViewNode &node, MetricId fill_metric,
             MetricId size_metric)
{
    if (fill_metric == trace::kNoMetric)
        return 0.0;
    double used = metricValue(view, node, fill_metric);
    MetricId cap = trace.metric(fill_metric).capacityOf;
    if (cap == trace::kNoMetric)
        cap = size_metric;
    if (cap == trace::kNoMetric)
        return 0.0;
    double capacity = metricValue(view, node, cap);
    if (capacity <= 0.0)
        return 0.0;
    return std::clamp(used / capacity, 0.0, 1.0);
}

} // namespace

Scene
composeScene(const agg::View &view, const trace::Trace &trace,
             const layout::Snapshot &positions,
             const VisualMapping &mapping, TypeScaling &scaling,
             const SceneOptions &options)
{
    scaling.autoScale(view);

    Scene scene;
    scene.width = options.width;
    scene.height = options.height;
    scene.slice = view.slice;

    // Canvas transform: fit the positions into the margin box.
    double lo_x = 1e300, lo_y = 1e300, hi_x = -1e300, hi_y = -1e300;
    bool any = false;
    for (const agg::ViewNode &node : view.nodes) {
        auto it = positions.find(node.id.value());
        if (it == positions.end())
            continue;
        any = true;
        lo_x = std::min(lo_x, it->second.x);
        lo_y = std::min(lo_y, it->second.y);
        hi_x = std::max(hi_x, it->second.x);
        hi_y = std::max(hi_y, it->second.y);
    }
    if (!any) {
        lo_x = lo_y = 0.0;
        hi_x = hi_y = 1.0;
    }
    double span_x = std::max(hi_x - lo_x, 1e-9);
    double span_y = std::max(hi_y - lo_y, 1e-9);
    double usable_w = options.width - 2 * options.margin;
    double usable_h = options.height - 2 * options.margin;
    double scale = std::min(usable_w / span_x, usable_h / span_y);
    double off_x = options.margin + (usable_w - span_x * scale) / 2.0;
    double off_y = options.margin + (usable_h - span_y * scale) / 2.0;

    std::unordered_map<ContainerId, std::size_t> index;

    for (const agg::ViewNode &vnode : view.nodes) {
        auto it = positions.find(vnode.id.value());
        if (it == positions.end()) {
            support::warn("composeScene", "no position for '",
                          trace.fullName(vnode.id), "', skipping");
            continue;
        }

        const trace::Container &c = trace.container(vnode.id);
        SceneNode node;
        node.id = vnode.id;
        node.label = c.name;
        node.aggregated = vnode.aggregated;
        node.leafCount = vnode.leafCount;
        node.x = off_x + (it->second.x - lo_x) * scale;
        node.y = off_y + (it->second.y - lo_y) * scale;

        auto apply = [&](const MappingRule &rule, ShapeKind &shape,
                         double &size, double &fill, Color &color) {
            shape = rule.shape;
            color = rule.color;
            if (rule.sizeMetric != trace::kNoMetric) {
                double v = metricValue(view, vnode, rule.sizeMetric);
                size = scaling.pixelSize(rule.sizeMetric, v);
                if (v > 0.0)
                    size = std::max(size, options.minPixelSize);
            } else {
                size = options.minPixelSize * 3.0;
            }
            fill = fillFraction(trace, view, vnode, rule.fillMetric,
                                rule.sizeMetric);
        };

        if (!vnode.aggregated) {
            std::optional<MappingRule> rule = mapping.rule(c.kind);
            if (!rule) {
                MappingRule fallback;
                fallback.shape = ShapeKind::Circle;
                fallback.color = palette::router;
                rule = fallback;
            }
            apply(*rule, node.shape, node.sizePx, node.fill, node.color);
        } else {
            // Composite aggregate: host rule primary, link rule secondary.
            std::optional<MappingRule> host_rule =
                mapping.rule(ContainerKind::Host);
            std::optional<MappingRule> link_rule =
                mapping.rule(ContainerKind::Link);
            if (host_rule) {
                apply(*host_rule, node.shape, node.sizePx, node.fill,
                      node.color);
            } else {
                MappingRule fallback;
                fallback.shape = ShapeKind::Circle;
                fallback.color = palette::aggregate;
                apply(fallback, node.shape, node.sizePx, node.fill,
                      node.color);
            }
            if (link_rule) {
                node.hasSecondary = true;
                apply(*link_rule, node.secondaryShape,
                      node.secondarySizePx, node.secondaryFill,
                      node.secondaryColor);
            }
        }

        // Pie wedges: state mix first, composition second.
        if (options.statePies) {
            for (const agg::StateShare &share :
                 agg::stateShares(trace, vnode.id, view.slice)) {
                node.segments.push_back({share.fraction,
                                         colorForName(share.state),
                                         share.state});
            }
        }
        if (node.segments.empty() && vnode.aggregated &&
            mapping.composition()) {
            const CompositionRule &comp = *mapping.composition();
            double total = metricValue(view, vnode, comp.total);
            if (total > 0.0) {
                for (std::size_t k = 0; k < comp.parts.size(); ++k) {
                    double part =
                        metricValue(view, vnode, comp.parts[k]);
                    double frac =
                        std::clamp(part / total, 0.0, 1.0);
                    if (frac <= 0.0)
                        continue;
                    node.segments.push_back(
                        {frac, comp.colors[k],
                         trace.metric(comp.parts[k]).name});
                }
            }
        }

        // Heterogeneity indicator from the size metric's distribution
        // (only present when the view was built with statistics).
        if (vnode.aggregated && !vnode.stats.empty()) {
            // Find the size metric's slot among the view's metrics.
            std::optional<MappingRule> host_rule =
                mapping.rule(ContainerKind::Host);
            MetricId size_metric = host_rule
                                       ? host_rule->sizeMetric
                                       : trace::kNoMetric;
            for (std::size_t k = 0; k < view.requests.size(); ++k) {
                if (view.requests[k].metric != size_metric)
                    continue;
                double mean = vnode.leafCount
                                  ? vnode.values[k] /
                                        double(vnode.leafCount)
                                  : 0.0;
                if (mean > 0.0) {
                    node.heterogeneity =
                        std::sqrt(vnode.stats[k].variance) / mean;
                }
                break;
            }
        }

        index.emplace(vnode.id, scene.nodes.size());
        scene.nodes.push_back(std::move(node));
    }

    for (const agg::ViewEdge &edge : view.edges) {
        auto ia = index.find(edge.a);
        auto ib = index.find(edge.b);
        if (ia == index.end() || ib == index.end())
            continue;
        SceneEdge e;
        e.a = ia->second;
        e.b = ib->second;
        e.multiplicity = edge.multiplicity;
        e.widthPx = std::min(1.0 + std::log2(double(edge.multiplicity)),
                             6.0);
        scene.edges.push_back(e);
    }

    return scene;
}

} // namespace viva::viz
