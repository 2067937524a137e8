/**
 * @file
 * Implementation of the per-type scaling.
 */

#include "viz/scaling.hh"

#include <algorithm>

#include "support/logging.hh"

namespace viva::viz
{

void
TypeScaling::setMaxPixelSize(double px)
{
    VIVA_ASSERT(px > 0, "max pixel size must be positive");
    maxPixel = px;
}

void
TypeScaling::setSlider(trace::MetricId metric, double multiplier)
{
    sliders[metric] = std::clamp(multiplier, 0.05, 20.0);
}

double
TypeScaling::slider(trace::MetricId metric) const
{
    auto it = sliders.find(metric);
    return it == sliders.end() ? 1.0 : it->second;
}

void
TypeScaling::autoScale(const agg::View &view)
{
    maxima.clear();
    for (std::size_t k = 0; k < view.requests.size(); ++k) {
        double best = 0.0;
        for (const agg::ViewNode &node : view.nodes)
            best = std::max(best, node.values[k]);
        maxima[view.requests[k].metric] = best;
    }
}

double
TypeScaling::autoMax(trace::MetricId metric) const
{
    auto it = maxima.find(metric);
    return it == maxima.end() ? 0.0 : it->second;
}

std::vector<std::pair<trace::MetricId, double>>
TypeScaling::touchedSliders() const
{
    std::vector<std::pair<trace::MetricId, double>> out;
    out.reserve(sliders.size());
    // Sorted immediately below, so the unordered walk cannot leak
    // hash order into the serialized checkpoint bytes.
    for (const auto &entry : sliders)  // viva-lint: allow(unordered-iter)
        out.emplace_back(entry.first, entry.second);
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

double
TypeScaling::pixelSize(trace::MetricId metric, double value) const
{
    double max_v = autoMax(metric);
    if (max_v <= 0.0 || value <= 0.0)
        return 0.0;
    double s = slider(metric);
    return std::min(value / max_v, 1.0) * maxPixel * s;
}

} // namespace viva::viz
