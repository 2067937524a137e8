/**
 * @file
 * Implementation of the visual mapping.
 */

#include "viz/mapping.hh"

#include <algorithm>

#include "support/logging.hh"

namespace viva::viz
{

std::string
Color::hex() const
{
    std::string out;
    appendHex(out);
    return out;
}

void
Color::appendHex(std::string &out) const
{
    static constexpr char digits[] = "0123456789abcdef";
    out += '#';
    for (std::uint8_t channel : {r, g, b}) {
        out += digits[channel >> 4];
        out += digits[channel & 0xf];
    }
}

namespace palette
{

Color
categorical(std::size_t index)
{
    // A colorblind-friendlier 8-color cycle (Okabe-Ito inspired).
    static constexpr Color series[] = {
        {0, 114, 178},   {230, 159, 0},  {0, 158, 115},  {204, 121, 167},
        {86, 180, 233},  {213, 94, 0},   {240, 228, 66}, {100, 100, 100},
    };
    return series[index % (sizeof(series) / sizeof(series[0]))];
}

} // namespace palette

Color
colorForName(const std::string &name)
{
    // FNV-1a, folded into the categorical cycle so equal names always
    // get equal colors across views.
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : name) {
        h ^= std::uint8_t(c);
        h *= 1099511628211ULL;
    }
    return palette::categorical(std::size_t(h % 8));
}

void
VisualMapping::setRule(trace::ContainerKind kind, const MappingRule &rule)
{
    std::size_t k = static_cast<std::size_t>(kind);
    VIVA_ASSERT(k < kKinds, "bad container kind");
    rules[k] = rule;
}

std::optional<MappingRule>
VisualMapping::rule(trace::ContainerKind kind) const
{
    std::size_t k = static_cast<std::size_t>(kind);
    VIVA_ASSERT(k < kKinds, "bad container kind");
    return rules[k];
}

VisualMapping
VisualMapping::defaults(const trace::Trace &trace)
{
    VisualMapping m;

    trace::MetricId power = trace.findMetric("power");
    trace::MetricId power_used = trace.findMetric("power_used");
    trace::MetricId bw = trace.findMetric("bandwidth");
    trace::MetricId bw_used = trace.findMetric("bandwidth_used");

    if (power != trace::kNoMetric) {
        MappingRule host;
        host.shape = ShapeKind::Square;
        host.sizeMetric = power;
        host.fillMetric = power_used;
        host.color = palette::host;
        m.setRule(trace::ContainerKind::Host, host);
    }
    if (bw != trace::kNoMetric) {
        MappingRule link;
        link.shape = ShapeKind::Diamond;
        link.sizeMetric = bw;
        link.fillMetric = bw_used;
        link.color = palette::link;
        m.setRule(trace::ContainerKind::Link, link);
    }

    MappingRule router;
    router.shape = ShapeKind::Circle;
    router.color = palette::router;
    m.setRule(trace::ContainerKind::Router, router);

    return m;
}

std::vector<trace::MetricId>
VisualMapping::referencedMetrics() const
{
    std::vector<trace::MetricId> out;
    auto push = [&](trace::MetricId m) {
        if (m != trace::kNoMetric &&
            std::find(out.begin(), out.end(), m) == out.end())
            out.push_back(m);
    };
    for (const auto &r : rules) {
        if (!r)
            continue;
        push(r->sizeMetric);
        push(r->fillMetric);
    }
    if (compositionRule) {
        for (trace::MetricId m : compositionRule->parts)
            push(m);
        push(compositionRule->total);
    }
    return out;
}

void
VisualMapping::setComposition(const CompositionRule &rule)
{
    VIVA_ASSERT(!rule.parts.empty(), "composition needs parts");
    VIVA_ASSERT(rule.total != trace::kNoMetric,
                "composition needs a total metric");
    VIVA_ASSERT(rule.colors.empty() ||
                    rule.colors.size() == rule.parts.size(),
                "composition colors must match parts");
    compositionRule = rule;
    if (compositionRule->colors.empty()) {
        for (std::size_t i = 0; i < rule.parts.size(); ++i)
            compositionRule->colors.push_back(palette::categorical(i));
    }
}

void
VisualMapping::clearComposition()
{
    compositionRule.reset();
}

} // namespace viva::viz
