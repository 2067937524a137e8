/**
 * @file
 * Implementation of the SVG renderer.
 */

#include "viz/svg.hh"

#include <cmath>
#include <ostream>

#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

namespace obs = support::obs;

namespace
{

using support::formatDouble;

using support::xmlEscape;

/**
 * Emit one glyph centred at (x, y) with the given size. `filled` draws
 * the solid variant (the inner proportional fill), otherwise an outline.
 */
void
emitShape(std::ostream &out, ShapeKind shape, double x, double y,
          double size, const Color &color, bool filled, double opacity)
{
    double h = size / 2.0;
    std::string paint = filled
        ? "fill=\"" + color.hex() + "\" fill-opacity=\"" +
              formatDouble(opacity) + "\" stroke=\"none\""
        : "fill=\"none\" stroke=\"" + color.hex() +
              "\" stroke-width=\"1.2\"";

    switch (shape) {
      case ShapeKind::Square:
        out << "  <rect x=\"" << formatDouble(x - h) << "\" y=\""
            << formatDouble(y - h) << "\" width=\"" << formatDouble(size)
            << "\" height=\"" << formatDouble(size) << "\" " << paint
            << "/>\n";
        break;
      case ShapeKind::Diamond:
        out << "  <polygon points=\"" << formatDouble(x) << ','
            << formatDouble(y - h) << ' ' << formatDouble(x + h) << ','
            << formatDouble(y) << ' ' << formatDouble(x) << ','
            << formatDouble(y + h) << ' ' << formatDouble(x - h) << ','
            << formatDouble(y) << "\" " << paint << "/>\n";
        break;
      case ShapeKind::Circle:
        out << "  <circle cx=\"" << formatDouble(x) << "\" cy=\""
            << formatDouble(y) << "\" r=\"" << formatDouble(h) << "\" "
            << paint << "/>\n";
        break;
    }
}

/** Outline plus area-proportional inner fill. */
void
emitGlyph(std::ostream &out, ShapeKind shape, double x, double y,
          double size, double fill, const Color &color)
{
    if (size <= 0.0)
        return;
    emitShape(out, shape, x, y, size, color, false, 1.0);
    if (fill > 0.0) {
        double inner = size * std::sqrt(std::min(fill, 1.0));
        emitShape(out, shape, x, y, inner, color, true, 0.85);
    }
}

/** A pie of wedges centred at (x, y); fractions sum to <= 1. */
void
emitPie(std::ostream &out, double x, double y, double radius,
        const std::vector<SceneNode::PieSegment> &segments)
{
    if (radius <= 0.0 || segments.empty())
        return;
    constexpr double tau = 6.283185307179586;
    double angle = -tau / 4.0;  // start at 12 o'clock, go clockwise
    for (const auto &segment : segments) {
        double frac = std::clamp(segment.fraction, 0.0, 1.0);
        if (frac <= 0.0)
            continue;
        if (frac >= 0.999) {
            out << "  <circle cx=\"" << formatDouble(x) << "\" cy=\""
                << formatDouble(y) << "\" r=\"" << formatDouble(radius)
                << "\" fill=\"" << segment.color.hex()
                << "\" fill-opacity=\"0.9\"/>\n";
            return;
        }
        double sweep = frac * tau;
        double x1 = x + radius * std::cos(angle);
        double y1 = y + radius * std::sin(angle);
        double x2 = x + radius * std::cos(angle + sweep);
        double y2 = y + radius * std::sin(angle + sweep);
        int large = sweep > tau / 2.0 ? 1 : 0;
        out << "  <path d=\"M " << formatDouble(x) << ' '
            << formatDouble(y) << " L " << formatDouble(x1) << ' '
            << formatDouble(y1) << " A " << formatDouble(radius) << ' '
            << formatDouble(radius) << " 0 " << large << " 1 "
            << formatDouble(x2) << ' ' << formatDouble(y2)
            << " Z\" fill=\"" << segment.color.hex()
            << "\" fill-opacity=\"0.9\" stroke=\"#ffffff\" "
               "stroke-width=\"0.5\"/>\n";
        angle += sweep;
    }
    out << "  <circle cx=\"" << formatDouble(x) << "\" cy=\""
        << formatDouble(y) << "\" r=\"" << formatDouble(radius)
        << "\" fill=\"none\" stroke=\"#666\" stroke-width=\"0.8\"/>\n";
}

/** A dashed ring flagging heterogeneous aggregates. */
void
emitHeterogeneityRing(std::ostream &out, double x, double y,
                      double radius, double heterogeneity)
{
    out << "  <circle cx=\"" << formatDouble(x) << "\" cy=\""
        << formatDouble(y) << "\" r=\"" << formatDouble(radius)
        << "\" fill=\"none\" stroke=\"" << palette::accent.hex()
        << "\" stroke-width=\"1.2\" stroke-dasharray=\"4 3\">"
        << "<title>heterogeneity cv=" << formatDouble(heterogeneity)
        << "</title></circle>\n";
}

} // namespace

void
writeSvg(const Scene &scene, std::ostream &out, const SvgOptions &options)
{
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << formatDouble(scene.width) << "\" height=\""
        << formatDouble(scene.height) << "\" viewBox=\"0 0 "
        << formatDouble(scene.width) << ' ' << formatDouble(scene.height)
        << "\">\n";
    out << "  <rect width=\"100%\" height=\"100%\" fill=\""
        << palette::background.hex() << "\"/>\n";

    if (!options.title.empty()) {
        out << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
               "font-size=\"14\" fill=\"#333\">"
            << xmlEscape(options.title) << "</text>\n";
    }
    out << "  <text x=\"12\" y=\"" << formatDouble(scene.height - 10)
        << "\" font-family=\"sans-serif\" font-size=\"11\" "
           "fill=\"#666\">time slice ["
        << formatDouble(scene.slice.begin) << ", "
        << formatDouble(scene.slice.end) << ")</text>\n";

    if (options.drawEdges) {
        for (const SceneEdge &e : scene.edges) {
            const SceneNode &a = scene.nodes[e.a];
            const SceneNode &b = scene.nodes[e.b];
            out << "  <line x1=\"" << formatDouble(a.x) << "\" y1=\""
                << formatDouble(a.y) << "\" x2=\"" << formatDouble(b.x)
                << "\" y2=\"" << formatDouble(b.y) << "\" stroke=\""
                << palette::edge.hex() << "\" stroke-width=\""
                << formatDouble(e.widthPx) << "\" stroke-opacity=\"0.6\"/>"
                << "\n";
        }
    }

    for (const SceneNode &n : scene.nodes) {
        emitGlyph(out, n.shape, n.x, n.y, n.sizePx, n.fill, n.color);
        if (n.hasSecondary && n.secondarySizePx > 0.0) {
            // The Fig. 3 composite: the link diamond rides the upper
            // right corner of the aggregated square.
            double dx = n.sizePx / 2.0 + n.secondarySizePx / 2.0;
            emitGlyph(out, n.secondaryShape, n.x + dx, n.y,
                      n.secondarySizePx, n.secondaryFill,
                      n.secondaryColor);
        }
        if (!n.segments.empty()) {
            double radius = std::max(n.sizePx * 0.35, 4.0);
            emitPie(out, n.x, n.y, radius, n.segments);
        }
        if (n.heterogeneity > options.heterogeneityThreshold) {
            double radius = std::max(n.sizePx * 0.75, 8.0);
            emitHeterogeneityRing(out, n.x, n.y, radius,
                                  n.heterogeneity);
        }
    }

    if (options.drawLabels) {
        for (const SceneNode &n : scene.nodes) {
            if (options.labelsAggregatedOnly && !n.aggregated)
                continue;
            out << "  <text x=\"" << formatDouble(n.x) << "\" y=\""
                << formatDouble(n.y + n.sizePx / 2.0 +
                                options.fontSize + 2)
                << "\" font-family=\"sans-serif\" font-size=\""
                << formatDouble(options.fontSize)
                << "\" text-anchor=\"middle\" fill=\"#333\">"
                << xmlEscape(n.label) << "</text>\n";
        }
    }

    out << "</svg>\n";
}

support::Expected<void>
writeSvgFile(const Scene &scene, const std::string &path,
             const SvgOptions &options)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("viz.svg.write");
    static const obs::CounterId errors = reg.counter("viz.write.errors");
    obs::ScopedPhase timer(phase);
    support::Expected<void> written = support::writeOutputFile(
        path, "viz.write.stream", errors,
        [&](std::ostream &out) { writeSvg(scene, out, options); });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(), "writeSvgFile");
    return written;
}

} // namespace viva::viz
