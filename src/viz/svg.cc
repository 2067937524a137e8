/**
 * @file
 * Implementation of the SVG renderer.
 */

#include "viz/svg.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string_view>

#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

namespace obs = support::obs;

namespace
{

/**
 * The document under construction: elements are appended to one
 * buffer and handed to the stream in chunks of about kChunk bytes, so
 * a frame costs no per-number or per-attribute string and the
 * document is never held twice (a 20k-node frame is several MB).
 * Doubles are written in their shortest round-trip form
 * (support::appendDouble), colours as "#rrggbb".
 */
class SvgWriter
{
  public:
    explicit SvgWriter(std::ostream &sink) : out(sink)
    {
        buf.reserve(kChunk + 1024);
    }

    SvgWriter &
    operator<<(std::string_view text)
    {
        buf += text;
        return *this;
    }

    SvgWriter &
    operator<<(char c)
    {
        buf += c;
        return *this;
    }

    SvgWriter &
    operator<<(double value)
    {
        support::appendDouble(buf, value);
        return *this;
    }

    SvgWriter &
    operator<<(const Color &color)
    {
        color.appendHex(buf);
        return *this;
    }

    /** Text content or an attribute value, XML-escaped. */
    void
    escaped(std::string_view text)
    {
        buf += support::xmlEscape(text);
    }

    /** End an element's line; hand a full chunk to the stream. */
    void
    endLine()
    {
        buf += '\n';
        if (buf.size() >= kChunk)
            flush();
    }

    void
    flush()
    {
        out.write(buf.data(), std::streamsize(buf.size()));
        buf.clear();
    }

  private:
    static constexpr std::size_t kChunk = 64 * 1024;

    std::ostream &out;
    std::string buf;
};

/**
 * Emit one glyph centred at (x, y) with the given size. `filled` draws
 * the solid variant (the inner proportional fill), otherwise an outline.
 */
void
emitShape(SvgWriter &w, ShapeKind shape, double x, double y, double size,
          const Color &color, bool filled, double opacity)
{
    double h = size / 2.0;
    switch (shape) {
      case ShapeKind::Square:
        w << "  <rect x=\"" << x - h << "\" y=\"" << y - h
          << "\" width=\"" << size << "\" height=\"" << size << "\" ";
        break;
      case ShapeKind::Diamond:
        w << "  <polygon points=\"" << x << ',' << y - h << ' ' << x + h
          << ',' << y << ' ' << x << ',' << y + h << ' ' << x - h << ','
          << y << "\" ";
        break;
      case ShapeKind::Circle:
        w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << h
          << "\" ";
        break;
    }
    if (filled)
        w << "fill=\"" << color << "\" fill-opacity=\"" << opacity
          << "\" stroke=\"none\"/>";
    else
        w << "fill=\"none\" stroke=\"" << color
          << "\" stroke-width=\"1.2\"/>";
    w.endLine();
}

/** Outline plus area-proportional inner fill. */
void
emitGlyph(SvgWriter &w, ShapeKind shape, double x, double y, double size,
          double fill, const Color &color)
{
    if (size <= 0.0)
        return;
    emitShape(w, shape, x, y, size, color, false, 1.0);
    if (fill > 0.0) {
        double inner = size * std::sqrt(std::min(fill, 1.0));
        emitShape(w, shape, x, y, inner, color, true, 0.85);
    }
}

/** A pie of wedges centred at (x, y); fractions sum to <= 1. */
void
emitPie(SvgWriter &w, double x, double y, double radius,
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
            w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\""
              << radius << "\" fill=\"" << segment.color
              << "\" fill-opacity=\"0.9\"/>";
            w.endLine();
            return;
        }
        double sweep = frac * tau;
        double x1 = x + radius * std::cos(angle);
        double y1 = y + radius * std::sin(angle);
        double x2 = x + radius * std::cos(angle + sweep);
        double y2 = y + radius * std::sin(angle + sweep);
        char large = sweep > tau / 2.0 ? '1' : '0';
        w << "  <path d=\"M " << x << ' ' << y << " L " << x1 << ' ' << y1
          << " A " << radius << ' ' << radius << " 0 " << large << " 1 "
          << x2 << ' ' << y2 << " Z\" fill=\"" << segment.color
          << "\" fill-opacity=\"0.9\" stroke=\"#ffffff\" "
             "stroke-width=\"0.5\"/>";
        w.endLine();
        angle += sweep;
    }
    w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << radius
      << "\" fill=\"none\" stroke=\"#666\" stroke-width=\"0.8\"/>";
    w.endLine();
}

/** A dashed ring flagging heterogeneous aggregates. */
void
emitHeterogeneityRing(SvgWriter &w, double x, double y, double radius,
                      double heterogeneity)
{
    w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << radius
      << "\" fill=\"none\" stroke=\"" << palette::accent
      << "\" stroke-width=\"1.2\" stroke-dasharray=\"4 3\">"
      << "<title>heterogeneity cv=" << heterogeneity << "</title></circle>";
    w.endLine();
}

} // namespace

void
writeSvg(const Scene &scene, std::ostream &out, const SvgOptions &options)
{
    SvgWriter w(out);
    w << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << scene.width << "\" height=\"" << scene.height
      << "\" viewBox=\"0 0 " << scene.width << ' ' << scene.height << "\">";
    w.endLine();
    w << "  <rect width=\"100%\" height=\"100%\" fill=\""
      << palette::background << "\"/>";
    w.endLine();

    if (!options.title.empty()) {
        w << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
             "font-size=\"14\" fill=\"#333\">";
        w.escaped(options.title);
        w << "</text>";
        w.endLine();
    }
    w << "  <text x=\"12\" y=\"" << scene.height - 10
      << "\" font-family=\"sans-serif\" font-size=\"11\" "
         "fill=\"#666\">time slice ["
      << scene.slice.begin << ", " << scene.slice.end << ")</text>";
    w.endLine();

    if (options.drawEdges) {
        for (const SceneEdge &e : scene.edges) {
            const SceneNode &a = scene.nodes[e.a];
            const SceneNode &b = scene.nodes[e.b];
            w << "  <line x1=\"" << a.x << "\" y1=\"" << a.y << "\" x2=\""
              << b.x << "\" y2=\"" << b.y << "\" stroke=\"" << palette::edge
              << "\" stroke-width=\"" << e.widthPx
              << "\" stroke-opacity=\"0.6\"/>";
            w.endLine();
        }
    }

    for (const SceneNode &n : scene.nodes) {
        emitGlyph(w, n.shape, n.x, n.y, n.sizePx, n.fill, n.color);
        if (n.hasSecondary && n.secondarySizePx > 0.0) {
            // The Fig. 3 composite: the link diamond rides the upper
            // right corner of the aggregated square.
            double dx = n.sizePx / 2.0 + n.secondarySizePx / 2.0;
            emitGlyph(w, n.secondaryShape, n.x + dx, n.y,
                      n.secondarySizePx, n.secondaryFill,
                      n.secondaryColor);
        }
        if (!n.segments.empty()) {
            double radius = std::max(n.sizePx * 0.35, 4.0);
            emitPie(w, n.x, n.y, radius, n.segments);
        }
        if (n.heterogeneity > options.heterogeneityThreshold) {
            double radius = std::max(n.sizePx * 0.75, 8.0);
            emitHeterogeneityRing(w, n.x, n.y, radius, n.heterogeneity);
        }
    }

    if (options.drawLabels) {
        for (const SceneNode &n : scene.nodes) {
            if (options.labelsAggregatedOnly && !n.aggregated)
                continue;
            w << "  <text x=\"" << n.x << "\" y=\""
              << n.y + n.sizePx / 2.0 + options.fontSize + 2
              << "\" font-family=\"sans-serif\" font-size=\""
              << options.fontSize
              << "\" text-anchor=\"middle\" fill=\"#333\">";
            w.escaped(n.label);
            w << "</text>";
            w.endLine();
        }
    }

    w << "</svg>";
    w.endLine();
    w.flush();
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
