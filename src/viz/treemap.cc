/**
 * @file
 * Squarified treemap layout (Bruls, Huizing, van Wijk) and its SVG
 * rendering.
 */

#include "viz/treemap.hh"

#include <algorithm>
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

struct Rect
{
    double x, y, w, h;

    double shortSide() const { return std::min(w, h); }
};

/** An item to place: a container and its (positive) weight. */
struct Item
{
    trace::ContainerId id;
    double value;
};

/** Worst aspect ratio of a row of areas laid along `side`. */
double
worstAspect(const std::vector<double> &areas, double side)
{
    double total = 0.0, lo = 1e300, hi = 0.0;
    for (double a : areas) {
        total += a;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
    }
    if (total <= 0.0 || side <= 0.0)
        return 1e300;
    double s2 = side * side;
    return std::max(s2 * hi / (total * total),
                    total * total / (s2 * lo));
}

/** Lay a finished row along the short side of `rect`; shrink `rect`. */
void
placeRow(const std::vector<Item> &row, double row_area_sum, Rect &rect,
         std::vector<Rect> &out)
{
    bool horizontal = rect.w >= rect.h;  // row stacks along the height
    double side = horizontal ? rect.h : rect.w;
    double thickness = side > 0 ? row_area_sum / side : 0.0;

    double offset = 0.0;
    for (const Item &item : row) {
        double extent = thickness > 0 ? item.value / thickness : 0.0;
        if (horizontal) {
            out.push_back({rect.x, rect.y + offset, thickness, extent});
        } else {
            out.push_back({rect.x + offset, rect.y, extent, thickness});
        }
        offset += extent;
    }
    if (horizontal) {
        rect.x += thickness;
        rect.w -= thickness;
    } else {
        rect.y += thickness;
        rect.h -= thickness;
    }
}

/**
 * Squarified layout of items (values already scaled to areas; caller
 * sorts by descending value). Returns one rect per item, same order.
 */
std::vector<Rect>
squarify(const std::vector<Item> &items, Rect rect)
{
    std::vector<Rect> out;
    std::vector<Item> row;
    std::vector<double> row_areas;
    double row_sum = 0.0;

    for (const Item &item : items) {
        std::vector<double> candidate = row_areas;
        candidate.push_back(item.value);
        double side = rect.shortSide();
        if (row.empty() ||
            worstAspect(candidate, side) <=
                worstAspect(row_areas, side)) {
            row.push_back(item);
            row_areas.push_back(item.value);
            row_sum += item.value;
        } else {
            placeRow(row, row_sum, rect, out);
            row.assign(1, item);
            row_areas.assign(1, item.value);
            row_sum = item.value;
        }
    }
    if (!row.empty())
        placeRow(row, row_sum, rect, out);
    return out;
}

Color
cellColor(trace::ContainerKind kind)
{
    switch (kind) {
      case trace::ContainerKind::Host: return palette::host;
      case trace::ContainerKind::Link: return palette::link;
      case trace::ContainerKind::Router: return palette::router;
      default: return palette::aggregate;
    }
}

} // namespace

Treemap
buildTreemap(const trace::Trace &trace, trace::MetricId metric,
             const agg::TimeSlice &slice, const TreemapOptions &options)
{
    VIVA_ASSERT(options.width > 0 && options.height > 0,
                "degenerate treemap canvas");

    Treemap result;
    result.width = options.width;
    result.height = options.height;
    result.slice = slice;

    agg::Aggregator agg(trace);

    // Recursive subdivision, breadth via explicit work list.
    struct Work
    {
        trace::ContainerId id;
        Rect rect;
    };
    std::vector<Work> work{{trace.root(),
                            {0.0, 0.0, options.width, options.height}}};

    while (!work.empty()) {
        Work cur = work.back();
        work.pop_back();

        const trace::Container &container = trace.container(cur.id);
        bool depth_cut = options.maxDepth > 0 &&
                         container.depth >= options.maxDepth;

        // Emit this container's own cell (skip the invisible root).
        if (cur.id != trace.root()) {
            TreemapCell cell;
            cell.id = cur.id;
            cell.label = container.name;
            cell.x = cur.rect.x;
            cell.y = cur.rect.y;
            cell.width = cur.rect.w;
            cell.height = cur.rect.h;
            cell.depth = container.depth;
            cell.value = agg.value(cur.id, metric, slice);
            cell.leaf = container.leaf() || depth_cut;
            cell.color = cellColor(container.kind);
            result.cells.push_back(std::move(cell));
        }
        if (container.leaf() || depth_cut)
            continue;

        // Children with positive subtree value.
        std::vector<Item> items;
        double total = 0.0;
        for (trace::ContainerId child : container.children) {
            double v = agg.value(child, metric, slice);
            if (v > 0.0) {
                items.push_back({child, v});
                total += v;
            }
        }
        if (items.empty() || total <= 0.0)
            continue;

        // Inner rectangle after padding.
        double pad = cur.id == trace.root() ? 0.0 : options.padding;
        Rect inner{cur.rect.x + pad, cur.rect.y + pad,
                   std::max(cur.rect.w - 2 * pad, 0.0),
                   std::max(cur.rect.h - 2 * pad, 0.0)};
        double inner_area = inner.w * inner.h;
        if (inner_area <= 0.0)
            continue;

        // Scale values to areas and lay out largest-first.
        for (Item &item : items)
            item.value *= inner_area / total;
        std::sort(items.begin(), items.end(),
                  [](const Item &a, const Item &b) {
                      return a.value > b.value;
                  });

        std::vector<Rect> rects = squarify(items, inner);
        for (std::size_t i = 0; i < items.size(); ++i)
            work.push_back({items[i].id, rects[i]});
    }

    return result;
}

void
writeTreemapSvg(const Treemap &treemap, std::ostream &out,
                const std::string &title)
{
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << formatDouble(treemap.width) << "\" height=\""
        << formatDouble(treemap.height) << "\" viewBox=\"0 0 "
        << formatDouble(treemap.width) << ' '
        << formatDouble(treemap.height) << "\">\n";
    out << "  <rect width=\"100%\" height=\"100%\" fill=\""
        << palette::background.hex() << "\"/>\n";

    for (const TreemapCell &cell : treemap.cells) {
        if (cell.leaf) {
            out << "  <rect x=\"" << formatDouble(cell.x) << "\" y=\""
                << formatDouble(cell.y) << "\" width=\""
                << formatDouble(cell.width) << "\" height=\""
                << formatDouble(cell.height) << "\" fill=\""
                << cell.color.hex()
                << "\" fill-opacity=\"0.8\" stroke=\"#ffffff\" "
                   "stroke-width=\"0.6\"><title>"
                << support::xmlEscape(cell.label) << " = " << formatDouble(cell.value)
                << "</title></rect>\n";
        } else {
            out << "  <rect x=\"" << formatDouble(cell.x) << "\" y=\""
                << formatDouble(cell.y) << "\" width=\""
                << formatDouble(cell.width) << "\" height=\""
                << formatDouble(cell.height)
                << "\" fill=\"none\" stroke=\"#333333\" "
                   "stroke-width=\"1.2\"/>\n";
            if (cell.width > 60 && cell.height > 16) {
                out << "  <text x=\"" << formatDouble(cell.x + 3)
                    << "\" y=\"" << formatDouble(cell.y + 12)
                    << "\" font-family=\"sans-serif\" font-size=\"10\" "
                       "fill=\"#333\">"
                    << support::xmlEscape(cell.label) << "</text>\n";
            }
        }
    }

    if (!title.empty()) {
        out << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
               "font-size=\"14\" fill=\"#111\">"
            << support::xmlEscape(title) << "</text>\n";
    }
    out << "</svg>\n";
}

support::Expected<void>
writeTreemapSvgFile(const Treemap &treemap, const std::string &path,
                    const std::string &title)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("viz.treemap.write");
    static const obs::CounterId errors = reg.counter("viz.write.errors");
    obs::ScopedPhase timer(phase);
    support::Expected<void> written = support::writeOutputFile(
        path, "viz.write.stream", errors,
        [&](std::ostream &out) { writeTreemapSvg(treemap, out, title); });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(), "writeTreemapSvgFile");
    return written;
}

} // namespace viva::viz
