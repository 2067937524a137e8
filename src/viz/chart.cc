/**
 * @file
 * Implementation of the line-chart renderer.
 */

#include "viz/chart.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "agg/timeslice.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

using support::formatDouble;
using support::humanize;
using support::xmlEscape;

ChartSeries
sampleSeries(const trace::Trace &trace, trace::ContainerId node,
             trace::MetricId metric, const agg::TimeSlice &period,
             std::size_t samples, agg::SpatialOp op)
{
    VIVA_ASSERT(samples >= 2, "need at least two samples");
    agg::Aggregator agg(trace);

    ChartSeries series;
    series.label = trace.fullName(node);
    if (series.label.empty())
        series.label = "whole platform";
    series.color = colorForName(series.label);
    series.points.reserve(samples);
    for (const agg::TimeSlice &slice :
         agg::uniformSlices(period, samples)) {
        double mid = 0.5 * (slice.begin + slice.end);
        series.points.emplace_back(mid,
                                   agg.value(node, metric, slice, op));
    }
    return series;
}

void
writeChartSvg(const std::vector<ChartSeries> &series, std::ostream &out,
              const ChartOptions &options)
{
    // Plot bounds.
    double x_lo = 1e300, x_hi = -1e300, y_hi = 0.0;
    for (const ChartSeries &s : series) {
        for (const auto &[t, v] : s.points) {
            x_lo = std::min(x_lo, t);
            x_hi = std::max(x_hi, t);
            y_hi = std::max(y_hi, v);
        }
    }
    if (x_lo > x_hi) {
        x_lo = 0.0;
        x_hi = 1.0;
    }
    if (y_hi <= 0.0)
        y_hi = 1.0;
    y_hi *= 1.05;  // headroom

    const double ml = 64, mr = 16, mt = options.title.empty() ? 16 : 36,
                 mb = 34;
    double pw = options.width - ml - mr;
    double ph = options.height - mt - mb;
    auto x_of = [&](double t) {
        return ml + (t - x_lo) / std::max(x_hi - x_lo, 1e-12) * pw;
    };
    auto y_of = [&](double v) { return mt + ph - v / y_hi * ph; };

    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << formatDouble(options.width) << "\" height=\""
        << formatDouble(options.height) << "\" viewBox=\"0 0 "
        << formatDouble(options.width) << ' '
        << formatDouble(options.height) << "\">\n";
    out << "  <rect width=\"100%\" height=\"100%\" fill=\""
        << palette::background.hex() << "\"/>\n";
    if (!options.title.empty()) {
        out << "  <text x=\"" << formatDouble(ml)
            << "\" y=\"22\" font-family=\"sans-serif\" font-size=\"14\" "
               "fill=\"#111\">"
            << xmlEscape(options.title) << "</text>\n";
    }

    // Axes and grid.
    out << "  <line x1=\"" << formatDouble(ml) << "\" y1=\""
        << formatDouble(mt) << "\" x2=\"" << formatDouble(ml)
        << "\" y2=\"" << formatDouble(mt + ph)
        << "\" stroke=\"#333\"/>\n";
    out << "  <line x1=\"" << formatDouble(ml) << "\" y1=\""
        << formatDouble(mt + ph) << "\" x2=\"" << formatDouble(ml + pw)
        << "\" y2=\"" << formatDouble(mt + ph)
        << "\" stroke=\"#333\"/>\n";
    for (int tick = 0; tick <= 4; ++tick) {
        double v = y_hi * tick / 4.0;
        double y = y_of(v);
        out << "  <line x1=\"" << formatDouble(ml) << "\" y1=\""
            << formatDouble(y) << "\" x2=\"" << formatDouble(ml + pw)
            << "\" y2=\"" << formatDouble(y)
            << "\" stroke=\"#ddd\" stroke-width=\"0.6\"/>\n";
        out << "  <text x=\"" << formatDouble(ml - 6) << "\" y=\""
            << formatDouble(y + 3)
            << "\" font-family=\"sans-serif\" font-size=\"9\" "
               "text-anchor=\"end\" fill=\"#333\">"
            << humanize(v) << "</text>\n";
        double t = x_lo + (x_hi - x_lo) * tick / 4.0;
        out << "  <text x=\"" << formatDouble(x_of(t)) << "\" y=\""
            << formatDouble(mt + ph + 14)
            << "\" font-family=\"sans-serif\" font-size=\"9\" "
               "text-anchor=\"middle\" fill=\"#333\">"
            << formatDouble(std::round(t * 100.0) / 100.0)
            << "</text>\n";
    }
    if (!options.yLabel.empty()) {
        out << "  <text x=\"12\" y=\"" << formatDouble(mt - 4)
            << "\" font-family=\"sans-serif\" font-size=\"9\" "
               "fill=\"#333\">"
            << xmlEscape(options.yLabel) << "</text>\n";
    }

    // Series polylines.
    for (const ChartSeries &s : series) {
        if (s.points.empty())
            continue;
        out << "  <polyline fill=\"none\" stroke=\"" << s.color.hex()
            << "\" stroke-width=\"1.6\" points=\"";
        for (const auto &[t, v] : s.points)
            out << formatDouble(x_of(t)) << ',' << formatDouble(y_of(v))
                << ' ';
        out << "\"/>\n";
    }

    // Legend.
    double ly = mt + 8;
    for (const ChartSeries &s : series) {
        out << "  <rect x=\"" << formatDouble(ml + pw - 160) << "\" y=\""
            << formatDouble(ly - 8)
            << "\" width=\"10\" height=\"10\" fill=\"" << s.color.hex()
            << "\"/>\n";
        out << "  <text x=\"" << formatDouble(ml + pw - 146) << "\" y=\""
            << formatDouble(ly + 1)
            << "\" font-family=\"sans-serif\" font-size=\"10\" "
               "fill=\"#333\">"
            << xmlEscape(s.label) << "</text>\n";
        ly += 14;
    }

    out << "</svg>\n";
}

support::Expected<void>
writeChartSvgFile(const std::vector<ChartSeries> &series,
                  const std::string &path, const ChartOptions &options)
{
    static const support::obs::CounterId errors =
        support::obs::Registry::global().counter("viz.write.errors");
    support::Expected<void> written = support::writeOutputFile(
        path, "viz.write.stream", errors,
        [&](std::ostream &out) { writeChartSvg(series, out, options); });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(), "writeChartSvgFile");
    return written;
}

} // namespace viva::viz
