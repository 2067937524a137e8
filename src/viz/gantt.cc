/**
 * @file
 * Implementation of the Gantt chart builder and renderer.
 */

#include "viz/gantt.hh"

#include <algorithm>
#include <map>
#include <ostream>

#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

namespace obs = support::obs;

using support::formatDouble;
using support::xmlEscape;

GanttChart
buildGantt(const trace::Trace &trace, const agg::TimeSlice &window,
           const GanttOptions &options)
{
    GanttChart chart;
    chart.window = window;

    std::map<trace::ContainerId, GanttRow> rows;
    for (const trace::Trace::StateRecord &record : trace.states()) {
        if (!trace.isAncestorOrSelf(options.scope, record.container))
            continue;
        double b = std::max(record.begin, window.begin);
        double e = std::min(record.end, window.end);
        if (b >= e)
            continue;
        GanttRow &row = rows[record.container];
        if (row.id == trace::kNoContainer) {
            row.id = record.container;
            row.label = trace.fullName(record.container);
        }
        row.bars.push_back(
            {b, e, record.state, colorForName(record.state)});
    }

    for (auto &[id, row] : rows) {
        if (options.dropEmptyRows && row.bars.empty())
            continue;
        std::sort(row.bars.begin(), row.bars.end(),
                  [](const GanttBar &a, const GanttBar &b) {
                      return a.begin < b.begin;
                  });
        chart.rows.push_back(std::move(row));
    }
    std::sort(chart.rows.begin(), chart.rows.end(),
              [](const GanttRow &a, const GanttRow &b) {
                  return a.label < b.label;
              });
    if (options.maxRows > 0 && chart.rows.size() > options.maxRows)
        chart.rows.resize(options.maxRows);
    return chart;
}

void
writeGanttSvg(const GanttChart &chart, std::ostream &out,
              const GanttSvgOptions &options)
{
    double header = options.title.empty() ? 24.0 : 40.0;
    double height = header + double(chart.rows.size()) *
                                 options.rowHeight +
                    24.0;
    double plot_w = options.width - options.labelWidth - 16.0;
    double span = std::max(chart.window.length(), 1e-12);

    auto time_to_x = [&](double t) {
        return options.labelWidth +
               (t - chart.window.begin) / span * plot_w;
    };

    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << formatDouble(options.width) << "\" height=\""
        << formatDouble(height) << "\" viewBox=\"0 0 "
        << formatDouble(options.width) << ' ' << formatDouble(height)
        << "\">\n";
    out << "  <rect width=\"100%\" height=\"100%\" fill=\""
        << palette::background.hex() << "\"/>\n";
    if (!options.title.empty()) {
        out << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
               "font-size=\"14\" fill=\"#111\">"
            << xmlEscape(options.title) << "</text>\n";
    }

    for (std::size_t r = 0; r < chart.rows.size(); ++r) {
        const GanttRow &row = chart.rows[r];
        double y = header + double(r) * options.rowHeight;
        out << "  <text x=\"4\" y=\""
            << formatDouble(y + options.rowHeight * 0.7)
            << "\" font-family=\"sans-serif\" font-size=\"9\" "
               "fill=\"#333\">"
            << xmlEscape(row.label) << "</text>\n";
        for (const GanttBar &bar : row.bars) {
            double x1 = time_to_x(bar.begin);
            double x2 = time_to_x(bar.end);
            out << "  <rect x=\"" << formatDouble(x1) << "\" y=\""
                << formatDouble(y + 2) << "\" width=\""
                << formatDouble(std::max(x2 - x1, 0.5))
                << "\" height=\""
                << formatDouble(options.rowHeight - 4) << "\" fill=\""
                << bar.color.hex() << "\" fill-opacity=\"0.9\"><title>"
                << xmlEscape(bar.state) << " ["
                << formatDouble(bar.begin) << ", "
                << formatDouble(bar.end) << ")</title></rect>\n";
        }
    }

    // Time axis.
    double axis_y = header + double(chart.rows.size()) *
                                 options.rowHeight +
                    12.0;
    out << "  <line x1=\"" << formatDouble(options.labelWidth)
        << "\" y1=\"" << formatDouble(axis_y) << "\" x2=\""
        << formatDouble(options.labelWidth + plot_w) << "\" y2=\""
        << formatDouble(axis_y)
        << "\" stroke=\"#333\" stroke-width=\"1\"/>\n";
    for (int tick = 0; tick <= 4; ++tick) {
        double t = chart.window.begin + span * tick / 4.0;
        out << "  <text x=\"" << formatDouble(time_to_x(t)) << "\" y=\""
            << formatDouble(axis_y + 10)
            << "\" font-family=\"sans-serif\" font-size=\"8\" "
               "text-anchor=\"middle\" fill=\"#333\">"
            << formatDouble(t) << "</text>\n";
    }
    out << "</svg>\n";
}

support::Expected<void>
writeGanttSvgFile(const GanttChart &chart, const std::string &path,
                  const GanttSvgOptions &options)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("viz.gantt.write");
    static const obs::CounterId errors = reg.counter("viz.write.errors");
    obs::ScopedPhase timer(phase);
    support::Expected<void> written = support::writeOutputFile(
        path, "viz.write.stream", errors,
        [&](std::ostream &out) { writeGanttSvg(chart, out, options); });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(), "writeGanttSvgFile");
    return written;
}

} // namespace viva::viz
