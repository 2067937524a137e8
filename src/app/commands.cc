/**
 * @file
 * Implementation of the command interpreter.
 */

#include "app/commands.hh"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::app
{

using support::parseDouble;
using support::parseSize;
using support::splitWhitespace;
using support::trim;

bool
CommandInterpreter::execute(const std::string &line, std::ostream &out)
{
    std::string stripped = trim(line);
    bool counted = !stripped.empty() && stripped[0] != '#';
    const std::size_t every_before = autoCkptEvery;
    const std::string path_before = autoCkptPath;
    bool ok = executeOne(line, out);
    // Auto-checkpoint hook: blank lines, comments and the arming
    // command itself do not count, and a failed background checkpoint
    // warns without failing the command that triggered it.
    if (autoCkptEvery != every_before || autoCkptPath != path_before)
        counted = false;
    if (ok && counted && autoCkptEvery > 0 &&
        ++cmdsSinceCkpt >= autoCkptEvery) {
        cmdsSinceCkpt = 0;
        support::Expected<void> saved = sess.checkpoint(autoCkptPath);
        if (!saved)
            out << "warning: auto-checkpoint failed: "
                << saved.error().toString() << "\n";
    }
    return ok;
}

bool
CommandInterpreter::executeOne(const std::string &line, std::ostream &out)
{
    std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#')
        return true;

    std::vector<std::string> args = splitWhitespace(stripped);
    const std::string &cmd = args[0];
    auto argc = args.size() - 1;

    auto need = [&](std::size_t n) {
        if (argc >= n)
            return true;
        out << "error: '" << cmd << "' needs " << n << " argument(s)\n";
        return false;
    };
    auto number = [&](std::size_t i, double &v) {
        if (parseDouble(args[i], v))
            return true;
        out << "error: '" << args[i] << "' is not a number\n";
        return false;
    };
    // Every number a command hands the session must be finite: the
    // session would take a NaN slider or coordinate, but a checkpoint
    // holding one is refused by restore.
    auto num = [&](std::size_t i, double &v) {
        if (!number(i, v))
            return false;
        if (std::isfinite(v))
            return true;
        out << "error: '" << args[i] << "' is not a finite number\n";
        return false;
    };
    auto count = [&](std::size_t i, std::size_t &v) {
        if (parseSize(args[i], v))
            return true;
        out << "error: '" << args[i] << "' is not a count\n";
        return false;
    };

    if (cmd == "slice") {
        double b, e;
        if (!need(2) || !number(1, b) || !number(2, e))
            return false;
        if (!std::isfinite(b) || !std::isfinite(e)) {
            out << "error: slice bounds must be finite\n";
            return false;
        }
        if (b > e) {
            out << "error: reversed slice\n";
            return false;
        }
        sess.setTimeSlice({b, e});
        out << "slice [" << b << ", " << e << ")\n";
        return true;
    }
    if (cmd == "slice-of") {
        std::size_t i, n;
        if (!need(2) || !count(1, i) || !count(2, n))
            return false;
        if (n == 0 || i >= n || n > agg::kMaxSliceCount) {
            out << "error: slice-of " << i << " " << n << " is invalid\n";
            return false;
        }
        sess.setSliceOf(agg::SliceIndex::fromIndex(i), n);
        out << "slice [" << sess.timeSlice().begin << ", "
            << sess.timeSlice().end << ")\n";
        return true;
    }
    if (cmd == "aggregate") {
        if (!need(1))
            return false;
        if (!sess.aggregate(args[1])) {
            out << "error: unknown container '" << args[1] << "'\n";
            return false;
        }
        out << "aggregated " << args[1] << " ("
            << sess.projection().size() << " visible nodes)\n";
        return true;
    }
    if (cmd == "disaggregate") {
        if (!need(1))
            return false;
        if (!sess.disaggregate(args[1])) {
            out << "error: unknown container '" << args[1] << "'\n";
            return false;
        }
        out << "disaggregated " << args[1] << " ("
            << sess.projection().size() << " visible nodes)\n";
        return true;
    }
    if (cmd == "focus") {
        if (!need(1))
            return false;
        if (!sess.focus(args[1])) {
            out << "error: unknown container '" << args[1] << "'\n";
            return false;
        }
        out << "focused on " << args[1] << " ("
            << sess.projection().size() << " visible nodes)\n";
        return true;
    }
    if (cmd == "depth") {
        std::size_t d;
        if (!need(1) || !count(1, d))
            return false;
        if (d > std::numeric_limits<std::uint16_t>::max()) {
            out << "error: depth " << d << " is beyond the deepest "
                << "possible level, "
                << std::numeric_limits<std::uint16_t>::max() << "\n";
            return false;
        }
        sess.aggregateToDepth(std::uint16_t(d));
        out << "depth " << d << " (" << sess.projection().size()
            << " visible nodes)\n";
        return true;
    }
    if (cmd == "reset") {
        sess.resetAggregation();
        out << "reset (" << sess.projection().size()
            << " visible nodes)\n";
        return true;
    }
    if (cmd == "charge" || cmd == "spring" || cmd == "damping") {
        double v;
        if (!need(1) || !num(1, v))
            return false;
        if (cmd == "charge")
            sess.forceParams().charge = v;
        else if (cmd == "spring")
            sess.forceParams().spring = v;
        else
            sess.forceParams().damping = v;
        out << cmd << " = " << v << "\n";
        return true;
    }
    if (cmd == "set") {
        if (!need(2))
            return false;
        if (args[1] == "threads") {
            std::size_t n;
            if (!count(2, n))
                return false;
            if (n == 0) {
                out << "error: threads must be at least 1\n";
                return false;
            }
            sess.setThreads(n);
            out << "threads = " << sess.threads() << "\n";
            return true;
        }
        if (args[1] == "mem-budget") {
            std::size_t bytes;
            if (!count(2, bytes))
                return false;
            sess.setMemoryBudget(bytes);
            out << "mem-budget = " << sess.memoryBudget()
                << " (working set " << sess.workingSetBytes()
                << " bytes, " << sess.projection().size()
                << " visible nodes)\n";
            return true;
        }
        if (args[1] == "deadline-ms") {
            std::size_t ms;
            if (!count(2, ms))
                return false;
            constexpr std::uint64_t ns_per_ms = 1000000ull;
            if (ms > std::numeric_limits<std::uint64_t>::max() / ns_per_ms) {
                out << "error: deadline-ms " << ms
                    << " overflows a nanosecond deadline\n";
                return false;
            }
            sess.setOperationDeadline(std::uint64_t(ms) * ns_per_ms);
            out << "deadline-ms = " << ms << "\n";
            return true;
        }
        if (args[1] == "autockpt") {
            std::size_t every;
            if (!count(2, every))
                return false;
            if (every > 0 && argc < 3) {
                out << "error: 'set autockpt N <file>' needs a file\n";
                return false;
            }
            autoCkptEvery = every;
            autoCkptPath = every > 0 ? args[3] : std::string();
            cmdsSinceCkpt = 0;
            if (every == 0)
                out << "autockpt off\n";
            else
                out << "autockpt every " << every << " command(s) to "
                    << autoCkptPath << "\n";
            return true;
        }
        out << "error: unknown setting '" << args[1]
            << "' (try 'set threads N', 'set mem-budget BYTES', "
               "'set deadline-ms N' or 'set autockpt N FILE')\n";
        return false;
    }
    if (cmd == "checkpoint") {
        if (!need(1))
            return false;
        support::Expected<void> saved = sess.checkpoint(args[1]);
        if (!saved) {
            out << "error: " << saved.error().toString() << "\n";
            return false;
        }
        out << "checkpointed to " << args[1] << " (digest "
            << sess.stateDigest() << ")\n";
        return true;
    }
    if (cmd == "restore") {
        if (!need(1))
            return false;
        support::Expected<void> restored = sess.restore(args[1]);
        if (!restored) {
            out << "error: " << restored.error().toString() << "\n";
            return false;
        }
        out << "restored from " << args[1] << " ("
            << sess.projection().size() << " visible nodes, digest "
            << sess.stateDigest() << ")\n";
        return true;
    }
    if (cmd == "status") {
        support::Interval s = sess.span();
        out << "threads " << sess.threads() << "\n"
            << "span [" << s.begin << ", " << s.end << ")\n"
            << "slice [" << sess.timeSlice().begin << ", "
            << sess.timeSlice().end << ")\n"
            << "visible " << sess.projection().size() << " nodes, "
            << sess.layoutGraph().edgeCount() << " edges\n"
            << "layout " << sess.layoutEngine().iterations()
            << " iteration(s), energy "
            << sess.layoutEngine().kineticEnergy() << "\n"
            << "governor budget " << sess.memoryBudget()
            << " bytes, working set " << sess.workingSetBytes()
            << " bytes, deadline " << sess.operationDeadline()
            << " ns\n"
            << "governor " << sess.degradationCount()
            << " degradation(s), " << sess.deadlineAbortCount()
            << " deadline abort(s)\n";
        return true;
    }
    if (cmd == "scale") {
        double v;
        if (!need(2) || !num(2, v))
            return false;
        trace::MetricId m = sess.trace().findMetric(args[1]);
        if (m == trace::kNoMetric) {
            out << "error: unknown metric '" << args[1] << "'\n";
            return false;
        }
        sess.scaling().setSlider(m, v);
        out << "scale " << args[1] << " = " << v << "\n";
        return true;
    }
    if (cmd == "stabilize") {
        std::size_t iters = 300;
        if (argc >= 1 && !count(1, iters))
            return false;
        support::Expected<std::size_t> done =
            sess.stabilizeLayout(iters);
        if (!done) {
            out << "error: " << done.error().toString() << "\n";
            return false;
        }
        out << "stabilized in " << *done << " iteration(s)\n";
        return true;
    }
    if (cmd == "move") {
        double x, y;
        if (!need(3) || !num(2, x) || !num(3, y))
            return false;
        const std::uint64_t aborts = sess.deadlineAbortCount();
        if (!sess.moveNode(args[1], x, y)) {
            if (sess.deadlineAbortCount() != aborts)
                out << "error: moving '" << args[1]
                    << "' ran past the operation deadline\n";
            else
                out << "error: '" << args[1]
                    << "' is not a visible node\n";
            return false;
        }
        out << "moved " << args[1] << " to (" << x << ", " << y << ")\n";
        return true;
    }
    if (cmd == "pin" || cmd == "unpin") {
        if (!need(1))
            return false;
        if (!sess.pinNode(args[1], cmd == "pin")) {
            out << "error: '" << args[1] << "' is not a visible node\n";
            return false;
        }
        out << cmd << " " << args[1] << "\n";
        return true;
    }
    if (cmd == "render") {
        if (!need(1))
            return false;
        std::string title;
        for (std::size_t i = 2; i < args.size(); ++i) {
            if (!title.empty())
                title += ' ';
            title += args[i];
        }
        support::Expected<void> drawn = sess.renderSvg(args[1], title);
        if (!drawn) {
            out << "error: " << drawn.error().toString() << "\n";
            return false;
        }
        out << "rendered " << args[1] << "\n";
        return true;
    }
    if (cmd == "chart") {
        if (!need(2))
            return false;
        std::vector<std::string> containers(args.begin() + 3,
                                            args.end());
        support::Expected<void> charted =
            sess.renderChart(args[2], args[1], containers);
        if (!charted) {
            out << "error: " << charted.error().toString() << "\n";
            return false;
        }
        out << "chart of " << args[1] << " rendered to " << args[2]
            << "\n";
        return true;
    }
    if (cmd == "load") {
        if (!need(1))
            return false;
        support::Expected<void> loaded = sess.load(args[1]);
        if (!loaded) {
            out << "error: " << loaded.error().toString() << "\n";
            return false;
        }
        out << "loaded " << args[1] << " ("
            << sess.trace().containerCount() << " containers, "
            << sess.projection().size() << " visible nodes)\n";
        return true;
    }
    if (cmd == "save") {
        if (!need(1))
            return false;
        support::Expected<void> saved = sess.saveTrace(args[1]);
        if (!saved) {
            out << "error: " << saved.error().toString() << "\n";
            return false;
        }
        out << "trace saved to " << args[1] << "\n";
        return true;
    }
    if (cmd == "export-csv") {
        if (!need(1))
            return false;
        support::Expected<void> exported = sess.exportCsv(args[1]);
        if (!exported) {
            out << "error: " << exported.error().toString() << "\n";
            return false;
        }
        out << "view exported to " << args[1] << "\n";
        return true;
    }
    if (cmd == "anomalies") {
        if (!need(1))
            return false;
        double threshold = 3.0;
        if (argc >= 2 && !num(2, threshold))
            return false;
        std::vector<std::string> findings =
            sess.findAnomalies(args[1], threshold);
        if (findings.size() == 1 &&
            findings[0].rfind("error:", 0) == 0) {
            out << findings[0] << "\n";
            return false;
        }
        if (findings.empty())
            out << "no anomalies above threshold " << threshold << "\n";
        for (const std::string &f : findings)
            out << f << "\n";
        return true;
    }
    if (cmd == "treemap") {
        if (!need(2))
            return false;
        support::Expected<void> mapped =
            sess.renderTreemap(args[2], args[1]);
        if (!mapped) {
            out << "error: " << mapped.error().toString() << "\n";
            return false;
        }
        out << "treemap of " << args[1] << " rendered to " << args[2]
            << "\n";
        return true;
    }
    if (cmd == "gantt") {
        if (!need(1))
            return false;
        support::Expected<std::size_t> rows = sess.renderGantt(args[1]);
        if (!rows) {
            out << "error: " << rows.error().toString() << "\n";
            return false;
        }
        out << "gantt with " << *rows << " row(s) rendered to "
            << args[1] << "\n";
        return true;
    }
    if (cmd == "ascii") {
        out << sess.renderAscii();
        return true;
    }
    if (cmd == "stats") {
        if (argc >= 1 && args[1] == "--json") {
            support::obs::writeJson(sess.observability(), out);
            return true;
        }
        if (argc >= 1 && args[1] == "reset") {
            support::obs::Registry::global().reset();
            out << "stats reset\n";
            return true;
        }
        if (argc >= 1) {
            out << "error: unknown stats option '" << args[1]
                << "' (try 'stats', 'stats --json' or 'stats reset')\n";
            return false;
        }
        support::obs::writeTable(sess.observability(), out);
        return true;
    }
    if (cmd == "info") {
        support::Interval s = sess.span();
        out << "span [" << s.begin << ", " << s.end << ") slice ["
            << sess.timeSlice().begin << ", " << sess.timeSlice().end
            << ") visible " << sess.projection().size() << " nodes "
            << sess.layoutGraph().edgeCount() << " edges\n";
        return true;
    }
    if (cmd == "nodes") {
        agg::View v = sess.view();
        for (const agg::ViewNode &n : v.nodes) {
            out << (n.aggregated ? "* " : "  ")
                << sess.trace().fullName(n.id);
            for (std::size_t k = 0; k < v.requests.size(); ++k) {
                out << ' ' << sess.trace().metric(v.requests[k].metric).name
                    << '=' << n.values[k];
            }
            out << "\n";
        }
        return true;
    }
    if (cmd == "help") {
        out << "commands: slice slice-of aggregate disaggregate depth "
               "focus reset charge spring damping scale set stabilize move "
               "pin unpin render treemap gantt chart anomalies export-csv "
               "load save checkpoint restore ascii info nodes status "
               "stats help\n";
        return true;
    }

    out << "error: unknown command '" << cmd << "'\n";
    return false;
}

std::size_t
CommandInterpreter::executeScript(std::istream &in, std::ostream &out)
{
    std::size_t ok = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (!execute(line, out))
            return ok;
        ++ok;
    }
    return ok;
}

} // namespace viva::app
