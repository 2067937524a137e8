/**
 * @file
 * Implementation of trace serialization.
 */

#include "trace/io.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/atomic_file.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::trace
{

namespace obs = support::obs;

using support::Errc;
using support::formatDouble;
using support::parseDouble;
using support::parseSize;
using support::trimView;

void
writeTrace(const Trace &trace, std::ostream &out)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("trace.write");
    static const obs::CounterId records = reg.counter("trace.write.records");
    obs::ScopedPhase timer(phase);
    std::uint64_t written = 0;

    out << "viva-trace 1\n";

    for (ContainerId id{1}; id.index() < trace.containerCount(); ++id) {
        const Container &c = trace.container(id);
        out << "container " << id << ' ';
        if (c.parent == trace.root())
            out << '-';
        else
            out << c.parent;
        out << ' ' << containerKindName(c.kind) << ' ' << c.name << '\n';
    }

    for (MetricId id{0}; id.index() < trace.metricCount(); ++id) {
        const Metric &m = trace.metric(id);
        out << "metric " << id << ' ' << metricNatureName(m.nature) << ' ';
        if (m.capacityOf == kNoMetric)
            out << '-';
        else
            out << m.capacityOf;
        out << ' ' << (m.unit.empty() ? "-" : m.unit) << ' ' << m.name
            << '\n';
    }

    for (const Trace::Relation &r : trace.relations())
        out << "rel " << r.a << ' ' << r.b << '\n';

    for (ContainerId c{0}; c.index() < trace.containerCount(); ++c) {
        for (MetricId m{0}; m.index() < trace.metricCount(); ++m) {
            const Variable *var = trace.findVariable(c, m);
            if (!var)
                continue;
            for (const Variable::Point &p : var->changePoints()) {
                out << "p " << c << ' ' << m << ' ' << formatDouble(p.time)
                    << ' ' << formatDouble(p.value) << '\n';
                ++written;
            }
        }
    }

    for (const Trace::StateRecord &s : trace.states()) {
        out << "state " << s.container << ' ' << formatDouble(s.begin)
            << ' ' << formatDouble(s.end) << ' ' << s.state << '\n';
        ++written;
    }

    written += trace.containerCount() - 1 + trace.metricCount() +
               trace.relations().size();
    reg.add(records, written);
}

support::Expected<void>
writeTraceFile(const Trace &trace, const std::string &path)
{
    static const obs::CounterId errors =
        obs::Registry::global().counter("trace.write.errors");
    support::Expected<void> written = support::writeOutputFile(
        path, "trace.write.stream", errors,
        [&](std::ostream &out) { writeTrace(trace, out); });
    if (!written)
        return VIVA_ERROR_CONTEXT(written.error(), "writeTraceFile");
    return written;
}

LineReader::LineReader(std::istream &stream, std::size_t max_length)
    : in(stream), maxLength(max_length)
{
    buffer.resize(std::min<std::size_t>(4096, bufferLimit()));
}

std::size_t
LineReader::bufferLimit() const
{
    // The longest admissible line, one more character and getline's NUL.
    constexpr std::size_t most = std::numeric_limits<std::size_t>::max();
    return maxLength > most - 2 ? most : maxLength + 2;
}

LineReader::Status
LineReader::next(std::string_view &line)
{
    std::size_t have = 0;
    std::size_t length = 0;
    while (true) {
        in.getline(buffer.data() + have,
                   std::streamsize(buffer.size() - have));
        const std::size_t got = std::size_t(in.gcount());
        if (!in.fail()) {
            // gcount counts the newline, unless end of input ended the
            // line.
            length = have + got - (in.eof() ? 0 : 1);
            break;
        }
        if (in.bad() || got == 0) {
            if (in.bad() || have == 0)
                return Status::End;
            length = have;
            break;
        }
        // The buffer filled before the line ended: the line is too
        // long, or the buffer grows for the rest of it.
        have += got;
        if (have > maxLength)
            return Status::TooLong;
        in.clear(in.rdstate() & ~std::ios::failbit);
        buffer.resize(std::min(2 * buffer.size(), bufferLimit()));
    }
    if (length > maxLength)
        return Status::TooLong;
    line = {buffer.data(), length};
    return Status::Line;
}

namespace
{

/**
 * Split off the first n (at most 4) whitespace fields; the remainder,
 * trimmed, is the name.
 */
bool
splitFields(std::string_view line, std::size_t n, std::string_view *fields,
            std::string_view &rest)
{
    auto space = [&](std::size_t i) {
        return std::isspace(static_cast<unsigned char>(line[i])) != 0;
    };
    std::size_t i = 0;
    for (std::size_t f = 0; f < n; ++f) {
        while (i < line.size() && space(i))
            ++i;
        std::size_t start = i;
        while (i < line.size() && !space(i))
            ++i;
        if (i == start)
            return false;
        fields[f] = line.substr(start, i - start);
    }
    // Trims trailing whitespace too (e.g. CR from DOS files).
    rest = trimView(line.substr(i));
    return true;
}

} // namespace

support::Expected<Trace>
readTrace(std::istream &in, const ParseBudget &budget)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("trace.read");
    static const obs::CounterId record_count =
        reg.counter("trace.read.records");
    static const obs::CounterId errors = reg.counter("trace.read.errors");
    obs::ScopedPhase timer(phase);

    std::size_t line_no = 0;
    auto fail = [&](Errc code,
                    const std::string &msg) -> support::Error {
        reg.add(errors);
        std::ostringstream os;
        os << "line " << line_no << ": " << msg;
        return VIVA_ERROR(code, os.str());
    };
    auto overlong = [&] {
        return fail(Errc::Budget,
                    "line exceeds the parse budget (" +
                        std::to_string(budget.maxLineLength) + " bytes)");
    };

    LineReader lines(in, budget.maxLineLength);
    std::string_view line;
    LineReader::Status got = lines.next(line);
    if (got == LineReader::Status::End)
        return fail(Errc::Parse, "empty input");
    ++line_no;
    if (got == LineReader::Status::TooLong)
        return overlong();
    if (trimView(line) != "viva-trace 1")
        return fail(Errc::Parse, "missing 'viva-trace 1' header");

    Trace trace;
    std::string_view fields[4];
    std::string_view rest;
    std::size_t records = 0;
    // Points arrive in runs of one (container, metric): the variable is
    // fetched once per run. freeze() sorts, once, every variable whose
    // runs broke its time order.
    Variable *run = nullptr;
    std::size_t run_c = 0;
    std::size_t run_m = 0;

    while ((got = lines.next(line)) != LineReader::Status::End) {
        ++line_no;
        if (support::faultAt("trace.read.stream"))
            return fail(Errc::Io, "injected stream read failure");
        if (got == LineReader::Status::TooLong ||
            support::faultAt("trace.parse.budget"))
            return overlong();
        std::string_view stripped = trimView(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;

        std::size_t sp = stripped.find(' ');
        std::string_view verb = stripped.substr(0, sp);
        std::string_view body = sp == std::string_view::npos
                                    ? std::string_view()
                                    : stripped.substr(sp + 1);

        if (verb == "p") {
            if (!splitFields(body, 4, fields, rest) || !rest.empty())
                return fail(Errc::Parse, "malformed point record");
            std::size_t c = 0, m = 0;
            double t = 0, v = 0;
            if (!parseSize(fields[0], c) || !parseSize(fields[1], m) ||
                !parseDouble(fields[2], t) || !parseDouble(fields[3], v))
                return fail(Errc::Parse, "bad point fields");
            if (!std::isfinite(t) || !std::isfinite(v))
                return fail(Errc::Parse, "non-finite point fields");
            if (c >= trace.containerCount() || m >= trace.metricCount())
                return fail(Errc::Parse, "point references unknown ids");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            if (!run || c != run_c || m != run_m) {
                run = &trace.variable(ContainerId::fromIndex(c),
                                      MetricId::fromIndex(m));
                run_c = c;
                run_m = m;
            }
            run->push(t, v);
        } else if (verb == "container") {
            if (!splitFields(body, 3, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed container record");
            std::size_t id = 0;
            if (!parseSize(fields[0], id))
                return fail(Errc::Parse, "bad container id");
            if (trace.containerCount() >= budget.maxContainers)
                return fail(Errc::Budget,
                            "container count exceeds the parse budget");
            ContainerId parent = trace.root();
            if (fields[1] != "-") {
                std::size_t p = 0;
                if (!parseSize(fields[1], p) || p >= trace.containerCount())
                    return fail(Errc::Parse, "bad parent id");
                parent = ContainerId::fromIndex(p);
            }
            ContainerKind kind = containerKindFromName(fields[2]);
            std::string name(rest);
            if (name.find('/') != std::string::npos)
                return fail(Errc::Parse,
                            "container name '" + name +
                                "' must not contain '/'");
            if (trace.findChild(parent, name) != kNoContainer)
                return fail(Errc::Parse,
                            "duplicate container '" + name + "'");
            ContainerId made = trace.addContainer(name, kind, parent);
            if (made.index() != id)
                return fail(Errc::Parse, "container ids must be dense");
        } else if (verb == "metric") {
            if (!splitFields(body, 4, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed metric record");
            std::size_t id = 0;
            if (!parseSize(fields[0], id))
                return fail(Errc::Parse, "bad metric id");
            if (trace.metricCount() >= budget.maxMetrics)
                return fail(Errc::Budget,
                            "metric count exceeds the parse budget");
            MetricNature nature = metricNatureFromName(fields[1]);
            MetricId cap = kNoMetric;
            if (fields[2] != "-") {
                std::size_t c = 0;
                if (!parseSize(fields[2], c) || c >= trace.metricCount())
                    return fail(Errc::Parse, "bad capacityOf id");
                cap = MetricId::fromIndex(c);
            }
            std::string unit(fields[3] == "-" ? std::string_view() : fields[3]);
            std::string name(rest);
            if (trace.findMetric(name) != kNoMetric)
                return fail(Errc::Parse,
                            "duplicate metric '" + name + "'");
            MetricId made = trace.addMetric(name, unit, nature, cap);
            if (made.index() != id)
                return fail(Errc::Parse, "metric ids must be dense");
        } else if (verb == "rel") {
            if (!splitFields(body, 2, fields, rest) || !rest.empty())
                return fail(Errc::Parse, "malformed rel record");
            std::size_t a = 0, b = 0;
            if (!parseSize(fields[0], a) || !parseSize(fields[1], b) ||
                a >= trace.containerCount() || b >= trace.containerCount())
                return fail(Errc::Parse, "bad rel endpoints");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            trace.addRelation(ContainerId::fromIndex(a), ContainerId::fromIndex(b));
        } else if (verb == "state") {
            if (!splitFields(body, 3, fields, rest) || rest.empty())
                return fail(Errc::Parse, "malformed state record");
            std::size_t c = 0;
            double b = 0, e = 0;
            if (!parseSize(fields[0], c) || !parseDouble(fields[1], b) ||
                !parseDouble(fields[2], e) || c >= trace.containerCount())
                return fail(Errc::Parse, "bad state fields");
            if (!std::isfinite(b) || !std::isfinite(e))
                return fail(Errc::Parse, "non-finite state interval");
            if (b > e)
                return fail(Errc::Parse, "reversed state interval");
            if (++records > budget.maxRecords)
                return fail(Errc::Budget,
                            "record count exceeds the parse budget");
            trace.addState(ContainerId::fromIndex(c), b, e, std::string(rest));
        } else {
            return fail(Errc::Parse,
                        "unknown record '" + std::string(verb) + "'");
        }
    }

    if (in.bad())
        return fail(Errc::Io, "stream read failure");
    reg.add(record_count, records + trace.containerCount() - 1 +
                              trace.metricCount());
    // Load time is when the trace freezes: every later slice query
    // (interactive or batch) finds it sorted and indexed.
    trace.freeze();
    return trace;
}

support::Expected<Trace>
readTraceFile(const std::string &path, const ParseBudget &budget)
{
    std::ifstream in(path);
    if (!in)
        return VIVA_ERROR(Errc::Io, "cannot open '", path, "'");
    support::Expected<Trace> result = readTrace(in, budget);
    if (!result)
        return VIVA_ERROR_CONTEXT(result.error(), "reading '", path,
                                  "'");
    return result;
}

} // namespace viva::trace
