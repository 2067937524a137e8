/**
 * @file
 * Implementation of the viva-perfdiff export parser and comparator.
 */

#include "tools/perfdiff.hh"

#include <cctype>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

namespace viva::perfdiff
{

using support::Errc;

namespace
{

/**
 * A cursor over the exact JSON subset support::obs::writeJson() emits:
 * objects, arrays, double-quoted strings without escapes (metric names
 * are dotted identifiers) and decimal integers.
 */
struct Cursor
{
    const std::string &text;
    std::size_t i = 0;
    std::string error;

    explicit Cursor(const std::string &t) : text(t) {}

    bool
    failed() const
    {
        return !error.empty();
    }

    void
    fail(const std::string &what)
    {
        if (error.empty()) {
            std::ostringstream os;
            os << "offset " << i << ": " << what;
            error = os.str();
        }
    }

    void
    skipWs()
    {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (i < text.size() && text[i] == c) {
            ++i;
            return true;
        }
        fail(std::string("expected '") + c + "'");
        return false;
    }

    /** Is `c` the next non-space character? (Consumed when yes.) */
    bool
    peekConsume(char c)
    {
        skipWs();
        if (i < text.size() && text[i] == c) {
            ++i;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        if (!consume('"'))
            return {};
        std::size_t start = i;
        while (i < text.size() && text[i] != '"') {
            if (text[i] == '\\') {
                fail("escape sequences are not part of the schema");
                return {};
            }
            ++i;
        }
        if (i >= text.size()) {
            fail("unterminated string");
            return {};
        }
        std::string out = text.substr(start, i - start);
        ++i;  // closing quote
        return out;
    }

    std::int64_t
    parseInt()
    {
        skipWs();
        bool negative = false;
        if (i < text.size() && text[i] == '-') {
            negative = true;
            ++i;
        }
        if (i >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[i]))) {
            fail("expected an integer");
            return 0;
        }
        std::uint64_t magnitude = 0;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i]))) {
            magnitude = magnitude * 10 + std::uint64_t(text[i] - '0');
            ++i;
        }
        return negative ? -std::int64_t(magnitude)
                        : std::int64_t(magnitude);
    }
};

/**
 * Parse one flat entry object ({"name": ..., "value": ..., ...}) into
 * (key -> integer) pairs plus its name; integer arrays ("buckets") are
 * read and discarded -- the comparison works on count/sum/mean.
 */
bool
parseEntry(Cursor &c, std::string &name,
           std::map<std::string, std::int64_t> &values)
{
    name.clear();
    values.clear();
    if (!c.consume('{'))
        return false;
    while (true) {
        std::string key = c.parseString();
        if (c.failed() || !c.consume(':'))
            return false;
        c.skipWs();
        if (c.i < c.text.size() && c.text[c.i] == '"') {
            std::string v = c.parseString();
            if (c.failed())
                return false;
            if (key == "name")
                name = v;
        } else if (c.peekConsume('[')) {
            if (!c.peekConsume(']')) {
                do {
                    c.parseInt();
                    if (c.failed())
                        return false;
                } while (c.peekConsume(','));
                if (!c.consume(']'))
                    return false;
            }
        } else {
            values[key] = c.parseInt();
            if (c.failed())
                return false;
        }
        if (c.peekConsume(','))
            continue;
        return c.consume('}');
    }
}

/** Parse one "key": [entries...] section. */
bool
parseSection(Cursor &c, std::vector<std::pair<
                            std::string,
                            std::map<std::string, std::int64_t>>> &out)
{
    out.clear();
    if (!c.consume('['))
        return false;
    if (c.peekConsume(']'))
        return true;
    do {
        std::string name;
        std::map<std::string, std::int64_t> values;
        if (!parseEntry(c, name, values))
            return false;
        if (name.empty()) {
            c.fail("entry without a name");
            return false;
        }
        out.emplace_back(std::move(name), std::move(values));
    } while (c.peekConsume(','));
    return c.consume(']');
}

} // namespace

support::Expected<ObsExport>
parseObsJson(std::istream &in)
{
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    Cursor c(text);
    ObsExport result;
    bool sawSchema = false;

    if (!c.consume('{'))
        return VIVA_ERROR(Errc::Parse, "not an object: ", c.error);
    while (true) {
        std::string key = c.parseString();
        if (c.failed() || !c.consume(':'))
            return VIVA_ERROR(Errc::Parse, "bad export: ", c.error);
        if (key == "schema") {
            std::string schema = c.parseString();
            if (c.failed())
                return VIVA_ERROR(Errc::Parse, "bad export: ", c.error);
            if (schema != "viva-obs-1")
                return VIVA_ERROR(Errc::Parse, "unsupported schema '",
                                  schema, "' (want viva-obs-1)");
            sawSchema = true;
        } else if (key == "counters" || key == "gauges" ||
                   key == "phases") {
            std::vector<std::pair<std::string,
                                  std::map<std::string, std::int64_t>>>
                entries;
            if (!parseSection(c, entries))
                return VIVA_ERROR(Errc::Parse, "bad '", key,
                                  "' section: ", c.error);
            for (auto &[name, values] : entries) {
                if (key == "counters") {
                    result.counters[name] =
                        std::uint64_t(values["value"]);
                } else if (key == "gauges") {
                    result.gauges[name] = values["value"];
                } else {
                    PhaseStats &p = result.phases[name];
                    p.count = std::uint64_t(values["count"]);
                    p.sumNanos = std::uint64_t(values["sum_ns"]);
                    p.meanNanos = std::uint64_t(values["mean_ns"]);
                }
            }
        } else {
            return VIVA_ERROR(Errc::Parse, "unknown key '", key,
                              "' in a viva-obs-1 export");
        }
        if (c.peekConsume(','))
            continue;
        if (!c.consume('}'))
            return VIVA_ERROR(Errc::Parse, "bad export: ", c.error);
        break;
    }
    if (!sawSchema)
        return VIVA_ERROR(Errc::Parse, "export carries no schema tag");
    return result;
}

support::Expected<ObsExport>
parseObsJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return VIVA_ERROR(Errc::Io, "cannot open '", path, "'");
    support::Expected<ObsExport> parsed = parseObsJson(in);
    if (!parsed)
        return VIVA_ERROR_CONTEXT(parsed.error(), "reading '", path,
                                  "'");
    return parsed;
}

namespace
{

/** Flag growth of a work count, note a drop. */
void
compareCount(DiffResult &result, const std::string &name, Measure measure,
             std::uint64_t base, std::uint64_t cand)
{
    if (cand > base) {
        double ratio = base == 0 ? std::numeric_limits<double>::infinity()
                                 : double(cand) / double(base);
        result.regressions.push_back({name, measure, base, cand, ratio});
    } else if (cand < base) {
        std::string what = measure == Measure::Calls
                               ? "phase '" + name + "' calls "
                               : "counter '" + name + "' ";
        result.notes.push_back(what + std::to_string(base) + " -> " +
                               std::to_string(cand) + " (dropped)");
    }
}

} // namespace

DiffResult
diffExports(const ObsExport &baseline, const ObsExport &candidate,
            const DiffOptions &options)
{
    DiffResult result;
    for (const auto &[name, base] : baseline.phases) {
        auto it = candidate.phases.find(name);
        if (it == candidate.phases.end()) {
            result.notes.push_back("phase '" + name +
                                   "' missing from the candidate");
            continue;
        }
        const PhaseStats &cand = it->second;
        compareCount(result, name, Measure::Calls, base.count, cand.count);
        if (base.sumNanos < options.minSumNanos) {
            result.notes.push_back("phase '" + name +
                                   "' below the noise floor; skipped");
            continue;
        }
        if (base.meanNanos == 0 || base.count == 0 || cand.count == 0)
            continue;
        double ratio =
            double(cand.meanNanos) / double(base.meanNanos);
        if (ratio > 1.0 + options.threshold)
            result.regressions.push_back({name, Measure::MeanNanos,
                                          base.meanNanos, cand.meanNanos,
                                          ratio});
    }
    for (const auto &[name, stats] : candidate.phases) {
        (void)stats;
        if (!baseline.phases.count(name))
            result.notes.push_back("phase '" + name +
                                   "' new in the candidate");
    }
    for (const auto &[name, base] : baseline.counters) {
        auto it = candidate.counters.find(name);
        if (it == candidate.counters.end())
            result.notes.push_back("counter '" + name +
                                   "' missing from the candidate");
        else
            compareCount(result, name, Measure::Counter, base, it->second);
    }
    for (const auto &[name, value] : candidate.counters) {
        (void)value;
        if (!baseline.counters.count(name))
            result.notes.push_back("counter '" + name +
                                   "' new in the candidate");
    }
    return result;
}

void
writeReport(const DiffResult &result, std::ostream &out)
{
    for (const Regression &r : result.regressions) {
        out << "REGRESSION " << r.name << ": ";
        switch (r.measure) {
        case Measure::MeanNanos:
            out << "mean " << r.baseline << " ns -> " << r.candidate
                << " ns";
            break;
        case Measure::Calls:
            out << "calls " << r.baseline << " -> " << r.candidate;
            break;
        case Measure::Counter:
            out << "counter " << r.baseline << " -> " << r.candidate;
            break;
        }
        out << " (x" << r.ratio << ")\n";
    }
    for (const std::string &note : result.notes)
        out << "note: " << note << "\n";
    if (result.regressions.empty())
        out << "no regressions\n";
}

} // namespace viva::perfdiff
