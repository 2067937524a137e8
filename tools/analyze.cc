/**
 * @file
 * The viva-analyze driver: the rule registry, the one waiver grammar,
 * one lex per file, the passes in order, and the report formats.
 */

#include "tools/analyze.hh"

#include <algorithm>
#include <sstream>

#include "support/threadpool.hh"
#include "tools/analyze_internal.hh"

namespace viva::analyze
{

const std::vector<Rule> &
ruleRegistry()
{
    static const std::vector<Rule> rules = {
        {"unordered-iter", Pass::Token, {}, {}, false,
         "iteration over unordered_map/unordered_set: the visit order "
         "is implementation-defined, so any reduction or rendering "
         "driven by it is nondeterministic"},
        {"raw-random", Pass::Token, {}, {"src/support/random.hh"}, false,
         "rand()/srand()/std::random_device: process-global randomness "
         "breaks reproducibility; use the seeded support::Rng"},
        {"raw-new-delete", Pass::Token, {}, {}, false,
         "raw new/delete expression: ownership lives in containers or "
         "smart pointers"},
        {"float-type", Pass::Token, {"src/layout/", "src/agg/"}, {}, false,
         "float in layout/aggregation math: the bitwise-determinism "
         "contract is specified over doubles"},
        {"raw-rename", Pass::Token, {}, {}, false,
         "std::rename / std::filesystem::rename: the crash-safe swap "
         "lives behind support::atomicReplace"},
        {"assert-side-effect", Pass::Token, {}, {}, false,
         "side effect inside assert()/VIVA_ASSERT()/VIVA_AUDIT(): the "
         "expression vanishes when the check is compiled out"},
        {"pragma-once", Pass::Token, {}, {}, true,
         "headers start with #pragma once, before any other directive "
         "or code"},
        {"include-hygiene", Pass::Token, {}, {}, false,
         "no '..' segments in #include paths, no `using namespace` in "
         "headers"},
        {"unchecked-expected", Pass::Flow, {}, {}, false,
         "a support::Expected/Error result is dropped: bind it, test "
         "it or pass it on"},
        {"context-on-propagate", Pass::Flow, {"src/"}, {}, false,
         "a callee's Expected or .error() is returned without "
         "VIVA_ERROR_CONTEXT, so the error chain loses this frame"},
        {"obs-phase-manifest", Pass::Flow, {"src/"}, {}, false,
         "every phase registered in src/ is listed in "
         "tools/obs_manifest.txt, and every listed phase is registered"},
        {"illegal-edge", Pass::Include, {}, {}, false,
         "an #include crosses layers against tools/layering.rules"},
        {"include-cycle", Pass::Include, {}, {}, false,
         "the quoted include graph has a cycle"},
        {"layering-rules", Pass::Include, {}, {}, false,
         "the allow-edges of tools/layering.rules form a cycle"},
        {"fatal-reachable", Pass::Call, {"src/"},
         {"src/app/", "src/support/logging.", "src/support/invariant."},
         false,
         "library code reaches fatal()/panic(): it must return "
         "support::Expected, so one bad input cannot end a session"},
        {"clock-reachable", Pass::Call, {"src/", "bench/"},
         {"src/support/clock."}, false,
         "a raw clock read (std::chrono clocks, time(), gettimeofday, "
         "localtime/gmtime/ctime) outside the clock shim: time flows "
         "through support::clock() so a FakeClock can stand in"},
        {"io-in-hot-path", Pass::Call, {}, {}, false,
         "a ThreadPool chunk lambda reaches stream I/O or warnLimited()"},
        {"dead-symbol", Pass::Call, {"src/"}, {}, false,
         "a function defined in src/ is unreachable from every main(), "
         "TEST body and file-scope initializer"},
        {"waiver", Pass::Token, {}, {}, false,
         "a waiver without a rationale, or naming an unknown rule"},
    };
    return rules;
}

bool
ruleApplies(const std::string &id, const std::string &path)
{
    for (const Rule &rule : ruleRegistry()) {
        if (rule.id != id)
            continue;
        if (rule.headersOnly && !isHeaderPath(path))
            return false;
        for (const std::string &prefix : rule.exempt)
            if (startsWith(path, prefix))
                return false;
        if (rule.scope.empty())
            return true;
        for (const std::string &prefix : rule.scope)
            if (startsWith(path, prefix))
                return true;
        return false;
    }
    return false;
}

bool
Waivers::allows(const std::string &rule, std::size_t line) const
{
    if (fileWide.count(rule))
        return true;
    auto it = perLine.find(line);
    return it != perLine.end() && it->second.count(rule) != 0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot);
    return ext == ".hh" || ext == ".hpp";
}

void
report(std::vector<Finding> &out, const Unit &unit, std::size_t line,
       const std::string &rule, std::string message)
{
    if (!unit.waivers.allows(rule, line))
        out.push_back({unit.file->path, line, rule, std::move(message)});
}

void
forEachIndex(std::size_t n, std::size_t jobs,
             const std::function<void(std::size_t)> &fn)
{
    support::ThreadPool::global().parallelFor(
        0, n, 1, jobs, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                fn(i);
        });
}

std::size_t
matchClose(const std::vector<Token> &code, std::size_t open)
{
    const std::string opener = code[open].text;
    const std::string closer = opener == "(" ? ")" : "}";
    std::size_t depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i].kind != Tok::Punct)
            continue;
        if (code[i].text == opener)
            ++depth;
        else if (code[i].text == closer && --depth == 0)
            return i;
    }
    return kNone;
}

std::size_t
skipAngles(const std::vector<Token> &code, std::size_t open)
{
    long depth = 0;
    std::size_t parens = 0;
    const std::size_t limit = std::min(code.size(), open + 160);
    for (std::size_t j = open; j < limit; ++j) {
        const Token &t = code[j];
        if (t.kind == Tok::String || t.kind == Tok::RawString)
            return kNone;
        if (t.kind != Tok::Punct)
            continue;
        const std::string &s = t.text;
        if (s == "(" || s == "[") {
            ++parens;
        } else if (s == ")" || s == "]") {
            if (parens-- == 0)
                return kNone;
        } else if (parens != 0) {
            continue;
        } else if (s == "<") {
            ++depth;
        } else if (s == ">" || s == ">>") {
            depth -= s == ">" ? 1 : 2;
            if (depth <= 0)
                return j;
        } else if (s == ";" || s == "{" || s == "}" || s == "&&" ||
                   s == "||" || s == "<<" || s == "<=" || s == ">=" ||
                   s == "?") {
            return kNone;
        }
    }
    return kNone;
}

namespace
{

constexpr char kMarker[] = "viva-analyze:";

bool
knownRule(const std::string &id)
{
    for (const Rule &rule : ruleRegistry())
        if (rule.id == id && id != "waiver")
            return true;
    return false;
}

/**
 * Parse the waivers of one file from its comment tokens. A waiver is a
 * comment whose text starts with the marker, so prose that merely
 * mentions the grammar is never read as one.
 */
Waivers
parseWaivers(const Unit &unit, std::vector<Finding> &out)
{
    std::set<std::size_t> codeLines;
    for (const Token &t : unit.code)
        codeLines.insert(t.line);

    Waivers w;
    for (const Token &t : unit.tokens) {
        if (t.kind != Tok::Comment)
            continue;
        std::string text = t.text;
        text.erase(0, text.find_first_not_of("/* \t"));
        if (!startsWith(text, kMarker))
            continue;
        auto bad = [&](const std::string &why) {
            out.push_back({unit.file->path, t.line, "waiver", why});
        };
        // allow(<ids>): <why>  or  allow-file(<ids>): <why>
        text.erase(0, sizeof kMarker - 1);
        text.erase(0, text.find_first_not_of(" \t"));
        const bool fileWide = startsWith(text, "allow-file(");
        const std::size_t open = fileWide                     ? 10
                                 : startsWith(text, "allow(") ? 5
                                                              : kNone;
        const std::size_t close =
            open == kNone ? kNone : text.find(')', open);
        if (close == std::string::npos) {
            bad("unreadable waiver; write `allow(<rule>): <why>` or "
                "`allow-file(<rule>): <why>` after the marker");
            continue;
        }
        const std::size_t colon = text.find_first_not_of(" \t", close + 1);
        if (colon == std::string::npos || text[colon] != ':' ||
            text.find_first_not_of(" \t*/", colon + 1) ==
                std::string::npos) {
            bad("waiver without a rationale; write "
                "`allow(<rule>): <why>`");
            continue;
        }

        // Same line when it carries code, else the next code line.
        std::size_t target = t.line;
        if (!codeLines.count(t.line)) {
            auto next = codeLines.upper_bound(t.line);
            target = next == codeLines.end() ? 0 : *next;
        }
        std::istringstream ids(text.substr(open + 1, close - open - 1));
        std::string id;
        while (std::getline(ids, id, ',')) {
            id.erase(0, id.find_first_not_of(" \t"));
            id.erase(id.find_last_not_of(" \t") + 1);
            if (!knownRule(id)) {
                bad("unknown rule '" + id + "' in waiver");
            } else if (fileWide) {
                w.fileWide.insert(id);
            } else {
                w.perLine[t.line].insert(id);
                w.perLine[target].insert(id);
            }
        }
    }
    return w;
}

std::string
jsonEscape(const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

Result
analyze(const std::vector<FileInput> &files, const Options &options)
{
    const std::size_t n = files.size();
    std::vector<Unit> units(n);
    std::vector<std::vector<Finding>> perFile(n);
    forEachIndex(n, options.jobs, [&](std::size_t i) {
        Unit &unit = units[i];
        unit.file = &files[i];
        unit.tokens = check::lex(files[i].content);
        for (const Token &t : unit.tokens)
            if (t.kind != Tok::Comment)
                unit.code.push_back(t);
        unit.waivers = parseWaivers(unit, perFile[i]);
    });

    Result result;
    result.files = n;
    for (std::vector<Finding> &per : perFile)
        for (Finding &f : per)
            result.findings.push_back(std::move(f));
    runTokenRules(units, options, result.findings);
    runIncludeRules(units, options, result.findings);
    runCallRules(units, options, result);

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return result;
}

std::string
formatFinding(const Finding &finding)
{
    return finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

std::string
formatJson(const Result &result)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"viva-analyze-1\",\n"
       << "  \"files\": " << result.files << ",\n"
       << "  \"symbols\": " << result.symbols << ",\n"
       << "  \"defined_symbols\": " << result.definedSymbols << ",\n"
       << "  \"edges\": " << result.edges << ",\n"
       << "  \"external_calls\": " << result.externalCalls << ",\n"
       << "  \"unresolved_sites\": " << result.unresolvedSites << ",\n"
       << "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        os << (i ? "," : "") << "\n    {\"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \""
           << jsonEscape(f.rule) << "\", \"message\": \""
           << jsonEscape(f.message) << "\"}";
    }
    os << (result.findings.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

std::string
formatDot(const Result &result)
{
    std::ostringstream os;
    os << "digraph viva_layers {\n  rankdir=LR;\n  node [shape=box];\n";
    for (const auto &[layer, count] : result.layerSymbols)
        os << "  \"" << layer << "\" [label=\"" << layer << "\\n"
           << count << " symbols\"];\n";
    for (const auto &[edge, count] : result.layerEdges)
        os << "  \"" << edge.first << "\" -> \"" << edge.second
           << "\" [label=\"" << count << "\"];\n";
    os << "}\n";
    return os.str();
}

} // namespace viva::analyze
