/**
 * @file
 * Implementation of the viva-lint engine (see lint.hh for the model and
 * tools/lint_rules.hh for the rule table).
 */

#include "tools/lint.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <locale>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "support/threadpool.hh"
#include "tools/check_lexer.hh"

namespace viva::lint
{

namespace detail
{

std::string
stripCommentsAndStrings(const std::string &content)
{
    // One lexical substrate for all analyzers: the viva-check
    // tokenizer handles the cases the old hand-rolled scanner missed
    // (spliced line comments, digit separators, encoding prefixes).
    return viva::check::stripCommentsAndStrings(content);
}

std::size_t
lineOfOffset(const std::string &text, std::size_t offset)
{
    return 1 + std::size_t(std::count(
                   text.begin(),
                   text.begin() +
                       std::ptrdiff_t(std::min(offset, text.size())),
                   '\n'));
}

} // namespace detail

namespace
{

using detail::lineOfOffset;
using detail::stripCommentsAndStrings;

bool
isHeaderPath(const std::string &path)
{
    auto ends = [&](const char *suffix) {
        std::string s(suffix);
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return ends(".hh") || ends(".hpp");
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** Does `rule` apply to this path at all? */
bool
ruleApplies(const Rule &rule, const std::string &path)
{
    if (rule.headersOnly && !isHeaderPath(path))
        return false;
    for (const std::string &ex : rule.excludePrefixes)
        if (startsWith(path, ex))
            return false;
    if (rule.includePrefixes.empty())
        return true;
    for (const std::string &in : rule.includePrefixes)
        if (startsWith(path, in))
            return true;
    return false;
}

/** Split a file into raw lines (newline excluded). */
std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= content.size()) {
        std::size_t end = content.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(content.substr(start));
            break;
        }
        lines.push_back(content.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

/** Per-file suppression state parsed from viva-lint comments. */
struct Suppressions
{
    std::set<std::string> fileWide;
    /** line (1-based) -> rules allowed on that line */
    std::map<std::size_t, std::set<std::string>> perLine;

    bool
    allows(const std::string &rule, std::size_t line) const
    {
        if (fileWide.count(rule))
            return true;
        auto it = perLine.find(line);
        return it != perLine.end() && it->second.count(rule) != 0;
    }
};

/** Split "a, b c" into trimmed tokens. */
std::vector<std::string>
splitIds(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : list) {
        if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

Suppressions
parseSuppressions(const std::vector<std::string> &rawLines,
                  const std::vector<std::string> &strippedLines)
{
    static const std::regex allowRe(
        R"(viva-lint:\s*allow\(([^)]*)\))");
    static const std::regex allowFileRe(
        R"(viva-lint:\s*allow-file\(([^)]*)\))");

    Suppressions sup;
    for (std::size_t i = 0; i < rawLines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(rawLines[i], m, allowFileRe))
            for (const std::string &id : splitIds(m[1].str()))
                sup.fileWide.insert(id);
        if (!std::regex_search(rawLines[i], m, allowRe))
            continue;
        std::set<std::string> &line = sup.perLine[i + 1];
        for (const std::string &id : splitIds(m[1].str()))
            line.insert(id);
        // A comment-only line also covers the line that follows it.
        const std::string &code =
            i < strippedLines.size() ? strippedLines[i] : rawLines[i];
        bool codeless = std::all_of(
            code.begin(), code.end(), [](unsigned char c) {
                return std::isspace(c) != 0;
            });
        if (codeless)
            for (const std::string &id : splitIds(m[1].str()))
                sup.perLine[i + 2].insert(id);
    }
    return sup;
}

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/** Whole-word occurrence check. */
bool
containsWord(const std::string &text, const std::string &word)
{
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        bool left = pos == 0 || !isWordChar(text[pos - 1]);
        std::size_t end = pos + word.size();
        bool right = end >= text.size() || !isWordChar(text[end]);
        if (left && right)
            return true;
        pos = end;
    }
    return false;
}

/** Names of `using X = ...unordered_map/set...` aliases in one file. */
std::vector<std::string>
unorderedAliases(const std::string &stripped)
{
    static const std::regex aliasRe(
        R"(using\s+(\w+)\s*=\s*[\w:\s]*\bunordered_(?:map|set)\s*<)");
    std::vector<std::string> out;
    auto begin = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      aliasRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        out.push_back((*it)[1].str());
    return out;
}

/**
 * Variable names declared with an unordered container type in one
 * file's stripped text -- direct declarations plus declarations through
 * any of the known aliases.
 */
std::set<std::string>
unorderedVariables(const std::string &stripped,
                   const std::vector<std::string> &aliases)
{
    std::set<std::string> vars;

    // Direct declarations: unordered_map< ... > [&*] name [;=({,)]
    std::size_t pos = 0;
    while (true) {
        std::size_t mapPos = stripped.find("unordered_map", pos);
        std::size_t setPos = stripped.find("unordered_set", pos);
        std::size_t hit = std::min(mapPos, setPos);
        if (hit == std::string::npos)
            break;
        pos = hit + 13;  // strlen("unordered_map")

        // Part of an alias definition: the alias pass owns it.
        std::size_t back = hit;
        while (back > 0 && std::isspace(static_cast<unsigned char>(
                               stripped[back - 1])))
            --back;
        // Skip over the "std::" qualifier, if any.
        while (back >= 2 && stripped.compare(back - 2, 2, "::") == 0) {
            back -= 2;
            while (back > 0 && isWordChar(stripped[back - 1]))
                --back;
            while (back > 0 && std::isspace(static_cast<unsigned char>(
                                   stripped[back - 1])))
                --back;
        }
        if (back > 0 && stripped[back - 1] == '=')
            continue;

        // Balanced template argument list.
        std::size_t i = pos;
        while (i < stripped.size() && std::isspace(
                   static_cast<unsigned char>(stripped[i])))
            ++i;
        if (i >= stripped.size() || stripped[i] != '<')
            continue;
        int depth = 0;
        for (; i < stripped.size(); ++i) {
            if (stripped[i] == '<')
                ++depth;
            else if (stripped[i] == '>' && --depth == 0) {
                ++i;
                break;
            }
        }
        if (depth != 0)
            continue;

        // Optional ref/pointer, then the declared name.
        while (i < stripped.size() &&
               (std::isspace(static_cast<unsigned char>(stripped[i])) ||
                stripped[i] == '&' || stripped[i] == '*'))
            ++i;
        std::size_t nameStart = i;
        while (i < stripped.size() && isWordChar(stripped[i]))
            ++i;
        if (i == nameStart)
            continue;
        std::string name = stripped.substr(nameStart, i - nameStart);
        while (i < stripped.size() && std::isspace(
                   static_cast<unsigned char>(stripped[i])))
            ++i;
        char after = i < stripped.size() ? stripped[i] : '\0';
        if (after == ';' || after == '=' || after == '(' ||
            after == '{' || after == ',' || after == ')')
            vars.insert(name);
        pos = i;
    }

    // Alias-typed declarations: [const] Alias [&*] name
    for (const std::string &alias : aliases) {
        std::regex declRe("\\b" + alias +
                          R"+(\b[\s&*]+(\w+)\s*[;=({,)])+");
        auto begin = std::sregex_iterator(stripped.begin(),
                                          stripped.end(), declRe);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            vars.insert((*it)[1].str());
    }
    return vars;
}

/** Add a finding unless suppressed. */
void
report(std::vector<Finding> &out, const Suppressions &sup,
       const std::string &file, std::size_t line,
       const std::string &rule, const std::string &message)
{
    if (sup.allows(rule, line))
        return;
    out.push_back({file, line, rule, message});
}

/**
 * unordered-iter: flag range-for statements whose range expression
 * names a tracked unordered variable, and explicit .begin()/.cbegin()
 * calls on one.
 */
void
checkUnorderedIteration(const FileInput &file,
                        const std::string &stripped,
                        const std::set<std::string> &vars,
                        const Suppressions &sup,
                        std::vector<Finding> &out)
{
    if (vars.empty())
        return;

    // Range-for statements.
    std::size_t pos = 0;
    while ((pos = stripped.find("for", pos)) != std::string::npos) {
        std::size_t at = pos;
        pos += 3;
        bool left = at == 0 || !isWordChar(stripped[at - 1]);
        bool right = at + 3 >= stripped.size() ||
                     !isWordChar(stripped[at + 3]);
        if (!left || !right)
            continue;
        std::size_t open = at + 3;
        while (open < stripped.size() && std::isspace(
                   static_cast<unsigned char>(stripped[open])))
            ++open;
        if (open >= stripped.size() || stripped[open] != '(')
            continue;
        int depth = 0;
        std::size_t close = open;
        std::size_t colon = std::string::npos;
        bool hasSemicolon = false;
        for (std::size_t i = open; i < stripped.size(); ++i) {
            char c = stripped[i];
            if (c == '(' || c == '[' || c == '{')
                ++depth;
            else if (c == ')' || c == ']' || c == '}') {
                --depth;
                if (depth == 0 && c == ')') {
                    close = i;
                    break;
                }
            } else if (depth == 1 && c == ';') {
                hasSemicolon = true;
            } else if (depth == 1 && c == ':' &&
                       colon == std::string::npos) {
                bool dbl =
                    (i > 0 && stripped[i - 1] == ':') ||
                    (i + 1 < stripped.size() && stripped[i + 1] == ':');
                if (!dbl)
                    colon = i;
            }
        }
        if (close == open || hasSemicolon ||
            colon == std::string::npos)
            continue;
        std::string range = stripped.substr(colon + 1,
                                            close - colon - 1);
        for (const std::string &name : vars) {
            if (!containsWord(range, name))
                continue;
            report(out, sup, file.path,
                   lineOfOffset(stripped, at), "unordered-iter",
                   "range-for over unordered container '" + name +
                       "': iteration order is not deterministic");
            break;
        }
    }

    // Explicit iterator walks.
    for (const std::string &name : vars) {
        std::regex beginRe("\\b" + name + R"(\s*\.\s*c?begin\s*\()");
        auto it = std::sregex_iterator(stripped.begin(),
                                       stripped.end(), beginRe);
        for (; it != std::sregex_iterator(); ++it)
            report(out, sup, file.path,
                   lineOfOffset(stripped,
                                std::size_t(it->position())),
                   "unordered-iter",
                   "iterator walk over unordered container '" + name +
                       "': iteration order is not deterministic");
    }
}

/**
 * raw-new-delete: new/delete expressions. `= delete;` (deleted special
 * members) is declaration syntax, not a deallocation, so `delete`
 * preceded by '=' is skipped.
 */
void
checkNewDelete(const FileInput &file, const std::string &stripped,
               const Suppressions &sup, std::vector<Finding> &out)
{
    static const std::regex newRe(R"(\bnew\b\s*[A-Za-z_:(<\[])");
    auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                   newRe);
    for (; it != std::sregex_iterator(); ++it)
        report(out, sup, file.path,
               lineOfOffset(stripped, std::size_t(it->position())),
               "raw-new-delete",
               "raw new expression; use containers or smart pointers");

    std::size_t pos = 0;
    while ((pos = stripped.find("delete", pos)) != std::string::npos) {
        std::size_t at = pos;
        pos += 6;
        bool left = at == 0 || !isWordChar(stripped[at - 1]);
        bool right = at + 6 >= stripped.size() ||
                     !isWordChar(stripped[at + 6]);
        if (!left || !right)
            continue;
        std::size_t back = at;
        while (back > 0 && std::isspace(static_cast<unsigned char>(
                               stripped[back - 1])))
            --back;
        if (back > 0 && stripped[back - 1] == '=')
            continue;  // deleted special member, not a deallocation
        report(out, sup, file.path, lineOfOffset(stripped, at),
               "raw-new-delete",
               "raw delete expression; use containers or smart "
               "pointers");
    }
}

/** Apply one simple regex rule over stripped text. */
void
checkPattern(const FileInput &file, const std::string &stripped,
             const std::regex &re, const std::string &rule,
             const std::string &message, const Suppressions &sup,
             std::vector<Finding> &out)
{
    auto begin = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      re);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        report(out, sup, file.path,
               lineOfOffset(stripped, std::size_t(it->position())),
               rule, message);
}

/** pragma-once: the first directive/code line must be #pragma once. */
void
checkPragmaOnce(const FileInput &file,
                const std::vector<std::string> &rawLines,
                const std::vector<std::string> &strippedLines,
                const Suppressions &sup, std::vector<Finding> &out)
{
    static const std::regex pragmaRe(R"(^\s*#\s*pragma\s+once\b)");
    for (std::size_t i = 0; i < strippedLines.size(); ++i) {
        const std::string &code = strippedLines[i];
        bool blank = std::all_of(
            code.begin(), code.end(), [](unsigned char c) {
                return std::isspace(c) != 0;
            });
        if (blank)
            continue;
        if (!std::regex_search(rawLines[i], pragmaRe))
            report(out, sup, file.path, i + 1, "pragma-once",
                   "header does not start with #pragma once");
        return;
    }
    report(out, sup, file.path, 1, "pragma-once",
           "header has no #pragma once");
}

/** include-hygiene: '..' include segments; using namespace in headers. */
void
checkIncludeHygiene(const FileInput &file,
                    const std::vector<std::string> &rawLines,
                    const std::vector<std::string> &strippedLines,
                    const Suppressions &sup, std::vector<Finding> &out)
{
    static const std::regex includeRe(
        R"(^\s*#\s*include\s*([<"])([^">]+)[">])");
    static const std::regex usingNamespaceRe(
        R"(^\s*using\s+namespace\b)");

    for (std::size_t i = 0; i < rawLines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(rawLines[i], m, includeRe) &&
            m[2].str().find("..") != std::string::npos)
            report(out, sup, file.path, i + 1, "include-hygiene",
                   "#include path '" + m[2].str() +
                       "' contains a '..' segment");
        if (isHeaderPath(file.path) && i < strippedLines.size() &&
            std::regex_search(strippedLines[i], usingNamespaceRe))
            report(out, sup, file.path, i + 1, "include-hygiene",
                   "`using namespace` in a header leaks into every "
                   "includer");
    }
}

/**
 * narrowing: a 32-bit-or-smaller integer declared and initialized
 * straight from a size query (size_t -> int), or an unsigned integer
 * initialized from a negative literal (int -> uint32_t wrap). Explicit
 * static_casts in the initializer are the sanctioned spelling and do
 * not fire.
 */
void
checkNarrowing(const FileInput &file, const std::string &stripped,
               const Suppressions &sup, std::vector<Finding> &out)
{
    // int-family declaration = ... .size()/.length() ...
    static const std::regex sizeInitRe(
        R"(\b(?:int|short|u?int(?:8|16|32)_t|unsigned(?:\s+int)?)\s+\w+\s*=([^;]*?\.(?:size|length)\s*\(\s*\)[^;]*))");
    auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                   sizeInitRe);
    for (; it != std::sregex_iterator(); ++it) {
        if ((*it)[1].str().find("static_cast<") != std::string::npos)
            continue;
        report(out, sup, file.path,
               lineOfOffset(stripped, std::size_t(it->position())),
               "narrowing",
               "size_t-valued initializer narrowed into a small "
               "integer; use std::size_t or spell a static_cast");
    }

    // unsigned-family declaration = -<literal>
    static const std::regex negInitRe(
        R"(\b(?:unsigned(?:\s+int)?|uint(?:8|16|32|64)_t|size_t)\s+\w+\s*=\s*-\s*\d)");
    auto nt = std::sregex_iterator(stripped.begin(), stripped.end(),
                                   negInitRe);
    for (; nt != std::sregex_iterator(); ++nt)
        report(out, sup, file.path,
               lineOfOffset(stripped, std::size_t(nt->position())),
               "narrowing",
               "negative literal wrapped into an unsigned integer; "
               "use a signed type or spell the intent with a "
               "static_cast");
}

/** Balanced-paren argument text starting at an opening '('. */
std::string
parenArgument(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(')
            ++depth;
        else if (text[i] == ')' && --depth == 0)
            return text.substr(open + 1, i - open - 1);
    }
    return text.substr(open + 1);
}

/** Does an expression mutate state (++/--/assignment/mutator call)? */
bool
hasSideEffect(const std::string &expr)
{
    for (std::size_t i = 0; i + 1 < expr.size(); ++i)
        if ((expr[i] == '+' && expr[i + 1] == '+') ||
            (expr[i] == '-' && expr[i + 1] == '-'))
            return true;

    for (std::size_t i = 0; i < expr.size(); ++i) {
        if (expr[i] != '=')
            continue;
        const char prev = i > 0 ? expr[i - 1] : '\0';
        const char next = i + 1 < expr.size() ? expr[i + 1] : '\0';
        // ==, !=, <=, >= and the second '=' of == are comparisons;
        // [=] is a capture default. Anything else (including += etc.)
        // assigns.
        if (next == '=' || prev == '=' || prev == '<' || prev == '>' ||
            prev == '!' || prev == '[')
            continue;
        return true;
    }

    static const std::regex mutatorRe(
        R"(\.\s*(?:insert|erase|push_back|pop_back|emplace|emplace_back|clear|resize)\s*\()");
    return std::regex_search(expr, mutatorRe);
}

/**
 * assert-side-effect: mutation inside assert()/VIVA_ASSERT()/
 * VIVA_AUDIT() arguments. The whole expression disappears in
 * NDEBUG/no-audit builds, so the mutation silently changes behaviour
 * between build modes.
 */
void
checkAssertSideEffect(const FileInput &file, const std::string &stripped,
                      const Suppressions &sup,
                      std::vector<Finding> &out)
{
    static const std::regex callRe(
        R"(\b(assert|VIVA_ASSERT|VIVA_AUDIT)\s*\()");
    auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                   callRe);
    for (; it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            std::size_t(it->position()) + it->length() - 1;
        if (!hasSideEffect(parenArgument(stripped, open)))
            continue;
        report(out, sup, file.path,
               lineOfOffset(stripped, std::size_t(it->position())),
               "assert-side-effect",
               "side effect inside " + (*it)[1].str() +
                   "(): the expression vanishes when the check is "
                   "compiled out");
    }
}

/** The companion header of a .cc file ("src/x/y.cc" -> "src/x/y.hh"). */
std::string
companionHeader(const std::string &path)
{
    std::size_t dot = path.rfind('.');
    if (dot == std::string::npos)
        return {};
    return path.substr(0, dot) + ".hh";
}

} // namespace

std::vector<Finding>
runLint(const std::vector<FileInput> &files, std::size_t jobs)
{
    const std::size_t n = files.size();

    // std::regex narrows pattern characters through the global
    // locale's ctype<char>, whose narrow() fills a lazy per-character
    // cache on first use. Fill it here, before workers compile
    // patterns concurrently, so no two of them write one cache slot.
    const auto &ctype = std::use_facet<std::ctype<char>>(std::locale());
    for (int c = 0; c < 256; ++c)
        (void)ctype.narrow(static_cast<char>(c), '\0');

    // Chunk bodies write only their own index's slot, so parallel
    // passes merge into the same state serial ones produce.
    auto perFile = [&](const std::function<void(std::size_t)> &fn) {
        support::ThreadPool::global().parallelFor(
            0, n, 1, jobs, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    fn(i);
            });
    };

    // Pass 1: per-file stripped text and alias names, merged in file
    // order (the global alias set is sorted afterwards anyway).
    std::vector<std::string> strippedAll(n);
    std::vector<std::vector<std::string>> aliasesPer(n);
    perFile([&](std::size_t i) {
        strippedAll[i] = stripCommentsAndStrings(files[i].content);
        aliasesPer[i] = unorderedAliases(strippedAll[i]);
    });
    std::vector<std::string> aliases;
    for (std::vector<std::string> &per : aliasesPer)
        for (std::string &name : per)
            aliases.push_back(std::move(name));
    std::sort(aliases.begin(), aliases.end());
    aliases.erase(std::unique(aliases.begin(), aliases.end()),
                  aliases.end());

    // Pass 2: per-file unordered variable names (a .cc also sees the
    // members its companion header declares).
    std::vector<std::set<std::string>> fileVars(n);
    std::map<std::string, std::size_t> indexByPath;
    for (std::size_t i = 0; i < n; ++i)
        indexByPath[files[i].path] = i;
    perFile([&](std::size_t i) {
        fileVars[i] = unorderedVariables(strippedAll[i], aliases);
    });
    for (std::size_t i = 0; i < files.size(); ++i) {
        auto it = indexByPath.find(companionHeader(files[i].path));
        if (it == indexByPath.end() || it->second == i)
            continue;
        fileVars[i].insert(fileVars[it->second].begin(),
                           fileVars[it->second].end());
    }

    static const std::regex randomRe(
        R"(\b(?:rand|srand)\s*\(|\brandom_device\b)");
    static const std::regex floatRe(R"(\bfloat\b)");
    static const std::regex wallClockRe(
        R"(\bsystem_clock\b|\bgettimeofday\b|\btime\s*\(|\blocaltime\b|\bgmtime\b|\bctime\b)");
    static const std::regex rawChronoRe(
        R"(\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()");
    static const std::regex fatalRe(R"(\b(?:fatal|panic)\s*\()");
    static const std::regex renameRe(
        R"(\b(?:std\s*::\s*|filesystem\s*::\s*)rename\s*\()");

    // Per-file finding buffers, concatenated in file order, keep the
    // within-file rule order identical to a serial run (the final sort
    // is stable and keys on file/line only).
    std::vector<std::vector<Finding>> outPer(n);
    perFile([&](std::size_t i) {
        const FileInput &file = files[i];
        const std::string &stripped = strippedAll[i];
        std::vector<Finding> &out = outPer[i];
        std::vector<std::string> rawLines = splitLines(file.content);
        std::vector<std::string> strippedLines = splitLines(stripped);
        Suppressions sup = parseSuppressions(rawLines, strippedLines);

        auto active = [&](const char *id) {
            for (const Rule &rule : ruleTable())
                if (rule.id == id)
                    return ruleApplies(rule, file.path);
            return false;
        };

        if (active("unordered-iter"))
            checkUnorderedIteration(file, stripped, fileVars[i], sup,
                                    out);
        if (active("raw-random"))
            checkPattern(file, stripped, randomRe, "raw-random",
                         "raw randomness; use the seeded support::Rng",
                         sup, out);
        if (active("raw-new-delete"))
            checkNewDelete(file, stripped, sup, out);
        if (active("float-type"))
            checkPattern(file, stripped, floatRe, "float-type",
                         "float in deterministic math; the contract is "
                         "specified over doubles",
                         sup, out);
        if (active("wall-clock"))
            checkPattern(file, stripped, wallClockRe, "wall-clock",
                         "wall-clock read in a deterministic code path",
                         sup, out);
        if (active("raw-chrono"))
            checkPattern(file, stripped, rawChronoRe, "raw-chrono",
                         "direct chrono clock read; measure time "
                         "through support::clock() so a FakeClock can "
                         "stand in",
                         sup, out);
        if (active("no-fatal-below-app"))
            checkPattern(file, stripped, fatalRe, "no-fatal-below-app",
                         "fatal()/panic() below the app layer; return "
                         "support::Expected instead",
                         sup, out);
        if (active("raw-rename"))
            checkPattern(file, stripped, renameRe, "raw-rename",
                         "raw rename; route the atomic swap through "
                         "support::atomicReplace so the crash-safety "
                         "protocol stays in one audited place",
                         sup, out);
        if (active("narrowing"))
            checkNarrowing(file, stripped, sup, out);
        if (active("assert-side-effect"))
            checkAssertSideEffect(file, stripped, sup, out);
        if (active("pragma-once"))
            checkPragmaOnce(file, rawLines, strippedLines, sup, out);
        if (active("include-hygiene"))
            checkIncludeHygiene(file, rawLines, strippedLines, sup,
                                out);
    });

    std::vector<Finding> out;
    for (std::vector<Finding> &per : outPer)
        for (Finding &f : per)
            out.push_back(std::move(f));

    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
    return out;
}

std::string
formatFinding(const Finding &finding)
{
    std::ostringstream os;
    os << finding.file << ':' << finding.line << ": [" << finding.rule
       << "] " << finding.message;
    return os.str();
}

} // namespace viva::lint
