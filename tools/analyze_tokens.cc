/**
 * @file
 * The Token and Flow passes of viva-analyze. Token rules read one
 * file's token stream; unordered-iter also learns, across the tree,
 * which `using` aliases name unordered containers and which members a
 * .cc file's companion header declares. Flow rules follow values
 * across statements, with a pre-pass that harvests the functions whose
 * declared return type is support::Expected<T> or support::Error.
 */

#include <algorithm>
#include <sstream>

#include "tools/analyze_internal.hh"

namespace viva::analyze
{

namespace
{

// --- unordered-iter ---------------------------------------------------

bool
isUnorderedName(const Token &t)
{
    return isIdent(t, "unordered_map") || isIdent(t, "unordered_set");
}

/** Index after the '>' closing the template list at `open`, or kNone. */
std::size_t
skipTemplateArgs(const std::vector<Token> &code, std::size_t open)
{
    const std::size_t close = skipAngles(code, open);
    return close == kNone ? kNone : close + 1;
}

/** Names of `using X = [std::]unordered_map<...>` aliases. */
void
unorderedAliases(const std::vector<Token> &code,
                 std::vector<std::string> &out)
{
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
        if (!isIdent(code[i], "using") ||
            code[i + 1].kind != Tok::Identifier ||
            !isPunct(code[i + 2], "="))
            continue;
        for (std::size_t j = i + 3; j < code.size(); ++j) {
            if (isUnorderedName(code[j])) {
                if (isPunct(at(code, j + 1), "<"))
                    out.push_back(code[i + 1].text);
                break;
            }
            if (code[j].kind != Tok::Identifier &&
                !isPunct(code[j], "::"))
                break;
        }
    }
}

/** The variable declared at `i` (after refs/pointers), if any. */
bool
declaredName(const std::vector<Token> &code, std::size_t i,
             std::string &name)
{
    while (isPunct(at(code, i), "&") || isPunct(at(code, i), "*") ||
           isPunct(at(code, i), "&&"))
        ++i;
    if (at(code, i).kind != Tok::Identifier)
        return false;
    const Token &after = at(code, i + 1);
    if (after.kind != Tok::Punct ||
        (after.text != ";" && after.text != "=" && after.text != "(" &&
         after.text != "{" && after.text != "," && after.text != ")"))
        return false;
    name = code[i].text;
    return true;
}

/** Variables declared with an unordered type, directly or by alias. */
std::set<std::string>
unorderedVariables(const std::vector<Token> &code,
                   const std::set<std::string> &aliases)
{
    std::set<std::string> vars;
    std::string name;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (code[i].kind != Tok::Identifier)
            continue;
        if (aliases.count(code[i].text)) {
            if (declaredName(code, i + 1, name))
                vars.insert(name);
            continue;
        }
        if (!isUnorderedName(code[i]) || !isPunct(at(code, i + 1), "<"))
            continue;
        // `using X = std::unordered_map<...>` belongs to the aliases.
        std::size_t b = i;
        while (b >= 2 && isPunct(code[b - 1], "::") &&
               code[b - 2].kind == Tok::Identifier)
            b -= 2;
        if (b >= 1 && isPunct(code[b - 1], "="))
            continue;
        const std::size_t after = skipTemplateArgs(code, i + 1);
        if (after != kNone && declaredName(code, after, name))
            vars.insert(name);
    }
    return vars;
}

void
checkUnorderedIteration(const Unit &unit, const std::set<std::string> &vars,
                        std::vector<Finding> &out)
{
    const std::vector<Token> &code = unit.code;
    for (std::size_t i = 0; i < code.size() && !vars.empty(); ++i) {
        if (isIdent(code[i], "for") && isPunct(at(code, i + 1), "(")) {
            const std::size_t close = matchClose(code, i + 1);
            std::size_t colon = kNone;
            long depth = 0;
            for (std::size_t j = i + 1; j < close && close != kNone; ++j) {
                const std::string &s = code[j].text;
                if (code[j].kind != Tok::Punct)
                    continue;
                if (s == "(" || s == "[" || s == "{")
                    ++depth;
                else if (s == ")" || s == "]" || s == "}")
                    --depth;
                else if (depth == 1 && s == ";") {
                    colon = kNone;  // a classic for: no range
                    break;
                } else if (depth == 1 && s == ":" && colon == kNone)
                    colon = j;
            }
            if (colon == kNone)
                continue;
            std::set<std::string> named;
            for (std::size_t j = colon + 1; j < close; ++j)
                if (code[j].kind == Tok::Identifier &&
                    vars.count(code[j].text))
                    named.insert(code[j].text);
            if (!named.empty())
                report(out, unit, code[i].line, "unordered-iter",
                       "range-for over unordered container '" +
                           *named.begin() +
                           "': iteration order is not deterministic");
        } else if (code[i].kind == Tok::Identifier &&
                   vars.count(code[i].text) &&
                   isPunct(at(code, i + 1), ".") &&
                   (isIdent(at(code, i + 2), "begin") ||
                    isIdent(at(code, i + 2), "cbegin")) &&
                   isPunct(at(code, i + 3), "(")) {
            report(out, unit, code[i].line, "unordered-iter",
                   "iterator walk over unordered container '" +
                       code[i].text +
                       "': iteration order is not deterministic");
        }
    }
}

// --- the single-token rules -------------------------------------------

/** Does the argument list code(open, close) mutate anything? */
bool
hasSideEffect(const std::vector<Token> &code, std::size_t open,
              std::size_t close)
{
    static const std::set<std::string> assign = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
        "++", "--"};
    static const std::set<std::string> mutators = {
        "insert", "erase", "push_back", "pop_back", "emplace",
        "emplace_back", "clear", "resize"};
    for (std::size_t j = open + 1; j < close; ++j) {
        const Token &t = code[j];
        if (t.kind != Tok::Punct)
            continue;
        if (assign.count(t.text) && !(t.text == "=" &&
                                      isPunct(code[j - 1], "[")))
            return true;  // [=] is a capture default, not a store
        if ((t.text == "." || t.text == "->") &&
            mutators.count(at(code, j + 1).text) &&
            isPunct(at(code, j + 2), "("))
            return true;
    }
    return false;
}

void
checkSingleTokens(const Unit &unit, std::vector<Finding> &out)
{
    const std::string &path = unit.file->path;
    const bool random = ruleApplies("raw-random", path);
    const bool alloc = ruleApplies("raw-new-delete", path);
    const bool floats = ruleApplies("float-type", path);
    const bool rename = ruleApplies("raw-rename", path);
    const bool asserts = ruleApplies("assert-side-effect", path);
    const bool hygiene = ruleApplies("include-hygiene", path);
    const std::vector<Token> &code = unit.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &t = code[i];
        const Token &next = at(code, i + 1);
        const std::size_t line = t.line;
        if (t.kind == Tok::Punct) {
            if (hygiene && t.text == "#" && t.inPreproc &&
                isIdent(next, "include")) {
                const std::string &src = unit.file->content;
                const std::string raw = src.substr(
                    next.end, src.find('\n', next.end) - next.end);
                const std::size_t q = raw.find_first_of("\"<");
                const std::size_t e =
                    q == std::string::npos
                        ? q
                        : raw.find(raw[q] == '"' ? '"' : '>', q + 1);
                const std::string target =
                    e == std::string::npos ? "" : raw.substr(q + 1, e - q - 1);
                if (target.find("..") != std::string::npos)
                    report(out, unit, line, "include-hygiene",
                           "#include path '" + target +
                               "' contains a '..' segment");
            }
            continue;
        }
        if (t.kind != Tok::Identifier)
            continue;
        const std::string &s = t.text;
        if (random && (((s == "rand" || s == "srand") &&
                        isPunct(next, "(")) ||
                       s == "random_device"))
            report(out, unit, line, "raw-random",
                   "raw randomness; use the seeded support::Rng");
        if (alloc && s == "new" &&
            (next.kind == Tok::Identifier || isPunct(next, "::") ||
             isPunct(next, "(") || isPunct(next, "<") ||
             isPunct(next, "[")))
            report(out, unit, line, "raw-new-delete",
                   "raw new expression; use containers or smart "
                   "pointers");
        if (alloc && s == "delete" && !(i > 0 && isPunct(code[i - 1], "=")))
            report(out, unit, line, "raw-new-delete",
                   "raw delete expression; use containers or smart "
                   "pointers");
        if (floats && s == "float")
            report(out, unit, line, "float-type",
                   "float in deterministic math; the contract is "
                   "specified over doubles");
        if (rename && s == "rename" && isPunct(next, "(") && i >= 2 &&
            isPunct(code[i - 1], "::") &&
            (isIdent(code[i - 2], "std") ||
             isIdent(code[i - 2], "filesystem")))
            report(out, unit, line, "raw-rename",
                   "raw rename; route the atomic swap through "
                   "support::atomicReplace");
        if (asserts &&
            (s == "assert" || s == "VIVA_ASSERT" || s == "VIVA_AUDIT") &&
            isPunct(next, "(")) {
            const std::size_t close = matchClose(code, i + 1);
            if (close != kNone && hasSideEffect(code, i + 1, close))
                report(out, unit, line, "assert-side-effect",
                       "side effect inside " + s +
                           "(): the expression vanishes when the check "
                           "is compiled out");
        }
        if (hygiene && isHeaderPath(path) && s == "using" &&
            isIdent(next, "namespace") && !t.inPreproc)
            report(out, unit, line, "include-hygiene",
                   "`using namespace` in a header leaks into every "
                   "includer");
    }
}

void
checkPragmaOnce(const Unit &unit, std::vector<Finding> &out)
{
    const std::vector<Token> &code = unit.code;
    if (code.empty()) {
        report(out, unit, 1, "pragma-once", "header has no #pragma once");
        return;
    }
    if (!(isPunct(code[0], "#") && isIdent(at(code, 1), "pragma") &&
          isIdent(at(code, 2), "once") && at(code, 2).inPreproc &&
          at(code, 2).line == code[0].line))
        report(out, unit, code[0].line, "pragma-once",
               "header does not start with #pragma once");
}

// --- unchecked-expected -----------------------------------------------

/** Index of the '(' matching the ')' at `close`, or kNone. */
std::size_t
matchOpen(const std::vector<Token> &code, std::size_t close)
{
    long depth = 0;
    for (std::size_t i = close + 1; i-- > 0;) {
        if (isPunct(code[i], ")"))
            ++depth;
        else if (isPunct(code[i], "(") && --depth == 0)
            return i;
    }
    return kNone;
}

/** Names declared in headers with an Expected<...> or Error return. */
void
harvestCallees(const std::vector<Token> &code, std::set<std::string> &out)
{
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (isIdent(code[i], "Error") &&
            at(code, i + 1).kind == Tok::Identifier &&
            isPunct(at(code, i + 2), "(")) {
            out.insert(code[i + 1].text);
            continue;
        }
        if (!isIdent(code[i], "Expected") || !isPunct(at(code, i + 1), "<"))
            continue;
        const std::size_t k = skipTemplateArgs(code, i + 1);
        if (k != kNone && at(code, k).kind == Tok::Identifier &&
            isPunct(at(code, k + 1), "("))
            out.insert(code[k].text);
    }
}

/**
 * Start of the postfix chain (`a.b->c::callee`) that ends at `callee`,
 * or kNone for an unfamiliar shape (conservatively a use).
 */
std::size_t
chainStart(const std::vector<Token> &code, std::size_t callee)
{
    std::size_t j = callee;
    while (j > 0) {
        const Token &sep = code[j - 1];
        if (!isPunct(sep, ".") && !isPunct(sep, "->") &&
            !isPunct(sep, "::"))
            break;
        if (j < 2)
            return kNone;
        if (code[j - 2].kind == Tok::Identifier) {
            j -= 2;
            continue;
        }
        if (!isPunct(code[j - 2], ")"))
            return kNone;
        const std::size_t open = matchOpen(code, j - 2);
        if (open == kNone || open == 0 ||
            code[open - 1].kind != Tok::Identifier)
            return kNone;
        j = open - 1;  // a call in the chain: `name( ... )`
    }
    return j;
}

/**
 * Is the chain at `first` the root of an expression statement?
 * Control-clause closers and explicit `(void)` casts still discard.
 */
bool
isDiscardPosition(const std::vector<Token> &code, std::size_t first,
                  bool &voidCast)
{
    voidCast = false;
    if (first == 0)
        return true;
    const Token &p = code[first - 1];
    if (p.kind == Tok::Identifier)
        return p.text == "else" || p.text == "do";
    if (p.kind != Tok::Punct)
        return false;
    const std::string &s = p.text;
    if (s == ";" || s == "{" || s == "}")
        return true;
    if (s == ":") {
        // `case X:` and labels open a statement; `c ? a() : b()` does
        // not, and neither does a colon inside brackets.
        long depth = 0;
        for (std::size_t j = first - 1; j-- > 0;) {
            const std::string &q = code[j].text;
            if (code[j].kind != Tok::Punct)
                continue;
            if (q == ")" || q == "]")
                ++depth;
            else if ((q == "(" || q == "[") && depth-- == 0)
                return false;
            else if (depth == 0 && q == "?")
                return false;
            else if (depth == 0 && (q == ";" || q == "{" || q == "}"))
                return true;
        }
        return true;
    }
    if (s != ")")
        return false;
    const std::size_t open = matchOpen(code, first - 1);
    if (open == kNone)
        return false;
    if (open + 2 == first - 1 && code[open + 1].text == "void") {
        voidCast = true;
        return true;
    }
    if (open == 0)
        return false;
    const std::string &kw = code[open - 1].text;
    return kw == "if" || kw == "for" || kw == "while" || kw == "switch";
}

void
checkUncheckedExpected(const Unit &unit,
                       const std::set<std::string> &callees,
                       std::vector<Finding> &out)
{
    const std::vector<Token> &code = unit.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &t = code[i];
        if (t.kind != Tok::Identifier || t.inPreproc ||
            !callees.count(t.text) || !isPunct(at(code, i + 1), "("))
            continue;
        const std::size_t close = matchClose(code, i + 1);
        if (close == kNone || !isPunct(at(code, close + 1), ";"))
            continue;  // chained, compared, passed on, ...
        const std::size_t first = chainStart(code, i);
        bool voidCast = false;
        if (first == kNone || !isDiscardPosition(code, first, voidCast))
            continue;
        report(out, unit, t.line, "unchecked-expected",
               std::string(voidCast ? "explicitly discarded"
                                    : "discarded") +
                   " result of '" + t.text +
                   "', which returns support::Expected; bind it, test "
                   "it, or waive with a rationale");
    }
}

// --- context-on-propagate ---------------------------------------------

void
checkContextOnPropagate(const Unit &unit,
                        const std::set<std::string> &callees,
                        std::vector<Finding> &out)
{
    const std::vector<Token> &code = unit.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (!isIdent(code[i], "return") || code[i].inPreproc)
            continue;
        // The statement runs to the ';' at bracket depth zero.
        long depth = 0;
        std::size_t end = kNone;
        bool hasContext = false;
        bool propagatesError = false;
        for (std::size_t j = i + 1; j < code.size() && depth >= 0; ++j) {
            const std::string &s = code[j].text;
            if (s == "VIVA_ERROR_CONTEXT" || s == "VIVA_ERROR")
                hasContext = true;
            if (code[j].kind == Tok::Identifier && s == "error" &&
                isPunct(at(code, j + 1), "(") &&
                (isPunct(code[j - 1], ".") || isPunct(code[j - 1], "->")))
                propagatesError = true;
            if (code[j].kind != Tok::Punct)
                continue;
            if (s == "(" || s == "[" || s == "{")
                ++depth;
            else if (s == ")" || s == "]" || s == "}")
                --depth;
            else if (s == ";" && depth == 0) {
                end = j;
                break;
            }
        }
        if (end == kNone || end == i + 1 || hasContext)
            continue;
        if (propagatesError) {
            report(out, unit, code[i].line, "context-on-propagate",
                   "a callee's .error() is returned without "
                   "VIVA_ERROR_CONTEXT; the diagnostic loses this "
                   "layer's frame");
            continue;
        }
        // `return a.b::callee(...);`: one whole call to an Expected
        // function, handed up as it is.
        std::size_t k = i + 1;
        if (code[k].kind != Tok::Identifier)
            continue;
        std::string last = code[k++].text;
        while (k + 1 < end &&
               (isPunct(code[k], "::") || isPunct(code[k], ".") ||
                isPunct(code[k], "->")) &&
               code[k + 1].kind == Tok::Identifier) {
            last = code[k + 1].text;
            k += 2;
        }
        if (k >= end || !isPunct(code[k], "(") ||
            matchClose(code, k) != end - 1 || !callees.count(last))
            continue;
        report(out, unit, code[i].line, "context-on-propagate",
               "the Expected received from '" + last +
                   "' is returned without VIVA_ERROR_CONTEXT; wrap the "
                   "error path so the chain records this layer");
    }
}

// --- obs-phase-manifest -----------------------------------------------

struct PhaseUse
{
    std::string name;
    std::size_t unit = 0;
    std::size_t line = 0;
};

void
collectPhaseUses(const std::vector<Token> &code, std::size_t unit,
                 std::vector<PhaseUse> &out)
{
    for (std::size_t i = 0; i + 2 < code.size(); ++i)
        if (isIdent(code[i], "histogram") && isPunct(code[i + 1], "(") &&
            code[i + 2].kind == Tok::String)
            out.push_back({code[i + 2].text, unit, code[i + 2].line});
}

void
checkObsPhaseManifest(const std::vector<Unit> &units,
                      const std::vector<PhaseUse> &uses,
                      const std::string &manifest,
                      std::vector<Finding> &out)
{
    static const std::string kPath = "tools/obs_manifest.txt";
    std::map<std::string, std::size_t> listed;
    std::istringstream in(manifest);
    std::string line;
    for (std::size_t no = 1; std::getline(in, line); ++no) {
        line = line.substr(0, line.find('#'));
        line.erase(0, line.find_first_not_of(" \t\r"));
        line.erase(line.find_last_not_of(" \t\r") + 1);
        if (!line.empty() && !listed.emplace(line, no).second)
            out.push_back({kPath, no, "obs-phase-manifest",
                           "duplicate manifest entry '" + line + "'"});
    }
    std::set<std::string> used;
    for (const PhaseUse &use : uses) {
        used.insert(use.name);
        if (!listed.count(use.name))
            report(out, units[use.unit], use.line, "obs-phase-manifest",
                   "phase '" + use.name + "' is not listed in " + kPath +
                       " (add it, or run viva-analyze "
                       "--update-manifest)");
    }
    for (const auto &[name, no] : listed)
        if (!used.count(name))
            out.push_back({kPath, no, "obs-phase-manifest",
                           "manifest entry '" + name +
                               "' matches no registered phase in src/ "
                               "(remove it, or run viva-analyze "
                               "--update-manifest)"});
}

} // namespace

void
runTokenRules(const std::vector<Unit> &units, const Options &options,
              std::vector<Finding> &out)
{
    const std::size_t n = units.size();

    // Tree-wide facts: unordered aliases and Expected callees.
    std::vector<std::string> aliasList;
    std::set<std::string> callees;
    std::map<std::string, std::size_t> indexOf;
    for (std::size_t i = 0; i < n; ++i) {
        unorderedAliases(units[i].code, aliasList);
        if (isHeaderPath(units[i].file->path))
            harvestCallees(units[i].code, callees);
        indexOf[units[i].file->path] = i;
    }
    const std::set<std::string> aliases(aliasList.begin(), aliasList.end());

    // A .cc also sees the unordered members its own header declares.
    std::vector<std::set<std::string>> vars(n);
    forEachIndex(n, options.jobs, [&](std::size_t i) {
        vars[i] = unorderedVariables(units[i].code, aliases);
    });
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &path = units[i].file->path;
        auto it = indexOf.find(path.substr(0, path.rfind('.')) + ".hh");
        if (it != indexOf.end() && it->second != i)
            vars[i].insert(vars[it->second].begin(),
                           vars[it->second].end());
    }

    std::vector<std::vector<Finding>> perFile(n);
    std::vector<std::vector<PhaseUse>> uses(n);
    forEachIndex(n, options.jobs, [&](std::size_t i) {
        const Unit &unit = units[i];
        const std::string &path = unit.file->path;
        std::vector<Finding> &found = perFile[i];
        if (ruleApplies("unordered-iter", path))
            checkUnorderedIteration(unit, vars[i], found);
        checkSingleTokens(unit, found);
        if (ruleApplies("pragma-once", path))
            checkPragmaOnce(unit, found);
        if (ruleApplies("unchecked-expected", path))
            checkUncheckedExpected(unit, callees, found);
        if (ruleApplies("context-on-propagate", path))
            checkContextOnPropagate(unit, callees, found);
        if (ruleApplies("obs-phase-manifest", path))
            collectPhaseUses(unit.code, i, uses[i]);
    });
    for (std::vector<Finding> &per : perFile)
        for (Finding &f : per)
            out.push_back(std::move(f));

    if (options.manifest) {
        std::vector<PhaseUse> all;
        for (std::vector<PhaseUse> &per : uses)
            all.insert(all.end(), per.begin(), per.end());
        checkObsPhaseManifest(units, all, *options.manifest, out);
    }
}

std::vector<std::string>
harvestPhaseNames(const std::vector<FileInput> &files)
{
    std::vector<PhaseUse> uses;
    for (const FileInput &f : files) {
        if (!ruleApplies("obs-phase-manifest", f.path))
            continue;
        std::vector<Token> code;
        for (Token &t : check::lex(f.content))
            if (t.kind != Tok::Comment)
                code.push_back(std::move(t));
        collectPhaseUses(code, 0, uses);
    }
    std::set<std::string> names;
    for (const PhaseUse &use : uses)
        names.insert(use.name);
    return {names.begin(), names.end()};
}

} // namespace viva::analyze
