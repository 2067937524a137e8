/**
 * @file
 * The Call pass of viva-analyze: a whole-program symbol and call
 * graph, so contracts hold through helper chains.
 *
 *  1. Per file, a scope-tracking walk over the token stream indexes
 *     every function/method definition and declaration under its
 *     qualified name (`viva::layout::ForceLayout::step`; anonymous
 *     namespaces qualified per file) and records the outgoing edges of
 *     each body: calls, member calls and bare name references. Code
 *     outside any declarator feeds a file-scope pseudo-symbol. The walk
 *     is a best-effort lexical parse: anything it cannot classify
 *     degrades into reference edges, never into a derailed pass.
 *  2. The facts of all files merge into one node per qualified name
 *     (overload sets collapse). Calls resolve through the enclosing
 *     scope chain, then by qualified suffix, then by terminal-name
 *     fan-out; calls through non-names (function pointers, call
 *     results) are counted as unresolved. Raw clock reads and stream
 *     I/O map to pseudo-sink nodes.
 *  3. The rules walk the graph. fatal-reachable and clock-reachable
 *     walk callers backwards from their sinks: a symbol that calls the
 *     sink itself is reported at each such call, one that reaches it
 *     through callees at its definition with a witness chain.
 *     io-in-hot-path intersects the I/O-reaching set with the calls
 *     written inside ThreadPool chunk lambdas; dead-symbol walks
 *     forwards from main(), TEST bodies and file-scope code.
 *
 * Waivers on a definition line absorb the walk (a justified sink does
 * not taint its callers); waivers on a call line drop that call. Every
 * iteration order is sorted, so the results do not depend on `jobs`.
 */

#include <algorithm>
#include <deque>
#include <tuple>

#include "tools/analyze_internal.hh"

namespace viva::analyze
{

namespace
{

// --- per-file facts ---------------------------------------------------

enum class EdgeKind
{
    Call,    ///< `name(...)`, possibly `A::B::name(...)`
    Method,  ///< `obj.name(...)` / `ptr->name(...)`
    Ref,     ///< bare name mention (address taken, passed, stored)
};

struct EdgeFact
{
    std::string name;  ///< as written, '::'-joined when qualified
    EdgeKind kind = EdgeKind::Call;
    bool hot = false;  ///< inside a ThreadPool chunk-lambda argument
    std::size_t line = 0;
};

struct SymbolFact
{
    std::string qname;
    std::size_t line = 0;
    bool defined = false;  ///< carries a body (or `= default`) here
    std::vector<EdgeFact> edges;
};

struct FileFacts
{
    std::vector<SymbolFact> symbols;
    std::size_t unresolvedSites = 0;
};

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "alignas", "alignof", "and", "asm", "auto", "bool", "break",
        "case", "catch", "char", "class", "co_await", "co_return",
        "co_yield", "concept", "const", "const_cast", "consteval",
        "constexpr", "constinit", "continue", "decltype", "default",
        "delete", "do", "double", "dynamic_cast", "else", "enum",
        "explicit", "extern", "false", "final", "float", "for", "friend",
        "goto", "if", "inline", "int", "long", "mutable", "namespace",
        "new", "noexcept", "not", "nullptr", "operator", "or",
        "override", "private", "protected", "public", "register",
        "reinterpret_cast", "requires", "return", "short", "signed",
        "sizeof", "static", "static_assert", "static_cast", "struct",
        "switch", "template", "this", "thread_local", "throw", "true",
        "try", "typedef", "typeid", "typename", "union", "unsigned",
        "using", "virtual", "void", "volatile", "while",
    };
    return kw.count(t) != 0;
}

bool
isName(const Token &t)
{
    return t.kind == Tok::Identifier && !isKeyword(t.text);
}

using EdgeKey = std::tuple<int, std::string, std::size_t>;

/**
 * Merge `e` into a body's edges. References collapse by name; every
 * call line keeps its own edge, because findings and call-line waivers
 * are per call.
 */
void
mergeEdge(std::map<EdgeKey, EdgeFact> &edges, const EdgeFact &e,
          const Waivers &waivers)
{
    const bool own = e.kind != EdgeKind::Ref || waivers.perLine.count(e.line);
    auto [it, fresh] = edges.try_emplace(
        {static_cast<int>(e.kind), e.name, own ? e.line : 0}, e);
    if (!fresh)
        it->second.hot = it->second.hot || e.hot;
}

/**
 * Record every call, member call and bare name reference in
 * code[lo, hi) onto `sym`, flag edges inside a parallelFor or
 * reduceOrdered call as hot, and count calls through non-names.
 */
void
scanEdges(const std::vector<Token> &code, std::size_t lo, std::size_t hi,
          const Waivers &waivers, SymbolFact &sym,
          std::size_t &unresolvedSites)
{
    struct HotRange
    {
        std::size_t close = 0;  ///< index of the call's ')'
        long depthAtOpen = 0;   ///< brace depth at the call's '('
    };
    std::vector<HotRange> hot;
    long braceDepth = 0;

    std::map<EdgeKey, EdgeFact> dedup;
    auto record = [&](const std::string &name, EdgeKind kind, bool isHot,
                      std::size_t line) {
        mergeEdge(dedup, {name, kind, isHot, line}, waivers);
    };

    std::size_t i = lo;
    while (i < hi && i < code.size()) {
        const Token &t = code[i];
        if (t.kind == Tok::Punct) {
            if (t.text == "{")
                ++braceDepth;
            else if (t.text == "}")
                --braceDepth;
            else if (t.text == "(" && i > lo &&
                     (isPunct(code[i - 1], ")") ||
                      isPunct(code[i - 1], "]")))
                ++unresolvedSites;
            ++i;
            continue;
        }
        if (!isName(t)) {
            ++i;
            continue;
        }

        // Forward chain: name (:: name)*, optional template arguments.
        std::vector<std::string> parts = {t.text};
        std::size_t j = i + 1;
        while (j + 1 < code.size() && isPunct(code[j], "::") &&
               isName(code[j + 1])) {
            parts.push_back(code[j + 1].text);
            j += 2;
        }
        std::size_t callParen = kNone;
        if (isPunct(at(code, j), "(")) {
            callParen = j;
        } else if (isPunct(at(code, j), "<")) {
            const std::size_t closeAngle = skipAngles(code, j);
            if (closeAngle != kNone &&
                isPunct(at(code, closeAngle + 1), "(")) {
                callParen = closeAngle + 1;
                // make_unique<Foo>(...) is the only mention of Foo's
                // constructor: keep the argument types alive.
                for (std::size_t k = j + 1; k < closeAngle; ++k)
                    if (isName(code[k]))
                        record(code[k].text, EdgeKind::Ref, false,
                               code[k].line);
            }
        }

        std::string name;
        for (const std::string &part : parts)
            name += (name.empty() ? "" : "::") + part;
        if (i > lo && isPunct(code[i - 1], "~"))
            name = "~" + name;
        const bool member = i > lo && (isPunct(code[i - 1], ".") ||
                                       isPunct(code[i - 1], "->"));
        bool inHot = false;
        for (const HotRange &h : hot)
            inHot = inHot || (i < h.close && braceDepth > h.depthAtOpen);

        if (callParen != kNone) {
            record(name, member ? EdgeKind::Method : EdgeKind::Call, inHot,
                   t.line);
            const std::string &terminal = parts.back();
            if (terminal == "parallelFor" || terminal == "parallel_for" ||
                terminal == "reduceOrdered") {
                const std::size_t close = matchClose(code, callParen);
                if (close != kNone)
                    hot.push_back({close, braceDepth});
            }
            i = callParen + 1;
        } else {
            if (!member)
                record(name, EdgeKind::Ref, inHot, t.line);
            i = j;
        }
    }
    for (auto &entry : dedup)
        sym.edges.push_back(entry.second);
}

/** A declarator name chain walked back from its '(' token. */
struct Chain
{
    std::vector<std::string> parts;
    std::size_t start = kNone;  ///< first token of the chain
    bool ok = false;
};

/**
 * Walk the name chain ending before code[paren] == '(' --
 * `ns::Class::name`, `~Dtor`, `operator==`, `operator[]`, `operator
 * bool` -- and reject expression contexts (`=`, `,`, `.`, `return`,
 * operators...): those are calls or initializers, not declarators.
 */
Chain
backWalkChain(const std::vector<Token> &code, std::size_t paren)
{
    Chain c;
    if (paren == 0)
        return c;
    std::size_t k = paren - 1;  // walks down; kNone once before 0
    auto prev = [&] { k = k == 0 ? kNone : k - 1; };
    auto tok = [&](std::size_t idx) -> const Token & { return code[idx]; };

    if (tok(k).kind == Tok::Punct) {
        if (k >= 2 && isPunct(tok(k), "]") && isPunct(tok(k - 1), "[") &&
            isIdent(tok(k - 2), "operator")) {
            c.parts = {"operator[]"};
            c.start = k - 2;
            k = k >= 3 ? k - 3 : kNone;
        } else if (k >= 1 && isIdent(tok(k - 1), "operator")) {
            c.parts = {"operator" + tok(k).text};
            c.start = k - 1;
            k = k >= 2 ? k - 2 : kNone;
        } else {
            return c;
        }
    } else if (isName(tok(k))) {
        c.parts = {tok(k).text};
        c.start = k;
        prev();
        if (k != kNone && isPunct(tok(k), "~")) {
            c.parts[0] = "~" + c.parts[0];
            c.start = k;
            prev();
        } else if (k != kNone && isIdent(tok(k), "operator")) {
            c.parts[0] = "operator " + c.parts[0];  // conversion
            c.start = k;
            prev();
        }
    } else if (isIdent(tok(k), "operator")) {
        c.parts = {"operator"};  // `operator()(`, renamed later
        c.start = k;
        prev();
    } else {
        return c;
    }

    while (k != kNone && k >= 1 && isPunct(tok(k), "::") &&
           isName(tok(k - 1))) {
        c.parts.insert(c.parts.begin(), tok(k - 1).text);
        c.start = k - 1;
        k = k >= 2 ? k - 2 : kNone;
    }
    if (k != kNone && isPunct(tok(k), "::"))
        prev();  // global qualification `::name(`

    if (k != kNone) {
        static const std::set<std::string> rejectPunct = {
            ".", "->", "=", ",", "(", "<", "<<", ">>", "&&", "||", "!",
            "?", "+", "-", "/", "%", "==", "!=", "<=", ">=", "|", "^",
            "[", "~"};
        static const std::set<std::string> rejectWord = {
            "return", "throw", "new", "delete", "case", "goto",
            "co_return", "co_await", "co_yield", "sizeof", "else", "do"};
        const Token &before = tok(k);
        if ((before.kind == Tok::Punct && rejectPunct.count(before.text)) ||
            (before.kind == Tok::Identifier &&
             rejectWord.count(before.text)) ||
            (before.kind != Tok::Punct && before.kind != Tok::Identifier))
            return c;
    }
    c.ok = true;
    return c;
}

/** What follows a declarator's ')'. */
struct Classified
{
    enum Kind
    {
        Reject,
        Decl,
        Def,
    } kind = Reject;
    std::size_t end = 0;  ///< last token of the construct
    std::size_t bodyClose = kNone;
};

/** The body '{' after a constructor initializer list at ':', or kNone. */
std::size_t
consumeCtorInit(const std::vector<Token> &code, std::size_t j)
{
    ++j;
    for (int guard = 0; guard < 400 && j < code.size(); ++guard) {
        bool sawName = false;
        while (j < code.size() &&
               (isName(code[j]) || isPunct(code[j], "::"))) {
            sawName = true;
            ++j;
            if (isPunct(at(code, j), "<")) {
                const std::size_t ca = skipAngles(code, j);
                if (ca != kNone)
                    j = ca + 1;
            }
        }
        if (!sawName || j >= code.size() ||
            !(isPunct(code[j], "(") || isPunct(code[j], "{")))
            return kNone;
        const std::size_t m = matchClose(code, j);
        if (m == kNone)
            return kNone;
        j = m + 1;
        if (isPunct(at(code, j), "..."))
            ++j;
        if (isPunct(at(code, j), ",")) {
            ++j;
            continue;
        }
        return isPunct(at(code, j), "{") ? j : kNone;
    }
    return kNone;
}

/**
 * Is the declarator whose parameter list closed at code[closeParen] a
 * definition (body, `= default`), a declaration (`;`, `= delete`,
 * `= 0`) or no function at all? Skips cv/ref-qualifiers, noexcept,
 * trailing return types, attributes, specifier macros and constructor
 * initializer lists, and renames the `operator()(` form.
 */
Classified
classifyDeclarator(const std::vector<Token> &code, std::size_t closeParen,
                   Chain &chain)
{
    Classified out;
    std::size_t j = closeParen + 1;
    if (chain.parts.back() == "operator" && isPunct(at(code, j), "(")) {
        const std::size_t m = matchClose(code, j);
        if (m == kNone)
            return out;
        chain.parts.back() = "operator()";
        j = m + 1;
    }

    for (int guard = 0; guard < 64 && j < code.size(); ++guard) {
        const Token &t = code[j];
        if (t.kind == Tok::Identifier) {
            // Qualifiers pass; any other word is a specifier macro,
            // skipped with its arguments.
            const bool qualifier =
                t.text == "const" || t.text == "override" ||
                t.text == "final" || t.text == "mutable" ||
                t.text == "volatile" || t.text == "try";
            ++j;
            if (!qualifier && isPunct(at(code, j), "(")) {
                const std::size_t m = matchClose(code, j);
                if (m == kNone)
                    return out;
                j = m + 1;
            }
            continue;
        }
        if (t.kind != Tok::Punct)
            return out;
        if (t.text == "&" || t.text == "&&") {
            ++j;
        } else if (t.text == "[") {
            long depth = 0;
            do {
                depth += isPunct(code[j], "[") ? 1
                         : isPunct(code[j], "]") ? -1
                                                 : 0;
                ++j;
            } while (j < code.size() && depth > 0);
        } else if (t.text == "->") {
            // Trailing return type: up to '{', ';' or '=' at depth 0.
            ++j;
            long depth = 0;
            for (int cap = 0; j < code.size() && ++cap < 120;) {
                const Token &u = code[j];
                if (isPunct(u, "(") || isPunct(u, "["))
                    ++depth;
                else if (isPunct(u, ")") || isPunct(u, "]"))
                    --depth;
                else if (isPunct(u, "<")) {
                    const std::size_t ca = skipAngles(code, j);
                    if (ca != kNone) {
                        j = ca + 1;
                        continue;
                    }
                } else if (depth == 0 && (isPunct(u, "{") ||
                                          isPunct(u, ";") ||
                                          isPunct(u, "=")))
                    break;
                ++j;
            }
        } else if (t.text == ":") {
            j = consumeCtorInit(code, j);
            if (j == kNone)
                return out;
        } else if (t.text == "{") {
            out.bodyClose = matchClose(code, j);
            if (out.bodyClose != kNone) {
                out.kind = Classified::Def;
                out.end = out.bodyClose;
            }
            return out;
        } else if (t.text == ";") {
            out.kind = Classified::Decl;
            out.end = j;
            return out;
        } else if (t.text == "=") {
            const Token &what = at(code, j + 1);
            std::size_t k = j + 1;
            while (k < code.size() && !isPunct(code[k], ";") &&
                   !isPunct(code[k], "}"))
                ++k;
            if (!isPunct(at(code, k), ";"))
                return out;
            out.end = k;
            if (what.text == "default")
                out.kind = Classified::Def;
            else if (what.text == "delete" || what.text == "0")
                out.kind = Classified::Decl;
            return out;
        } else {
            return out;
        }
    }
    return out;
}

struct Scope
{
    enum Kind
    {
        Ns,
        Class,
        Block,
    } kind = Block;
    std::string name;
    long entryDepth = 0;
};

/**
 * Find every declarator at namespace or class scope, record it under
 * its qualified name, scan definition bodies for edges, and hand every
 * token left over to the file-scope pseudo-symbol.
 */
void
walkFile(const std::string &path, const std::vector<Token> &code,
         const Waivers &waivers, FileFacts &facts)
{
    std::vector<Scope> scopes;
    std::vector<char> consumed(code.size(), 0);
    long depth = 0;
    const std::size_t n = code.size();
    auto detecting = [&] {
        return scopes.empty() || scopes.back().kind != Scope::Block;
    };
    auto consume = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k <= hi && k < n; ++k)
            consumed[k] = 1;
    };

    std::size_t i = 0;
    while (i < n) {
        const Token &t = code[i];
        if (isIdent(t, "template") && isPunct(at(code, i + 1), "<")) {
            const std::size_t ca = skipAngles(code, i + 1);
            i = ca == kNone ? i + 1 : ca + 1;
            continue;
        }
        if (isIdent(t, "namespace") && detecting()) {
            std::size_t j = i + 1;
            if (isName(at(code, j)) && isPunct(at(code, j + 1), "=")) {
                while (j < n && !isPunct(code[j], ";"))
                    ++j;  // namespace alias
                consume(i, j);
                i = j + 1;
                continue;
            }
            std::string nm;
            while (isName(at(code, j))) {
                nm += (nm.empty() ? "" : "::") + code[j++].text;
                if (!isPunct(at(code, j), "::"))
                    break;
                ++j;
            }
            if (isPunct(at(code, j), "{")) {
                scopes.push_back(
                    {Scope::Ns, nm.empty() ? "(anon@" + path + ")" : nm,
                     depth++});
                consume(i, j);
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        if ((isIdent(t, "class") || isIdent(t, "struct") ||
             isIdent(t, "union")) &&
            detecting() && !(i > 0 && isIdent(code[i - 1], "enum"))) {
            std::size_t j = i + 1;
            std::string nm = "(anon)";
            if (isName(at(code, j))) {
                nm = code[j++].text;
                while (isPunct(at(code, j), "::") &&
                       at(code, j + 1).kind == Tok::Identifier) {
                    nm += "::" + code[j + 1].text;
                    j += 2;
                }
                if (isIdent(at(code, j), "final"))
                    ++j;
            }
            if (isPunct(at(code, j), "<")) {
                const std::size_t ca = skipAngles(code, j);
                if (ca != kNone)
                    j = ca + 1;  // explicit specialization
            }
            if (isPunct(at(code, j), ":")) {
                long pd = 0;
                while (j < n) {
                    if (isPunct(code[j], "(") || isPunct(code[j], "["))
                        ++pd;
                    else if (isPunct(code[j], ")") ||
                             isPunct(code[j], "]"))
                        --pd;
                    else if (isPunct(code[j], "<")) {
                        const std::size_t ca = skipAngles(code, j);
                        if (ca != kNone) {
                            j = ca + 1;
                            continue;
                        }
                    } else if (pd == 0 && (isPunct(code[j], "{") ||
                                           isPunct(code[j], ";")))
                        break;
                    ++j;
                }
            }
            if (isPunct(at(code, j), "{")) {
                scopes.push_back({Scope::Class, nm, depth++});
                consume(i, j);
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        if (isIdent(t, "enum")) {
            // Enumerators are values, not symbols: consume the body.
            std::size_t j = i + 1;
            while (j < n && !isPunct(code[j], "{") && !isPunct(code[j], ";"))
                ++j;
            const std::size_t mb =
                isPunct(at(code, j), "{") ? matchClose(code, j) : kNone;
            if (mb != kNone) {
                consume(i, mb);
                i = mb + 1;
            } else {
                i = j + 1;
            }
            continue;
        }
        if (isPunct(t, "{")) {
            scopes.push_back({Scope::Block, "", depth++});
            ++i;
            continue;
        }
        if (isPunct(t, "}")) {
            --depth;
            if (!scopes.empty() && scopes.back().entryDepth == depth)
                scopes.pop_back();
            ++i;
            continue;
        }
        if (isPunct(t, "(") && detecting()) {
            Chain chain = backWalkChain(code, i);
            const std::size_t close = chain.ok ? matchClose(code, i) : kNone;
            const Classified cls =
                close == kNone ? Classified{}
                               : classifyDeclarator(code, close, chain);
            if (cls.kind != Classified::Reject) {
                SymbolFact sym;
                for (const Scope &s : scopes)
                    if (s.kind != Scope::Block)
                        sym.qname += s.name + "::";
                for (std::size_t p = 0; p < chain.parts.size(); ++p)
                    sym.qname += (p == 0 ? "" : "::") + chain.parts[p];
                sym.line = code[chain.start].line;
                sym.defined = cls.kind == Classified::Def;
                if (cls.bodyClose != kNone) {
                    scanEdges(code, i, cls.bodyClose + 1, waivers, sym,
                              facts.unresolvedSites);
                } else if (cls.kind == Classified::Decl) {
                    // Parameter names keep macro-style declarations'
                    // arguments alive.
                    std::map<std::string, std::size_t> refs;
                    for (std::size_t k = i + 1; k < close; ++k)
                        if (isName(code[k]))
                            refs.emplace(code[k].text, code[k].line);
                    for (const auto &[name, line] : refs)
                        sym.edges.push_back(
                            {name, EdgeKind::Ref, false, line});
                }
                facts.symbols.push_back(std::move(sym));
                consume(chain.start, cls.end);
                i = cls.end + 1;
                continue;
            }
        }
        ++i;
    }

    SymbolFact fileSym;
    fileSym.qname = "<file:" + path + ">";
    fileSym.defined = true;
    for (std::size_t lo = 0; lo < n;) {
        if (consumed[lo]) {
            ++lo;
            continue;
        }
        std::size_t hi = lo;
        while (hi < n && !consumed[hi])
            ++hi;
        scanEdges(code, lo, hi, waivers, fileSym, facts.unresolvedSites);
        lo = hi;
    }
    facts.symbols.push_back(std::move(fileSym));
}

FileFacts
extractFacts(const Unit &unit)
{
    FileFacts facts;
    std::vector<Token> code;
    for (const Token &t : unit.code)
        if (!t.inPreproc)
            code.push_back(t);
    walkFile(unit.file->path, code, unit.waivers, facts);

    // `#define` bodies are invisible to the walk, but the functions
    // they name (assertion handlers, error constructors) must stay
    // alive: reference them from the file-scope symbol, then dedupe
    // that symbol's edges across the gap scans.
    SymbolFact &fileSym = facts.symbols.back();
    const std::vector<Token> &raw = unit.code;
    for (std::size_t k = 0; k + 1 < raw.size(); ++k) {
        if (!raw[k].inPreproc || !isPunct(raw[k], "#") ||
            !isIdent(raw[k + 1], "define"))
            continue;
        std::size_t m = k + 2;
        if (at(raw, m).kind == Tok::Identifier)
            ++m;  // the macro's own name
        for (; m < raw.size() && raw[m].inPreproc; ++m)
            if (isName(raw[m]))
                fileSym.edges.push_back(
                    {raw[m].text, EdgeKind::Ref, false, raw[m].line});
        k = m - 1;
    }
    std::map<EdgeKey, EdgeFact> dedup;
    for (const EdgeFact &e : fileSym.edges)
        mergeEdge(dedup, e, unit.waivers);
    fileSym.edges.clear();
    for (const auto &entry : dedup)
        fileSym.edges.push_back(entry.second);
    if (fileSym.edges.empty())
        facts.symbols.pop_back();
    return facts;
}

// --- the whole-program graph ------------------------------------------

constexpr char kClockSink[] = "@clock-read";
constexpr char kStreamSink[] = "@stream-io";

const std::string kFatal = "fatal-reachable";
const std::string kClock = "clock-reachable";
const std::string kHot = "io-in-hot-path";
const std::string kDead = "dead-symbol";

std::string
terminalOf(const std::string &qname)
{
    const std::size_t pos = qname.rfind("::");
    return pos == std::string::npos ? qname : qname.substr(pos + 2);
}

/** A raw clock read: chrono clocks' now(), system_clock at all, and
 *  the C time functions. */
bool
isClockRead(const std::string &name, EdgeKind kind)
{
    static const std::set<std::string> cTime = {
        "time", "gettimeofday", "localtime", "gmtime", "ctime"};
    const std::string t = terminalOf(name);
    if (name.find("system_clock") != std::string::npos)
        return true;
    if (t == "now")
        return name.find("chrono") != std::string::npos ||
               name.find("steady_clock") != std::string::npos ||
               name.find("high_resolution_clock") != std::string::npos;
    return kind == EdgeKind::Call && cTime.count(t) &&
           (name == t || name == "std::" + t);
}

bool
isStreamIo(const std::string &name)
{
    static const std::set<std::string> io = {
        "cout", "cerr", "clog", "printf", "fprintf", "fopen", "fwrite",
        "fputs", "puts", "putchar", "ofstream", "ifstream", "fstream"};
    return io.count(terminalOf(name)) != 0;
}

/**
 * Standard-library member names (atomics, containers, streams). A
 * member call that resolves only by fan-out onto one of these is
 * almost always a std call sharing an in-tree name (`flag_.load()` vs
 * `Session::load`): such edges keep symbols alive but carry no
 * contract.
 */
bool
isStdVocabularyMethod(const std::string &terminal)
{
    static const std::set<std::string> names = {
        "load", "store", "exchange", "fetch_add", "fetch_sub",
        "compare_exchange_weak", "compare_exchange_strong",
        "test_and_set", "get", "reset", "release", "swap", "size",
        "empty", "clear", "count", "find", "insert", "erase", "at",
        "begin", "end", "front", "back", "push_back", "pop_back",
        "emplace", "emplace_back", "data", "c_str", "str", "substr",
        "append", "resize", "reserve", "push", "pop", "top", "lock",
        "unlock", "try_lock", "wait", "notify_one", "notify_all",
        "open", "close", "good", "fail", "tie", "rdbuf", "value_or"};
    return names.count(terminal) != 0;
}

struct Node
{
    std::string qname;
    std::string terminal;
    std::string file;  ///< defining file ("" when only declared)
    std::size_t line = 0;
    bool defined = false;
    std::set<std::string> waivers;  ///< rules waived at a declarator
    std::vector<std::size_t> outAll;  ///< every target: liveness

    bool
    pseudo() const
    {
        return qname[0] == '@' || qname[0] == '<';
    }
};

/** One resolved call or reference as written in a body. */
struct Edge
{
    std::size_t from = 0;
    std::vector<std::size_t> targets;
    const Unit *unit = nullptr;  ///< the file the call is written in
    std::size_t line = 0;
    std::string name;
    bool hot = false;
    bool contract = false;  ///< a call the contract rules follow
};

struct Graph
{
    std::vector<Node> nodes;
    std::map<std::string, std::size_t> byQname;
    std::map<std::string, std::vector<std::size_t>> byTerminal;
    std::vector<Edge> edges;
    std::size_t clockSink = 0;
    std::size_t streamSink = 0;
    std::size_t externalCalls = 0;

    std::size_t
    intern(const std::string &qname)
    {
        auto [it, fresh] = byQname.try_emplace(qname, nodes.size());
        if (fresh) {
            nodes.push_back({qname, terminalOf(qname), "", 0, false, {},
                             {}});
            if (!nodes.back().pseudo())
                byTerminal[nodes.back().terminal].push_back(it->second);
        }
        return it->second;
    }
};

/**
 * Resolve a written name from inside `fromQname`: exact lookup through
 * the enclosing scope chain, then qualified-suffix match (namespace
 * aliases), then terminal-name fan-out, which also reaches a named
 * class's destructor for references. `fanout` tells the last case.
 */
std::vector<std::size_t>
resolveName(const Graph &g, const std::string &fromQname,
            const std::string &name, EdgeKind kind, bool &fanout)
{
    fanout = false;
    for (std::string scope = fromQname;;) {
        const std::size_t pos = scope.rfind("::");
        scope = pos == std::string::npos ? "" : scope.substr(0, pos);
        auto it = g.byQname.find(scope.empty() ? name : scope + "::" + name);
        if (it != g.byQname.end())
            return {it->second};
        if (scope.empty())
            break;
    }
    const std::string terminal = terminalOf(name);
    auto it = g.byTerminal.find(terminal);
    std::vector<std::size_t> out;
    if (name.find("::") != std::string::npos && it != g.byTerminal.end()) {
        const std::string suffix = "::" + name;
        for (const std::size_t id : it->second) {
            const std::string &q = g.nodes[id].qname;
            if (q == name ||
                (q.size() > suffix.size() &&
                 q.compare(q.size() - suffix.size(), suffix.size(),
                           suffix) == 0))
                out.push_back(id);
        }
        if (!out.empty())
            return out;
    }
    fanout = true;
    if (it != g.byTerminal.end())
        out = it->second;
    auto twin = g.byTerminal.find("~" + terminal);
    if (kind == EdgeKind::Ref && twin != g.byTerminal.end())
        out.insert(out.end(), twin->second.begin(), twin->second.end());
    return out;
}

Graph
buildGraph(const std::vector<Unit> &units,
           const std::vector<FileFacts> &facts)
{
    Graph g;
    g.clockSink = g.intern(kClockSink);
    g.streamSink = g.intern(kStreamSink);
    for (std::size_t f = 0; f < facts.size(); ++f) {
        for (const SymbolFact &s : facts[f].symbols) {
            const std::size_t id = g.intern(s.qname);
            Node &node = g.nodes[id];
            for (const std::string &rule : {kFatal, kClock, kHot, kDead})
                if (units[f].waivers.allows(rule, s.line))
                    node.waivers.insert(rule);
            if (s.defined && !node.defined) {
                node.defined = true;
                node.file = units[f].file->path;
                node.line = s.line;
            }
        }
    }

    std::vector<std::set<std::size_t>> outAll(g.nodes.size());
    for (std::size_t f = 0; f < facts.size(); ++f) {
        for (const SymbolFact &s : facts[f].symbols) {
            const std::size_t from = g.byQname.at(s.qname);
            for (const EdgeFact &e : s.edges) {
                Edge edge{from, {}, &units[f], e.line, e.name, e.hot, true};
                bool fanout = false;
                if (isClockRead(e.name, e.kind))
                    edge.targets = {g.clockSink};
                else if (isStreamIo(e.name))
                    edge.targets = {g.streamSink};
                else {
                    edge.targets = resolveName(g, s.qname, e.name, e.kind,
                                               fanout);
                    edge.contract =
                        e.kind == EdgeKind::Call ||
                        (e.kind == EdgeKind::Method &&
                         !(fanout &&
                           isStdVocabularyMethod(terminalOf(e.name))));
                }
                if (edge.targets.empty()) {
                    if (e.kind != EdgeKind::Ref)
                        ++g.externalCalls;
                    continue;
                }
                std::sort(edge.targets.begin(), edge.targets.end());
                edge.targets.erase(
                    std::unique(edge.targets.begin(), edge.targets.end()),
                    edge.targets.end());
                outAll[from].insert(edge.targets.begin(),
                                    edge.targets.end());
                g.edges.push_back(std::move(edge));
            }
        }
    }
    for (std::size_t id = 0; id < g.nodes.size(); ++id)
        g.nodes[id].outAll.assign(outAll[id].begin(), outAll[id].end());
    return g;
}

/** Who reaches a sink set, and through which callee. */
struct Reach
{
    std::vector<char> flagged;  ///< reached and not absorbed
    std::vector<std::size_t> parent;
};

/**
 * Breadth-first over the reversed contract edges from `sinks`,
 * skipping calls written on a line that waives `rule`. Absorbed nodes
 * are neither flagged nor expanded.
 */
template <typename AbsorbFn>
Reach
reverseReach(const Graph &g, const std::string &rule,
             const std::vector<std::size_t> &sinks, const AbsorbFn &absorb)
{
    std::vector<std::set<std::size_t>> callers(g.nodes.size());
    for (const Edge &e : g.edges)
        if (e.contract && !e.unit->waivers.allows(rule, e.line))
            for (const std::size_t t : e.targets)
                callers[t].insert(e.from);
    Reach r{std::vector<char>(g.nodes.size(), 0),
            std::vector<std::size_t>(g.nodes.size(), kNone)};
    std::vector<char> visited(g.nodes.size(), 0);
    std::deque<std::size_t> queue;
    for (const std::size_t id : sinks)
        if (!visited[id]) {
            visited[id] = 1;
            queue.push_back(id);
        }
    while (!queue.empty()) {
        const std::size_t t = queue.front();
        queue.pop_front();
        for (const std::size_t caller : callers[t]) {
            if (visited[caller])
                continue;
            visited[caller] = 1;
            if (absorb(caller))
                continue;
            r.flagged[caller] = 1;
            r.parent[caller] = t;
            queue.push_back(caller);
        }
    }
    return r;
}

std::string
label(const Graph &g, std::size_t id)
{
    if (id == g.clockSink)
        return "raw clock read";
    if (id == g.streamSink)
        return "stream I/O";
    return g.nodes[id].terminal;
}

std::string
witness(const Graph &g, const Reach &r, std::size_t from)
{
    std::string path = label(g, from);
    for (std::size_t cur = r.parent[from]; cur != kNone; cur = r.parent[cur])
        path += " -> " + label(g, cur);
    return path;
}

/**
 * Report the symbols in `rule`'s scope that reach `sinks`: at each
 * direct call of a sink, or else at the definition with the chain.
 */
void
reportReach(const Graph &g, const std::string &rule,
            const std::vector<std::size_t> &sinks, const Reach &reach,
            const std::string &sink, const std::string &advice,
            std::vector<Finding> &out)
{
    const std::set<std::size_t> sinkSet(sinks.begin(), sinks.end());
    std::vector<char> direct(g.nodes.size(), 0);
    for (const Edge &e : g.edges) {
        if (!reach.flagged[e.from] || !e.contract ||
            !ruleApplies(rule, e.unit->file->path) ||
            e.unit->waivers.allows(rule, e.line))
            continue;
        for (const std::size_t t : e.targets)
            if (sinkSet.count(t)) {
                direct[e.from] = 1;
                out.push_back({e.unit->file->path, e.line, rule,
                               "'" + g.nodes[e.from].qname + "' calls '" +
                                   e.name + "', " + sink + "; " + advice});
                break;
            }
    }
    for (std::size_t id = 0; id < g.nodes.size(); ++id) {
        const Node &node = g.nodes[id];
        if (reach.flagged[id] && !direct[id] && node.defined &&
            !node.pseudo() && ruleApplies(rule, node.file))
            out.push_back({node.file, node.line, rule,
                           "'" + node.qname + "' reaches " + sink +
                               " through " + witness(g, reach, id) +
                               "; " + advice});
    }
}

} // namespace

void
runCallRules(const std::vector<Unit> &units, const Options &options,
             Result &result)
{
    std::vector<FileFacts> facts(units.size());
    forEachIndex(units.size(), options.jobs, [&](std::size_t i) {
        facts[i] = extractFacts(units[i]);
    });
    for (const FileFacts &f : facts)
        result.unresolvedSites += f.unresolvedSites;

    const Graph g = buildGraph(units, facts);
    result.externalCalls = g.externalCalls;
    std::vector<std::set<std::size_t>> contractOut(g.nodes.size());
    for (const Edge &e : g.edges)
        if (e.contract)
            for (const std::size_t t : e.targets)
                if (!g.nodes[t].pseudo())
                    contractOut[e.from].insert(t);
    Layering layering;
    std::string error;
    const bool haveLayers = parseLayering(options.layering, layering, error);
    for (std::size_t id = 0; id < g.nodes.size(); ++id) {
        const Node &node = g.nodes[id];
        if (node.pseudo())
            continue;
        ++result.symbols;
        result.edges += contractOut[id].size();
        if (!node.defined)
            continue;
        ++result.definedSymbols;
        const std::string layer =
            haveLayers ? layerOf(node.file, layering) : "";
        if (layer.empty())
            continue;
        ++result.layerSymbols[layer];
        for (const std::size_t t : contractOut[id]) {
            const std::string to = g.nodes[t].defined
                                       ? layerOf(g.nodes[t].file, layering)
                                       : "";
            if (!to.empty() && to != layer)
                ++result.layerEdges[{layer, to}];
        }
    }

    std::vector<Finding> &out = result.findings;
    const auto fatalSink = [&](std::size_t id) {
        const Node &node = g.nodes[id];
        return (node.terminal == "fatal" || node.terminal == "panic") &&
               node.defined && startsWith(node.file, "src/support/");
    };

    std::vector<std::size_t> fatalSinks;
    for (std::size_t id = 0; id < g.nodes.size(); ++id)
        if (fatalSink(id))
            fatalSinks.push_back(id);
    const Reach fatal =
        reverseReach(g, kFatal, fatalSinks, [&](std::size_t id) {
            return g.nodes[id].waivers.count(kFatal) != 0;
        });
    reportReach(g, kFatal, fatalSinks, fatal, "fatal()/panic()",
                "library code returns support::Expected instead", out);

    // The clock shim (the src/ file the rule exempts) absorbs: reading
    // time through it is the sanctioned way.
    const Reach clock =
        reverseReach(g, kClock, {g.clockSink}, [&](std::size_t id) {
            const Node &node = g.nodes[id];
            return node.waivers.count(kClock) != 0 ||
                   (node.defined && startsWith(node.file, "src/") &&
                    !ruleApplies(kClock, node.file));
        });
    reportReach(g, kClock, {g.clockSink}, clock, "a raw clock read",
                "measure time through support::clock() so a FakeClock "
                "can stand in",
                out);

    // io-in-hot-path: calls written inside chunk lambdas that reach
    // stream I/O or warnLimited() (the dying path through fatal/panic
    // may write to stderr).
    std::vector<std::size_t> ioSinks = {g.streamSink};
    for (std::size_t id = 0; id < g.nodes.size(); ++id)
        if (g.nodes[id].terminal == "warnLimited" && g.nodes[id].defined)
            ioSinks.push_back(id);
    const std::set<std::size_t> isIoSink(ioSinks.begin(), ioSinks.end());
    const Reach io = reverseReach(g, kHot, ioSinks, [&](std::size_t id) {
        return g.nodes[id].waivers.count(kHot) != 0 || fatalSink(id);
    });
    for (const Edge &e : g.edges) {
        if (!e.hot || !e.contract || g.nodes[e.from].waivers.count(kHot) ||
            !ruleApplies(kHot, e.unit->file->path) ||
            e.unit->waivers.allows(kHot, e.line))
            continue;
        for (const std::size_t t : e.targets) {
            if (!isIoSink.count(t) && !io.flagged[t])
                continue;
            out.push_back({e.unit->file->path, e.line, kHot,
                           "hot-path call to '" + e.name + "' in '" +
                               g.nodes[e.from].qname +
                               "' reaches stream I/O: " +
                               (isIoSink.count(t) ? label(g, t)
                                                  : witness(g, io, t))});
            break;
        }
    }

    // dead-symbol: forwards over every edge from the roots.
    static const std::set<std::string> roots = {
        "main", "TEST", "TEST_F", "TEST_P", "TYPED_TEST", "TYPED_TEST_P",
        "INSTANTIATE_TEST_SUITE_P", "REGISTER_TYPED_TEST_SUITE_P"};
    std::vector<char> live(g.nodes.size(), 0);
    std::deque<std::size_t> queue;
    for (std::size_t id = 0; id < g.nodes.size(); ++id) {
        const Node &node = g.nodes[id];
        if (roots.count(node.terminal) || node.qname[0] == '<' ||
            node.waivers.count(kDead)) {
            live[id] = 1;
            queue.push_back(id);
        }
    }
    while (!queue.empty()) {
        const std::size_t cur = queue.front();
        queue.pop_front();
        for (const std::size_t t : g.nodes[cur].outAll)
            if (!live[t]) {
                live[t] = 1;
                queue.push_back(t);
            }
    }
    for (std::size_t id = 0; id < g.nodes.size(); ++id) {
        const Node &node = g.nodes[id];
        if (!live[id] && node.defined && !node.pseudo() &&
            ruleApplies(kDead, node.file) &&
            !startsWith(node.terminal, "operator"))
            out.push_back({node.file, node.line, kDead,
                           "'" + node.qname +
                               "' is defined but unreachable from any "
                               "entry point (main/TEST roots); remove it "
                               "or waive it with a rationale"});
    }
}

} // namespace viva::analyze
