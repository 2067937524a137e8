/**
 * @file
 * What the viva-analyze passes share: the lexed unit of one file, its
 * waivers, and the per-file worker loop. Internal to tools/analyze*.cc.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze.hh"
#include "tools/check_lexer.hh"

namespace viva::analyze
{

using check::Tok;
using check::Token;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/** One file's waivers: rule ids per covered line, and file-wide. */
struct Waivers
{
    std::set<std::string> fileWide;
    std::map<std::size_t, std::set<std::string>> perLine;

    bool allows(const std::string &rule, std::size_t line) const;
};

/** One file, lexed once and shared by every pass. */
struct Unit
{
    const FileInput *file = nullptr;
    std::vector<Token> tokens;  ///< everything, comments included
    std::vector<Token> code;    ///< tokens without comments
    Waivers waivers;
};

bool startsWith(const std::string &s, const std::string &prefix);
bool isHeaderPath(const std::string &path);

/** Append a finding unless the unit waives `rule` on `line`. */
void report(std::vector<Finding> &out, const Unit &unit,
            std::size_t line, const std::string &rule,
            std::string message);

/** Run fn(i) for i in [0, n) on up to `jobs` workers; fn must write
 *  only state owned by index i. */
void forEachIndex(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)> &fn);

inline bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Tok::Identifier && t.text == text;
}

inline bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

/** code[i], or a blank token past the end. */
inline const Token &
at(const std::vector<Token> &code, std::size_t i)
{
    static const Token kEnd;
    return i < code.size() ? code[i] : kEnd;
}

/** Index of the token closing the bracket opened at `open` ("(" or
 *  "{"), or kNone. */
std::size_t matchClose(const std::vector<Token> &code, std::size_t open);

/**
 * Best-effort skip of the template argument list opened at `open`:
 * the index of its closing '>' (or of the '>>' closing two levels), or
 * kNone when the '<' reads as a comparison -- an expression-only token
 * at angle depth, a statement boundary, or no close within 160 tokens.
 */
std::size_t skipAngles(const std::vector<Token> &code, std::size_t open);

/** Token and Flow rules over every unit. */
void runTokenRules(const std::vector<Unit> &units, const Options &options,
                   std::vector<Finding> &out);

/** Include rules (layering, cycles) over the whole set. */
void runIncludeRules(const std::vector<Unit> &units,
                     const Options &options, std::vector<Finding> &out);

/** Call rules and the call-graph statistics of `result`. */
void runCallRules(const std::vector<Unit> &units, const Options &options,
                  Result &result);

} // namespace viva::analyze
