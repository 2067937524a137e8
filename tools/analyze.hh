/**
 * @file
 * viva-analyze: the project's one source analyzer. It is deliberately
 * not a compiler frontend -- no libclang, no preprocessing, no name
 * lookup -- but a set of rules over one token stream per file
 * (tools/check_lexer.hh), so comments, string literals, raw strings
 * and line splices can never fire a rule.
 *
 * Every rule sits in one registry (ruleRegistry()) with its id, its
 * path scope and the pass it runs in:
 *
 *  - Token: one file's tokens alone (determinism and hygiene rules);
 *  - Flow: follows values across statements inside a file, with a
 *    whole-tree pre-pass that harvests Expected-returning callees;
 *  - Include: the quoted include graph against tools/layering.rules;
 *  - Call: the whole-program symbol and call graph, so contracts such
 *    as "no fatal below the app layer" hold through helper chains.
 *
 * Waivers: a comment that starts with the tool's name, then
 * `allow(<rule>[, <rule>...]): <why>` -- on the offending line, or
 * alone above it, where it covers the next line that carries code --
 * or `allow-file(<rule>...): <why>` for the whole file. For the Call
 * rules the waiver sits on the symbol's definition line (the symbol
 * absorbs: its callers are not tainted through it) or on the call
 * line (that call no longer counts). A waiver without a rationale, or
 * naming an unknown rule, is itself a `waiver` finding and waives
 * nothing.
 *
 * Findings are byte-identical whatever the job count.
 */

#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace viva::analyze
{

/** One source file: repo-relative '/'-separated path and content. */
struct FileInput
{
    std::string path;
    std::string content;
};

/** One rule violation. */
struct Finding
{
    std::string file;
    std::size_t line = 0;  ///< 1-based; 0 for file-level findings
    std::string rule;
    std::string message;
};

/** The pass a rule runs in (see the file comment). */
enum class Pass
{
    Token,
    Flow,
    Include,
    Call,
};

/** One registered rule. */
struct Rule
{
    std::string id;
    Pass pass = Pass::Token;

    /** Path prefixes the rule covers; empty means every file. */
    std::vector<std::string> scope;

    /** Path prefixes inside the scope that are exempt. */
    std::vector<std::string> exempt;

    bool headersOnly = false;
    std::string summary;
};

/** Every rule, in reporting order. */
const std::vector<Rule> &ruleRegistry();

/** Does `rule` cover the file at `path`? Unknown ids cover nothing. */
bool ruleApplies(const std::string &rule, const std::string &path);

/** Engine inputs besides the sources. */
struct Options
{
    /** tools/layering.rules text; without it the Include pass only
     *  reports include cycles. */
    std::string layering;

    /** tools/obs_manifest.txt text; without it obs-phase-manifest is
     *  skipped. */
    std::optional<std::string> manifest;

    /** Concurrent per-file workers (0 or 1 = serial). */
    std::size_t jobs = 1;
};

/** The analysis result: findings plus call-graph statistics. */
struct Result
{
    std::vector<Finding> findings;  ///< by file, line, rule, message

    std::size_t files = 0;
    std::size_t symbols = 0;         ///< distinct call-graph nodes
    std::size_t definedSymbols = 0;
    std::size_t edges = 0;           ///< resolved node-to-node calls
    std::size_t externalCalls = 0;   ///< named callees outside the tree
    std::size_t unresolvedSites = 0; ///< calls through non-names

    /** (from-layer, to-layer) -> cross-layer call count. */
    std::map<std::pair<std::string, std::string>, std::size_t>
        layerEdges;

    /** layer -> defined symbols it owns. */
    std::map<std::string, std::size_t> layerSymbols;
};

/** Run every rule over the files. */
Result analyze(const std::vector<FileInput> &files,
               const Options &options);

/** "path:line: [rule] message". */
std::string formatFinding(const Finding &finding);

/** The byte-stable viva-analyze-1 JSON report. */
std::string formatJson(const Result &result);

/** The call graph collapsed to layers, in Graphviz format. */
std::string formatDot(const Result &result);

/**
 * Phase names registered under src/ (`histogram("...")` literals),
 * sorted and unique: what `--update-manifest` writes.
 */
std::vector<std::string>
harvestPhaseNames(const std::vector<FileInput> &files);

/** The parsed tools/layering.rules. */
struct Layering
{
    struct Layer
    {
        std::string name;
        std::vector<std::string> prefixes;
    };
    std::vector<Layer> layers;

    /** from-layer -> layers it may include. */
    std::map<std::string, std::set<std::string>> allowed;

    /** Layers declared `allow X -> *`. */
    std::set<std::string> unrestricted;
};

/**
 * Parse a layering rules text. Grammar, one directive per line with
 * '#' comments:
 *   layer <name> <path-prefix> [<path-prefix>...]
 *   allow <from> -> <to> [<to>...]
 *   allow <from> -> *
 * Returns false and sets `error` on a malformed line, an unknown or a
 * duplicate layer.
 */
bool parseLayering(const std::string &text, Layering &out,
                   std::string &error);

/** Layer owning a path (longest matching prefix), or "". */
std::string layerOf(const std::string &path, const Layering &layering);

} // namespace viva::analyze
