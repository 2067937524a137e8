/**
 * @file
 * Command-line plumbing of viva-analyze: the exit-code contract
 *
 *   0  clean -- the tool ran and found nothing
 *   1  findings -- the tool ran and reported at least one finding
 *   2  usage or I/O error -- bad invocation, missing directory or
 *      unreadable file; the scan result is meaningless
 *
 * and the source-collection policy: .cc/.hh/.cpp/.hpp files under the
 * requested subdirectories, repo-relative paths with '/' separators,
 * sorted, with the deliberate-violation fixture tree skipped. A
 * missing subdirectory or unreadable file is an error (exit 2), not a
 * silently-empty scan.
 */

#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze.hh"

namespace viva::cli
{

inline constexpr int kExitClean = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitUsage = 2;

/** Exit status for a completed scan with `count` findings. */
inline int
exitCodeForFindings(std::size_t count)
{
    return count == 0 ? kExitClean : kExitFindings;
}

namespace detail
{

inline bool
isSourcePath(const std::filesystem::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

/** The analyzer's fixtures violate rules on purpose. */
inline constexpr char kFixtureRoot[] = "tests/analyze_fixtures/";

inline bool
isFixturePath(const std::string &rel)
{
    return rel.compare(0, sizeof kFixtureRoot - 1, kFixtureRoot) == 0;
}

} // namespace detail

/** The subdirectories scanned when none are named. */
inline std::vector<std::string>
defaultSubdirs()
{
    return {"src", "tests", "bench", "examples", "tools"};
}

/**
 * Read one file whole. Returns false (after printing a `tool: ...`
 * message to err) when it cannot be opened -- the caller should exit
 * kExitUsage.
 */
inline bool
readFile(const std::string &tool, const std::filesystem::path &path,
         std::string &out, std::ostream &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err << tool << ": cannot read '" << path.string() << "'\n";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/**
 * Collect the sources under root/subdir for each subdir, sorted by
 * path. Returns false (after printing a `tool: ...` message to err)
 * when a subdirectory is missing or a file cannot be read -- the
 * caller should exit kExitUsage.
 */
inline bool
collectSources(const std::string &tool,
               const std::filesystem::path &root,
               const std::vector<std::string> &subdirs,
               std::vector<analyze::FileInput> &out, std::ostream &err)
{
    namespace fs = std::filesystem;
    for (const std::string &sub : subdirs) {
        const fs::path dir = root / sub;
        if (!fs::is_directory(dir)) {
            err << tool << ": '" << dir.string()
                << "' is not a directory\n";
            return false;
        }
        for (const auto &entry :
             fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file() ||
                !detail::isSourcePath(entry.path()))
                continue;
            const std::string rel =
                fs::relative(entry.path(), root).generic_string();
            if (detail::isFixturePath(rel))
                continue;
            std::string content;
            if (!readFile(tool, entry.path(), content, err))
                return false;
            out.push_back({rel, std::move(content)});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const analyze::FileInput &a, const analyze::FileInput &b) {
                  return a.path < b.path;
              });
    return true;
}

} // namespace viva::cli
