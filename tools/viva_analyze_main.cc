/**
 * @file
 * viva-analyze command line: run every rule of the analyzer
 * (tools/analyze.hh) over the repository tree.
 *
 * Usage: viva-analyze <root> [--json] [--dot <path>]
 *                     [--update-manifest] [--compile-commands <path>]
 *                     [subdir...]
 *
 * With no subdirs the default set (src tests bench examples tools) is
 * scanned; the fixture tree tests/analyze_fixtures is always skipped.
 * The layer DAG and the phase manifest are read from
 * <root>/tools/layering.rules and <root>/tools/obs_manifest.txt.
 *
 *  --json               print the byte-stable viva-analyze-1 report
 *                       instead of text
 *  --dot <path>         also write the call graph collapsed to layers
 *                       in Graphviz format
 *  --update-manifest    rewrite tools/obs_manifest.txt from the phases
 *                       registered in src/ instead of analyzing
 *  --compile-commands <path>
 *                       analyze only the .cc/.cpp files this
 *                       compile_commands.json compiles (headers always
 *                       come from the directory walk)
 *
 * Exit status (tools/cli_common.hh): 0 clean, 1 findings, 2 usage or
 * I/O error.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "support/threadpool.hh"
#include "tools/analyze.hh"
#include "tools/cli_common.hh"

namespace
{

namespace fs = std::filesystem;

constexpr char kTool[] = "viva-analyze";

/**
 * The "file" entries of a compile_commands.json. CMake and clang both
 * emit `"file": "<path>"` with plain JSON string escaping.
 */
std::set<std::string>
compiledFiles(const std::string &json, const fs::path &root)
{
    std::set<std::string> out;
    const std::string key = "\"file\"";
    for (std::size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos)) {
        pos = json.find(':', pos + key.size());
        if (pos == std::string::npos ||
            (pos = json.find('"', pos)) == std::string::npos)
            break;
        std::string value;
        for (++pos; pos < json.size() && json[pos] != '"'; ++pos) {
            if (json[pos] == '\\' && pos + 1 < json.size())
                ++pos;
            value += json[pos];
        }
        std::error_code ec;
        const std::string rel = fs::relative(value, root, ec).generic_string();
        if (!ec)
            out.insert(rel);
    }
    return out;
}

bool
writeFile(const fs::path &path, const std::string &content)
{
    std::error_code ec;
    if (path.has_parent_path())
        fs::create_directories(path.parent_path(), ec);
    std::ofstream out(path, std::ios::binary);
    if (!(out << content)) {
        std::cerr << kTool << ": cannot write '" << path.string() << "'\n";
        return false;
    }
    return true;
}

int
usage()
{
    std::cerr << "usage: viva-analyze <root> [--json] [--dot <path>] "
                 "[--update-manifest] [--compile-commands <path>] "
                 "[subdir...]\n";
    return viva::cli::kExitUsage;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool updateManifest = false;
    std::string dotPath;
    std::string compileCommands;
    std::string rootArg;
    std::vector<std::string> subdirs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--update-manifest") {
            updateManifest = true;
        } else if (arg == "--dot" || arg == "--compile-commands") {
            if (++i >= argc)
                return usage();
            (arg == "--dot" ? dotPath : compileCommands) = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else if (rootArg.empty()) {
            rootArg = arg;
        } else {
            subdirs.push_back(arg);
        }
    }
    if (rootArg.empty())
        return usage();
    const fs::path root = rootArg;
    if (!fs::is_directory(root)) {
        std::cerr << kTool << ": '" << root.string()
                  << "' is not a directory\n";
        return viva::cli::kExitUsage;
    }
    if (subdirs.empty())
        subdirs = viva::cli::defaultSubdirs();

    std::vector<viva::analyze::FileInput> files;
    if (!viva::cli::collectSources(kTool, root, subdirs, files, std::cerr))
        return viva::cli::kExitUsage;
    if (!compileCommands.empty()) {
        std::string text;
        if (!viva::cli::readFile(kTool, compileCommands, text, std::cerr))
            return viva::cli::kExitUsage;
        const std::set<std::string> compiled = compiledFiles(text, root);
        std::erase_if(files, [&](const viva::analyze::FileInput &f) {
            const std::string ext = fs::path(f.path).extension().string();
            return (ext == ".cc" || ext == ".cpp") && !compiled.count(f.path);
        });
    }

    const fs::path manifestPath = root / "tools" / "obs_manifest.txt";
    if (updateManifest) {
        const std::vector<std::string> names =
            viva::analyze::harvestPhaseNames(files);
        std::string text =
            "# Observability phase manifest. One histogram name per "
            "line; '#' comments.\n"
            "# Regenerate with: viva-analyze <root> --update-manifest\n"
            "# Checked by the obs-phase-manifest rule: every phase "
            "registered in src/\n"
            "# must be listed here, and every line here must match a "
            "registration.\n";
        for (const std::string &name : names)
            text += name + '\n';
        if (!writeFile(manifestPath, text))
            return viva::cli::kExitUsage;
        std::cout << kTool << ": wrote " << names.size() << " phase"
                  << (names.size() == 1 ? "" : "s") << " to "
                  << manifestPath.generic_string() << '\n';
        return viva::cli::kExitClean;
    }

    viva::analyze::Options options;
    options.jobs = viva::support::defaultThreadCount();
    std::string manifest;
    viva::analyze::Layering layering;
    std::string error;
    if (!viva::cli::readFile(kTool, root / "tools" / "layering.rules",
                             options.layering, std::cerr) ||
        !viva::cli::readFile(kTool, manifestPath, manifest, std::cerr))
        return viva::cli::kExitUsage;
    if (!viva::analyze::parseLayering(options.layering, layering, error)) {
        std::cerr << kTool << ": tools/layering.rules: " << error << '\n';
        return viva::cli::kExitUsage;
    }
    options.manifest = manifest;

    const viva::analyze::Result result =
        viva::analyze::analyze(files, options);
    if (!dotPath.empty() &&
        !writeFile(dotPath, viva::analyze::formatDot(result)))
        return viva::cli::kExitUsage;
    if (json) {
        std::cout << viva::analyze::formatJson(result);
    } else {
        for (const viva::analyze::Finding &f : result.findings)
            std::cout << viva::analyze::formatFinding(f) << '\n';
        std::cout << kTool << ": " << result.files << " files, "
                  << result.symbols << " symbols, " << result.edges
                  << " call edges, " << result.findings.size()
                  << " finding" << (result.findings.size() == 1 ? "" : "s")
                  << '\n';
    }
    return viva::cli::exitCodeForFindings(result.findings.size());
}
