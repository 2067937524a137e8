/**
 * @file
 * The Include pass of viva-analyze: the quoted include graph of the
 * scanned files, checked against the layer DAG of tools/layering.rules
 * (illegal-edge), for file-level cycles (include-cycle), and the DAG
 * itself (layering-rules).
 */

#include <algorithm>
#include <iterator>
#include <sstream>

#include "tools/analyze_internal.hh"

namespace viva::analyze
{

namespace
{

/** Collapse "." and ".." segments of a '/'-separated path. */
std::string
normalizePath(const std::string &path)
{
    std::vector<std::string> parts;
    std::istringstream in(path);
    std::string seg;
    while (std::getline(in, seg, '/')) {
        if (seg == "..") {
            if (!parts.empty())
                parts.pop_back();
        } else if (!seg.empty() && seg != ".") {
            parts.push_back(seg);
        }
    }
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : "/") + p;
    return out;
}

/**
 * Resolve a quoted include against the scanned files through the roots
 * the build uses: the repo root, src/ and the including file's own
 * directory. "" for system and out-of-tree headers.
 */
std::string
resolveInclude(const std::string &from, const std::string &target,
               const std::set<std::string> &known)
{
    const std::size_t slash = from.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : from.substr(0, slash + 1);
    for (const std::string &c :
         {normalizePath(target), normalizePath("src/" + target),
          normalizePath(dir + target)})
        if (known.count(c))
            return c;
    return "";
}

/** A depth-first walk that reports the first back edge it meets. */
template <typename SuccFn, typename CycleFn>
void
findCycles(const std::vector<std::string> &roots, const SuccFn &succ,
           const CycleFn &onCycle)
{
    std::map<std::string, int> colour;  // 0 new, 1 on stack, 2 done
    for (const std::string &root : roots) {
        if (colour[root] != 0)
            continue;
        std::vector<std::pair<std::string, std::size_t>> stack{{root, 0}};
        colour[root] = 1;
        while (!stack.empty()) {
            const std::string node = stack.back().first;
            const auto &next = succ(node);
            if (stack.back().second >= next.size()) {
                colour[node] = 2;
                stack.pop_back();
                continue;
            }
            const auto &edge = next[stack.back().second++];
            const std::string &to = edge.first;
            if (colour[to] == 1) {
                std::vector<std::string> cycle;
                for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                    cycle.push_back(it->first);
                    if (it->first == to)
                        break;
                }
                std::reverse(cycle.begin(), cycle.end());
                cycle.push_back(to);
                if (!onCycle(node, edge.second, cycle))
                    return;
            } else if (colour[to] == 0) {
                colour[to] = 1;
                stack.emplace_back(to, 0);
            }
        }
    }
}

std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : sep) + p;
    return out;
}

} // namespace

bool
parseLayering(const std::string &text, Layering &out, std::string &error)
{
    out = Layering{};
    std::istringstream in(text);
    std::string line;
    for (std::size_t no = 1; std::getline(in, line); ++no) {
        std::istringstream words(line.substr(0, line.find('#')));
        std::vector<std::string> w{std::istream_iterator<std::string>(words),
                                   std::istream_iterator<std::string>()};
        const std::string where = "line " + std::to_string(no) + ": ";
        if (w.empty())
            continue;
        if (w[0] == "layer") {
            if (w.size() < 3) {
                error = where + "layer needs a name and at least one prefix";
                return false;
            }
            out.layers.push_back({w[1], {w.begin() + 2, w.end()}});
        } else if (w[0] == "allow") {
            if (w.size() < 4 || w[2] != "->") {
                error = where + "expected `allow <from> -> <to>...`";
                return false;
            }
            for (std::size_t i = 3; i < w.size(); ++i)
                if (w[i] == "*")
                    out.unrestricted.insert(w[1]);
                else
                    out.allowed[w[1]].insert(w[i]);
        } else {
            error = where + "unknown directive '" + w[0] + "'";
            return false;
        }
    }

    std::set<std::string> names;
    for (const Layering::Layer &layer : out.layers)
        if (!names.insert(layer.name).second) {
            error = "layer '" + layer.name + "' declared twice";
            return false;
        }
    std::set<std::string> used(out.unrestricted);
    for (const auto &[from, tos] : out.allowed) {
        used.insert(from);
        used.insert(tos.begin(), tos.end());
    }
    for (const std::string &name : used)
        if (!names.count(name)) {
            error = "allow references unknown layer '" + name + "'";
            return false;
        }
    return true;
}

std::string
layerOf(const std::string &path, const Layering &layering)
{
    std::string best;
    std::size_t bestLen = 0;
    for (const Layering::Layer &layer : layering.layers)
        for (const std::string &prefix : layer.prefixes)
            if (startsWith(path, prefix) && prefix.size() >= bestLen) {
                best = layer.name;
                bestLen = prefix.size();
            }
    return best;
}

void
runIncludeRules(const std::vector<Unit> &units, const Options &options,
                std::vector<Finding> &out)
{
    Layering layering;
    std::string error;
    if (!parseLayering(options.layering, layering, error))
        out.push_back({"tools/layering.rules", 0, "layering-rules", error});

    // The allow-edges must form a DAG.
    std::vector<std::string> layerNames;
    for (const Layering::Layer &layer : layering.layers)
        layerNames.push_back(layer.name);
    std::map<std::string, std::vector<std::pair<std::string, std::size_t>>>
        allowEdges;
    for (const auto &[from, tos] : layering.allowed)
        for (const std::string &to : tos)
            allowEdges[from].emplace_back(to, 0);
    findCycles(
        layerNames,
        [&](const std::string &layer) -> const auto & {
            return allowEdges[layer];
        },
        [&](const std::string &, std::size_t,
            const std::vector<std::string> &cycle) {
            out.push_back({"tools/layering.rules", 0, "layering-rules",
                           "allow-edges form a cycle: " +
                               join(cycle, " -> ")});
            return false;
        });

    std::set<std::string> known;
    std::vector<std::string> paths;
    for (const Unit &unit : units) {
        known.insert(unit.file->path);
        paths.push_back(unit.file->path);
    }

    // file -> [(included file, line)]
    std::map<std::string, std::vector<std::pair<std::string, std::size_t>>>
        graph;
    for (const Unit &unit : units) {
        const std::string &path = unit.file->path;
        const std::string fromLayer = layerOf(path, layering);
        const std::vector<Token> &code = unit.code;
        for (std::size_t i = 0; i + 2 < code.size(); ++i) {
            if (!code[i].inPreproc || code[i].text != "#" ||
                code[i + 1].text != "include" ||
                code[i + 2].kind != Tok::String)
                continue;
            const std::string target =
                resolveInclude(path, code[i + 2].text, known);
            if (target.empty())
                continue;
            const std::size_t line = code[i].line;
            graph[path].emplace_back(target, line);

            const std::string toLayer = layerOf(target, layering);
            const auto allowed = layering.allowed.find(fromLayer);
            if (fromLayer.empty() || toLayer.empty() ||
                fromLayer == toLayer ||
                layering.unrestricted.count(fromLayer) ||
                (allowed != layering.allowed.end() &&
                 allowed->second.count(toLayer)))
                continue;
            const std::vector<std::string> may =
                allowed == layering.allowed.end()
                    ? std::vector<std::string>{}
                    : std::vector<std::string>(allowed->second.begin(),
                                               allowed->second.end());
            report(out, unit, line, "illegal-edge",
                   "layer '" + fromLayer + "' must not include '" +
                       target + "' (layer '" + toLayer +
                       "'); allowed from '" + fromLayer + "': " +
                       (may.empty() ? "nothing" : join(may, ", ")));
        }
    }

    std::map<std::string, const Unit *> unitOf;
    for (const Unit &unit : units)
        unitOf[unit.file->path] = &unit;
    findCycles(
        paths,
        [&](const std::string &file) -> const auto & {
            return graph[file];
        },
        [&](const std::string &from, std::size_t line,
            const std::vector<std::string> &cycle) {
            report(out, *unitOf.at(from), line, "include-cycle",
                   "include cycle: " + join(cycle, " -> "));
            return true;
        });
}

} // namespace viva::analyze
