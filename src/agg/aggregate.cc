/**
 * @file
 * Implementation of spatial/temporal aggregation.
 */

#include "agg/aggregate.hh"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <span>
#include <unordered_map>

#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"

namespace viva::agg
{

namespace obs = support::obs;

using trace::ContainerId;
using trace::MetricId;

namespace
{

/**
 * Leaves per reduction chunk. Fixed -- never derived from the thread
 * count -- so the partial-combination order, and with it every
 * floating-point result, is identical from 1 thread to N. Subtrees of
 * up to kLeafChunk members reduce in one chunk, i.e. exactly the
 * historical left-to-right order.
 */
constexpr std::size_t kLeafChunk = 64;

/** The temporal reduction of one variable over a slice. */
double
reduce(const trace::Variable &var, const TimeSlice &slice, TemporalOp top)
{
    switch (top) {
      case TemporalOp::Average:
        return var.average(slice);
      case TemporalOp::Max:
        return var.maxOver(slice.begin, slice.end);
      case TemporalOp::Min:
        return var.minOver(slice.begin, slice.end);
      case TemporalOp::Integral:
        return var.integrate(slice);
    }
    return 0.0;
}

/** Partial spatial reduction of one chunk of subtree members. */
struct Partial
{
    bool any = false;
    double acc = 0.0;
    std::size_t count = 0;
};

/** Fold one value into a partial (left-to-right within the chunk). */
void
fold(Partial &p, double v, SpatialOp op)
{
    ++p.count;
    if (!p.any) {
        p.acc = v;
        p.any = true;
        return;
    }
    switch (op) {
      case SpatialOp::Sum:
      case SpatialOp::Average:
        p.acc += v;
        break;
      case SpatialOp::Max:
        p.acc = std::max(p.acc, v);
        break;
      case SpatialOp::Min:
        p.acc = std::min(p.acc, v);
        break;
    }
}

/** Chunk-order partial combiner (shared by both fold paths). */
Partial
combinePartials(Partial a, Partial b, SpatialOp op)
{
    if (!b.any)
        return a;
    if (!a.any)
        return b;
    fold(a, b.acc, op);
    a.count += b.count - 1;  // fold counted b as one value
    return a;
}

} // namespace

Aggregator::Aggregator(const trace::Trace &trace, std::size_t threads)
    : tr(&trace), nthreads(threads)
{
    obs::Registry &reg = obs::Registry::global();
    valuesCounter = reg.counter("agg.values");
    closureHits = reg.counter("agg.closure.hits");
    closureMisses = reg.counter("agg.closure.misses");
}

double
Aggregator::value(ContainerId node, MetricId m, const TimeSlice &slice,
                  SpatialOp op, TemporalOp top) const
{
    // Counted but deliberately not timed: one Eq.-1 fold can be a few
    // hundred nanoseconds and runs inside parallel workers, so a timer
    // here would dominate the quantity being measured. buildView()
    // times the enclosing pass instead.
    obs::Registry &reg = obs::Registry::global();
    const bool armed = reg.enabled();
    if (armed)
        reg.add(valuesCounter);

    support::ThreadPool &pool = support::ThreadPool::global();
    auto combine = [op](Partial a, Partial b) {
        return combinePartials(a, b, op);
    };

    Partial total;
    if (tr->closureFresh()) {
        // The cached Eq.-1 fold: no subtree materialization, no
        // findVariable hash lookups -- just the precomputed carrier
        // list, reduced over the same fixed-size chunks.
        if (armed)
            reg.add(closureHits);
        std::span<const trace::Variable *const> carried =
            tr->carriers(node, m);
        total = pool.reduceOrdered<Partial>(
            0, carried.size(), kLeafChunk, nthreads, Partial{},
            [&](std::size_t lo, std::size_t hi) {
                Partial p;
                for (std::size_t i = lo; i < hi; ++i)
                    fold(p, reduce(*carried[i], slice, top), op);
                return p;
            },
            combine);
    } else {
        // Every container in the subtree that carries the variable
        // contributes -- not just leaves, since traces may attach
        // measurements at any level (hosts with process children, say).
        if (armed)
            reg.add(closureMisses);
        std::vector<ContainerId> members = tr->subtree(node);
        total = pool.reduceOrdered<Partial>(
            0, members.size(), kLeafChunk, nthreads, Partial{},
            [&](std::size_t lo, std::size_t hi) {
                Partial p;
                for (std::size_t i = lo; i < hi; ++i) {
                    const trace::Variable *var =
                        tr->findVariable(members[i], m);
                    if (!var || var->empty())
                        continue;
                    fold(p, reduce(*var, slice, top), op);
                }
                return p;
            },
            combine);
    }
    if (!total.any)
        return 0.0;
    if (op == SpatialOp::Average)
        return total.acc / double(total.count);
    return total.acc;
}

support::Samples
Aggregator::distribution(ContainerId node, MetricId m,
                         const TimeSlice &slice, TemporalOp top) const
{
    // Per-chunk sample vectors concatenated in chunk order: the sample
    // sequence equals the serial traversal for every thread count --
    // and for both fold paths, since the carrier list holds exactly
    // the non-empty subtree variables in preorder.
    support::ThreadPool &pool = support::ThreadPool::global();
    std::vector<double> all;
    auto concat = [](std::vector<double> a, std::vector<double> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    if (tr->closureFresh()) {
        std::span<const trace::Variable *const> carried =
            tr->carriers(node, m);
        all = pool.reduceOrdered<std::vector<double>>(
            0, carried.size(), kLeafChunk, nthreads,
            std::vector<double>{},
            [&](std::size_t lo, std::size_t hi) {
                std::vector<double> part;
                part.reserve(hi - lo);
                for (std::size_t i = lo; i < hi; ++i)
                    part.push_back(reduce(*carried[i], slice, top));
                return part;
            },
            concat);
    } else {
        std::vector<ContainerId> members = tr->subtree(node);
        all = pool.reduceOrdered<std::vector<double>>(
            0, members.size(), kLeafChunk, nthreads,
            std::vector<double>{},
            [&](std::size_t lo, std::size_t hi) {
                std::vector<double> part;
                for (std::size_t i = lo; i < hi; ++i) {
                    const trace::Variable *var =
                        tr->findVariable(members[i], m);
                    if (var && !var->empty())
                        part.push_back(reduce(*var, slice, top));
                }
                return part;
            },
            concat);
    }
    support::Samples samples;
    for (double v : all)
        samples.add(v);
    return samples;
}

std::vector<ViewEdge>
visibleEdges(const trace::Trace &trace, const HierarchyCut &cut)
{
    std::vector<ViewEdge> edges;
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (const trace::Trace::Relation &r : trace.relations()) {
        ContainerId a = cut.representative(r.a);
        ContainerId b = cut.representative(r.b);
        if (a == b)
            continue;  // contracted inside one aggregated node
        ContainerId lo = std::min(a, b);
        ContainerId hi = std::max(a, b);
        std::uint64_t key = (std::uint64_t(lo.value()) << 32) | hi.value();
        auto it = index.find(key);
        if (it == index.end()) {
            index.emplace(key, edges.size());
            edges.push_back({lo, hi, 1});
        } else {
            ++edges[it->second].multiplicity;
        }
    }
    return edges;
}

std::size_t
View::indexOf(ContainerId id) const
{
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].id == id)
            return i;
    return npos;
}

double
View::valueOf(ContainerId id, MetricId m) const
{
    std::size_t node = indexOf(id);
    if (node == npos)
        return 0.0;
    for (std::size_t k = 0; k < metrics.size(); ++k)
        if (metrics[k] == m)
            return nodes[node].values[k];
    return 0.0;
}

support::Expected<View>
buildView(const trace::Trace &trace, const HierarchyCut &cut,
          const TimeSlice &slice,
          const std::vector<MetricRequest> &requests, bool with_stats,
          std::size_t threads, support::Deadline deadline)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("agg.build_view");
    obs::ScopedPhase timer(phase);

    View view;
    view.slice = slice;
    view.requests = requests;
    view.metrics.reserve(requests.size());
    for (const MetricRequest &r : requests)
        view.metrics.push_back(r.metric);

    // One slot per visible node, filled by exactly one worker: the
    // parallel build writes the same bits the serial one would, in the
    // same node order, for every thread count. The per-subtree
    // reduction below stays serial inside a worker (nested parallel
    // calls run inline), so its chunk order is fixed as well.
    std::vector<ContainerId> visible = cut.visibleNodes();
    view.nodes.resize(visible.size());
    Aggregator agg(trace);
    // The per-node cancellation checkpoint: the first worker to see
    // the deadline passed latches the flag, and every worker then
    // skips the rest of its range.
    std::atomic<bool> aborted{false};
    support::ThreadPool::global().parallelFor(
        0, visible.size(), 1, threads,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                if (deadline.armed() &&
                    (aborted.load(std::memory_order_relaxed) ||
                     deadline.expired())) {
                    aborted.store(true, std::memory_order_relaxed);
                    return;
                }
                ContainerId id = visible[i];
                ViewNode &node = view.nodes[i];
                node.id = id;
                node.aggregated = !trace.container(id).leaf();
                node.leafCount =
                    node.aggregated ? trace.leavesUnder(id).size() : 1;
                node.values.reserve(requests.size());
                for (const MetricRequest &r : requests) {
                    if (with_stats) {
                        support::Samples s = agg.distribution(
                            id, r.metric, slice, r.temporal);
                        double v = 0.0;
                        switch (r.spatial) {
                          case SpatialOp::Sum: v = s.sum(); break;
                          case SpatialOp::Average: v = s.mean(); break;
                          case SpatialOp::Max: v = s.max(); break;
                          case SpatialOp::Min: v = s.min(); break;
                        }
                        node.values.push_back(v);
                        node.stats.push_back({s.variance(), s.median(),
                                              s.min(), s.max()});
                    } else {
                        node.values.push_back(
                            agg.value(id, r.metric, slice, r.spatial,
                                      r.temporal));
                    }
                }
            }
        });

    // A deadline that trips after the last node but before the edge
    // projection still aborts: the caller wants the budget honoured,
    // not a lucky partial result.
    if (aborted.load(std::memory_order_relaxed) || deadline.expired()) {
        support::noteDeadlineAbort();
        return VIVA_ERROR(support::Errc::Deadline,
                          "aggregation over ", cut.visibleCount(),
                          " visible nodes ran past its deadline");
    }
    view.edges = visibleEdges(trace, cut);
    return view;
}

View
buildView(const trace::Trace &trace, const HierarchyCut &cut,
          const TimeSlice &slice,
          const std::vector<trace::MetricId> &metrics, SpatialOp op,
          bool with_stats, std::size_t threads)
{
    std::vector<MetricRequest> requests;
    requests.reserve(metrics.size());
    for (trace::MetricId m : metrics)
        requests.emplace_back(m, op);
    return buildView(trace, cut, slice, requests, with_stats, threads)
        .value();
}

void
writeViewCsv(const View &view, const trace::Trace &trace,
             std::ostream &out)
{
    using support::formatDouble;

    bool with_stats =
        !view.nodes.empty() && !view.nodes[0].stats.empty();

    out << "container,kind,aggregated,leaves,slice_begin,slice_end";
    for (trace::MetricId m : view.metrics) {
        const std::string &name = trace.metric(m).name;
        out << ',' << name;
        if (with_stats)
            out << ',' << name << "_variance," << name << "_median,"
                << name << "_min," << name << "_max";
    }
    out << '\n';

    for (const ViewNode &node : view.nodes) {
        const trace::Container &c = trace.container(node.id);
        out << '"' << trace.fullName(node.id) << "\","
            << containerKindName(c.kind) << ','
            << (node.aggregated ? 1 : 0) << ',' << node.leafCount << ','
            << formatDouble(view.slice.begin) << ','
            << formatDouble(view.slice.end);
        for (std::size_t k = 0; k < node.values.size(); ++k) {
            out << ',' << formatDouble(node.values[k]);
            if (with_stats) {
                const ValueStats &s = node.stats[k];
                out << ',' << formatDouble(s.variance) << ','
                    << formatDouble(s.median) << ','
                    << formatDouble(s.min) << ',' << formatDouble(s.max);
            }
        }
        out << '\n';
    }
}

support::AuditLog
auditView(const trace::Trace &trace, const HierarchyCut &cut,
          const View &view)
{
    using support::auditFail;
    using support::nearlyEqual;

    // Equation-1 conservation tolerance: the serial recomputation must
    // reproduce every aggregated value to full double precision.
    constexpr double kTol = 1e-12;

    support::AuditLog log;
    if (view.metrics.size() != view.requests.size())
        auditFail(log, "view lists ", view.metrics.size(),
                  " metrics for ", view.requests.size(), " requests");
    for (std::size_t k = 0;
         k < std::min(view.metrics.size(), view.requests.size()); ++k)
        if (view.metrics[k] != view.requests[k].metric)
            auditFail(log, "metric column ", k,
                      " disagrees with its request");

    std::vector<ContainerId> visible = cut.visibleNodes();
    if (view.nodes.size() != visible.size()) {
        auditFail(log, "view holds ", view.nodes.size(),
                  " nodes for ", visible.size(), " visible containers");
        return log;
    }

    Aggregator serial(trace);  // thread count 1: the reference fold
    for (std::size_t i = 0; i < view.nodes.size(); ++i) {
        const ViewNode &node = view.nodes[i];
        if (node.id != visible[i]) {
            auditFail(log, "node ", i, " is container ", node.id,
                      " instead of ", visible[i]);
            continue;
        }
        bool aggregated = !trace.container(node.id).leaf();
        if (node.aggregated != aggregated)
            auditFail(log, "node ", i, " ('", trace.fullName(node.id),
                      "') has a wrong aggregated flag");
        std::size_t leaves =
            aggregated ? trace.leavesUnder(node.id).size() : 1;
        if (node.leafCount != leaves)
            auditFail(log, "node ", i, " covers ", node.leafCount,
                      " leaves instead of ", leaves);
        if (node.values.size() != view.requests.size()) {
            auditFail(log, "node ", i, " carries ", node.values.size(),
                      " values for ", view.requests.size(), " requests");
            continue;
        }
        if (!node.stats.empty() &&
            node.stats.size() != view.requests.size())
            auditFail(log, "node ", i, " carries ", node.stats.size(),
                      " stat blocks for ", view.requests.size(),
                      " requests");
        for (std::size_t k = 0; k < view.requests.size(); ++k) {
            const MetricRequest &r = view.requests[k];
            if (!std::isfinite(node.values[k])) {
                auditFail(log, "node ", i, " metric ", k,
                          " is non-finite");
                continue;
            }
            double expect = serial.value(node.id, r.metric, view.slice,
                                         r.spatial, r.temporal);
            if (!nearlyEqual(node.values[k], expect, kTol))
                auditFail(log, "node ", i, " ('",
                          trace.fullName(node.id), "') metric ", k,
                          ": value ", node.values[k],
                          " != serial recomputation ", expect,
                          " (Equation-1 conservation)");
        }
    }

    // Edges: an independent re-projection must agree exactly.
    std::vector<ViewEdge> expect_edges = visibleEdges(trace, cut);
    if (view.edges.size() != expect_edges.size()) {
        auditFail(log, "view holds ", view.edges.size(), " edges, "
                  "re-projection yields ", expect_edges.size());
        return log;
    }
    for (std::size_t i = 0; i < view.edges.size(); ++i) {
        const ViewEdge &e = view.edges[i];
        const ViewEdge &x = expect_edges[i];
        if (e.a != x.a || e.b != x.b || e.multiplicity != x.multiplicity)
            auditFail(log, "edge ", i, " (", e.a, "--", e.b, " x",
                      e.multiplicity, ") != re-projection (", x.a, "--",
                      x.b, " x", x.multiplicity, ")");
        if (view.indexOf(e.a) == View::npos ||
            view.indexOf(e.b) == View::npos)
            auditFail(log, "edge ", i,
                      " touches a container outside the view");
    }
    return log;
}

} // namespace viva::agg
