/**
 * @file
 * Implementation of spatial/temporal aggregation.
 */

#include "agg/aggregate.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <ostream>
#include <span>

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

/**
 * `use(reduce)`, where `reduce(var)` is the temporal reduction `top` of
 * one variable over `slice`: the operator is chosen once per carrier
 * list, not once per carrier.
 */
template <class Use>
decltype(auto)
withReduction(const TimeSlice &slice, TemporalOp top, Use &&use)
{
    switch (top) {
      case TemporalOp::Max:
        return use([&slice](const trace::Variable &var) {
            return var.maxOver(slice.begin, slice.end);
        });
      case TemporalOp::Min:
        return use([&slice](const trace::Variable &var) {
            return var.minOver(slice.begin, slice.end);
        });
      case TemporalOp::Integral:
        return use([&slice](const trace::Variable &var) {
            return var.integrate(slice);
        });
      case TemporalOp::Average:
        break;
    }
    return use([&slice](const trace::Variable &var) {
        return var.average(slice);
    });
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

/** The aggregated value a partial stands for. */
double
finish(const Partial &p, SpatialOp op)
{
    if (!p.any)
        return 0.0;
    if (op == SpatialOp::Average)
        return p.acc / double(p.count);
    return p.acc;
}

/**
 * `term(0) .. term(n - 1)` reduced through ThreadPool::reduceOrdered:
 * left to right inside kLeafChunk-sized chunks, partials combined in
 * ascending chunk order.
 */
template <class Term>
Partial
chunkedPartial(std::size_t n, SpatialOp op, std::size_t threads,
               Term &&term)
{
    return support::ThreadPool::global().reduceOrdered<Partial>(
        0, n, kLeafChunk, threads, Partial{},
        [&](std::size_t lo, std::size_t hi) {
            Partial p;
            for (std::size_t i = lo; i < hi; ++i)
                fold(p, term(i), op);
            return p;
        },
        [op](Partial a, Partial b) {
            if (!b.any)
                return a;
            if (!a.any)
                return b;
            fold(a, b.acc, op);
            a.count += b.count - 1;  // fold counted b as one value
            return a;
        });
}

/**
 * The Eq.-1 spatial reduction of `term(0) .. term(n - 1)`: the one fold
 * behind every aggregated value, so value() and the with-stats view
 * agree to the bit for every thread count. A single chunk folds
 * inline: reduceOrdered would run the same left-to-right fold and
 * combine its one partial with an empty one, so the bits are the same
 * without the pool's partial vector and chunk callback per value.
 */
template <class Term>
double
foldTerms(std::size_t n, SpatialOp op, std::size_t threads, Term &&term)
{
    if (n > kLeafChunk)
        return finish(chunkedPartial(n, op, threads, term), op);
    Partial p;
    for (std::size_t i = 0; i < n; ++i)
        fold(p, term(i), op);
    return finish(p, op);
}

/**
 * Equation 1 for one container and metric, uncounted: value() counts
 * per call, foldValues() once per view.
 */
double
foldValue(const trace::Trace &trace, ContainerId node, MetricId m,
          const TimeSlice &slice, SpatialOp op, TemporalOp top,
          std::size_t threads)
{
    std::span<const trace::Variable> carried = trace.carriers(node, m);
    return withReduction(slice, top, [&](auto reduce) {
        return foldTerms(carried.size(), op, threads,
                         [&](std::size_t i) { return reduce(carried[i]); });
    });
}

} // namespace

double
spatialFold(std::span<const double> terms, SpatialOp op,
            std::size_t threads)
{
    return foldTerms(terms.size(), op, threads,
                     [terms](std::size_t i) { return terms[i]; });
}

double
chunkedFold(std::span<const double> terms, SpatialOp op,
            std::size_t threads)
{
    return finish(chunkedPartial(terms.size(), op, threads,
                                 [terms](std::size_t i) { return terms[i]; }),
                  op);
}

Aggregator::Aggregator(const trace::Trace &trace, std::size_t threads)
    : tr(&trace), nthreads(threads)
{
    obs::Registry &reg = obs::Registry::global();
    valuesCounter = reg.counter("agg.values");
    closureHits = reg.counter("agg.closure.hits");
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
    reg.add(valuesCounter);
    reg.add(closureHits);
    return foldValue(*tr, node, m, slice, op, top, nthreads);
}

support::Samples
Aggregator::distribution(ContainerId node, MetricId m,
                         const TimeSlice &slice, TemporalOp top) const
{
    support::Samples samples;
    withReduction(slice, top, [&](auto reduce) {
        for (const trace::Variable &var : tr->carriers(node, m))
            samples.add(reduce(var));
    });
    return samples;
}

namespace
{

/** End of an edge chain. */
constexpr std::uint32_t kNone = ~std::uint32_t(0);

/** The contracted edges at one node's slot, newest first. */
struct EdgeChain
{
    std::uint32_t head = kNone;  ///< the newest edge
    std::uint32_t degree = 0;    ///< edges chained here
};

/** Contracted edges, each with the relation it first came from. */
struct Contraction
{
    std::vector<ViewEdge> edges;
    std::vector<std::uint32_t> first;
};

/**
 * Contract relations onto a cut's `nodes`, given the slot of each
 * endpoint's representative: for_each_relation(visit) visits the
 * indices of the relations to contract, ascending. Self-loops vanish,
 * parallel edges merge into the first occurrence with a multiplicity.
 * Each edge is chained at both endpoints' slots, and a relation seeks
 * its pair along the endpoint with fewer edges so far: a switch's
 * hundred host links each cost the link's one edge, not the switch's
 * hundred.
 */
template <class ForEachRelation, class SlotOf>
Contraction
contractRelations(const trace::Trace &trace,
                  std::span<const ContainerId> nodes,
                  ForEachRelation &&for_each_relation, SlotOf &&slot_of)
{
    std::vector<EdgeChain> chains(nodes.size());
    Contraction out;
    std::vector<ViewEdge> &edges = out.edges;
    std::vector<std::array<std::uint32_t, 2>> next;  // at a's, b's slot
    const std::vector<trace::Trace::Relation> &rels = trace.relations();
    for_each_relation([&](std::uint32_t ri) {
        const trace::Trace::Relation &r = rels[ri];
        std::uint32_t sa = slot_of(r.a);
        std::uint32_t sb = slot_of(r.b);
        VIVA_ASSERT(sa != kHidden && sb != kHidden, "relation ", r.a,
                    "--", r.b, " ends outside the cut's nodes");
        if (sa == sb)
            return;  // contracted inside one aggregated node
        if (nodes[sb] < nodes[sa])
            std::swap(sa, sb);
        const ContainerId lo = nodes[sa];
        const ContainerId hi = nodes[sb];
        const std::uint32_t s =
            chains[sa].degree <= chains[sb].degree ? sa : sb;
        std::uint32_t e = chains[s].head;
        while (e != kNone && (edges[e].a != lo || edges[e].b != hi))
            e = next[e][edges[e].a == nodes[s] ? 0 : 1];
        if (e != kNone) {
            ++edges[e].multiplicity;
            return;
        }
        e = std::uint32_t(edges.size());
        edges.push_back({lo, hi, 1});
        out.first.push_back(ri);
        next.push_back({chains[sa].head, chains[sb].head});
        for (std::uint32_t end : {sa, sb})
            chains[end] = {e, chains[end].degree + 1};
    });
    return out;
}

/** Visit every relation index of the trace, ascending. */
auto
allRelations(const trace::Trace &trace)
{
    return [n = std::uint32_t(trace.relations().size())](auto &&visit) {
        for (std::uint32_t ri = 0; ri < n; ++ri)
            visit(ri);
    };
}

} // namespace

CutProjection
project(const trace::Trace &trace, const HierarchyCut &cut,
        const CutProjection &prev)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("agg.project");
    static const obs::CounterId containers_counter =
        reg.counter("agg.project.containers");
    static const obs::CounterId relations_counter =
        reg.counter("agg.project.relations");
    obs::ScopedPhase timer(phase);

    const std::size_t count = trace.containerCount();
    VIVA_ASSERT(prev.repOf.empty() || prev.repOf.size() == count,
                "projection of ", prev.repOf.size(),
                " containers for a trace of ", count);
    CutProjection p;
    // From nothing, the walk below writes every entry: each container
    // is above the visible nodes or under one.
    if (prev.repOf.empty()) {
        p.repOf.assign(count, trace::kNoContainer);
        p.slotOf.assign(count, kHidden);
    } else {
        p.repOf = prev.repOf;
        p.slotOf = prev.slotOf;
    }

    // One walk of the frozen preorder. A container is a visible node
    // when collapsed, or when a leaf other than the root (as in
    // HierarchyCut::visibleNodes), and the walk then skips the rest of
    // its subtree. A container above the visible nodes represents
    // itself and is not shown; only one that was shown or hidden before
    // changes. A node entering the view represents its whole subtree
    // and hides the rest of it; a node that stays keeps its subtree as
    // it was.
    const std::vector<std::uint8_t> &collapsed = cut.collapsedFlags();
    const std::span<const ContainerId> order =
        trace.cachedSubtree(trace.root());
    std::uint64_t rewritten = 0;
    // At most one node per container: growing the list would cost a
    // full change more than the bound costs.
    p.nodes.reserve(count);
    for (std::size_t s = 0; s < order.size();) {
        const ContainerId id = order[s];
        const std::span<const ContainerId> below = trace.cachedSubtree(id);
        if (!collapsed[id.index()] &&
            (below.size() > 1 || id == trace.root())) {
            if (p.repOf[id.index()] != id ||
                p.slotOf[id.index()] != kHidden) {
                p.repOf[id.index()] = id;
                p.slotOf[id.index()] = kHidden;
                ++rewritten;
            }
            ++s;
            continue;
        }
        s += below.size();
        const bool enters = prev.slot(id) == kHidden;
        p.slotOf[id.index()] = std::uint32_t(p.nodes.size());
        p.nodes.push_back(id);
        if (!enters)
            continue;
        p.repOf[id.index()] = id;
        for (ContainerId c : below.subspan(1)) {
            p.repOf[c.index()] = id;
            p.slotOf[c.index()] = kHidden;
        }
        rewritten += below.size();
    }

    p.leafCounts.resize(p.nodes.size());
    for (std::size_t i = 0; i < p.nodes.size(); ++i)
        p.leafCounts[i] = trace.leafCount(p.nodes[i]);

    auto slot_of = [slot = p.slotOf.data(),
                    rep = p.repOf.data()](ContainerId id) {
        return slot[rep[id.index()].index()];
    };
    const std::size_t relations = trace.relations().size();
    if (rewritten * 2 >= count) {
        // The entering subtrees hold most containers, and so most
        // relations: contracting them all costs less than picking
        // theirs out.
        Contraction all =
            contractRelations(trace, p.nodes, allRelations(trace), slot_of);
        p.edges = std::move(all.edges);
        p.firstRelation = std::move(all.first);
        reg.add(containers_counter, rewritten);
        reg.add(relations_counter, relations);
        return p;
    }

    // The relations incident to the entering subtrees, each once, in
    // relation order.
    std::vector<std::uint64_t> marked((relations + 63) / 64, 0);
    for (ContainerId id : p.nodes)
        if (prev.slot(id) == kHidden)
            for (std::uint32_t ri : trace.subtreeIncidence(id))
                marked[ri >> 6] |= std::uint64_t(1) << (ri & 63);
    std::uint64_t contracted = 0;
    Contraction fresh = contractRelations(
        trace, p.nodes,
        [&](auto &&visit) {
            for (std::size_t w = 0; w < marked.size(); ++w)
                for (std::uint64_t bits = marked[w]; bits != 0;
                     bits &= bits - 1) {
                    ++contracted;
                    visit(std::uint32_t(
                        w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits))));
                }
        },
        slot_of);

    // The edges of prev whose endpoints both stay, merged with the
    // fresh ones by first relation.
    p.edges.reserve(fresh.edges.size() + prev.edges.size());
    p.firstRelation.reserve(p.edges.capacity());
    std::size_t f = 0;
    auto take_fresh_before = [&](std::uint32_t bound) {
        for (; f < fresh.edges.size() && fresh.first[f] < bound; ++f) {
            p.edges.push_back(fresh.edges[f]);
            p.firstRelation.push_back(fresh.first[f]);
        }
    };
    for (std::size_t k = 0; k < prev.edges.size(); ++k) {
        const ViewEdge &e = prev.edges[k];
        if (p.slotOf[e.a.index()] == kHidden ||
            p.slotOf[e.b.index()] == kHidden)
            continue;
        take_fresh_before(prev.firstRelation[k]);
        p.edges.push_back(e);
        p.firstRelation.push_back(prev.firstRelation[k]);
    }
    take_fresh_before(kNone);
    reg.add(containers_counter, rewritten);
    reg.add(relations_counter, contracted);
    return p;
}

CutProjection
project(const trace::Trace &trace, const HierarchyCut &cut)
{
    return project(trace, cut, CutProjection());
}

std::vector<std::uint32_t>
cutDelta(const CutProjection &prev, const CutProjection &next)
{
    std::vector<std::uint32_t> from(next.size());
    for (std::size_t j = 0; j < next.size(); ++j)
        from[j] = prev.slot(next.nodes[j]);
    return from;
}

std::vector<ViewEdge>
visibleEdges(const trace::Trace &trace, const HierarchyCut &cut)
{
    return project(trace, cut).edges;
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
    for (std::size_t k = 0; k < requests.size(); ++k)
        if (requests[k].metric == m)
            return value(node, k);
    return 0.0;
}

void
reshapeView(View &view, const trace::Trace &trace,
            const CutProjection &projection)
{
    view.nodes.resize(projection.size());
    for (std::size_t i = 0; i < view.nodes.size(); ++i)
        view.nodes[i] = {projection.nodes[i],
                         !trace.container(projection.nodes[i]).leaf(),
                         projection.leafCounts[i]};
    view.edges = projection.edges;
}

namespace
{

/**
 * Run `visit(i)` for every visible node in parallel (each call writes
 * only node i's slots, so the result is the serial one for every
 * thread count), polling `deadline` once per node: the first worker
 * to see it passed latches the flag, and every worker then skips the
 * rest of its range. A deadline that trips after the last node still
 * aborts: the caller wants the budget honoured, not a lucky result.
 */
template <class Visit>
support::Expected<void>
forEachNode(std::size_t n, std::size_t threads, support::Deadline deadline,
            Visit &&visit)
{
    std::atomic<bool> aborted{false};
    support::ThreadPool::global().parallelFor(
        0, n, 1, threads, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                if (deadline.armed() &&
                    (aborted.load(std::memory_order_relaxed) ||
                     deadline.expired())) {
                    aborted.store(true, std::memory_order_relaxed);
                    return;
                }
                visit(i);
            }
        });
    if (aborted.load(std::memory_order_relaxed) || deadline.expired()) {
        support::noteDeadlineAbort();
        return VIVA_ERROR(support::Errc::Deadline, "aggregation over ", n,
                          " visible nodes ran past its deadline");
    }
    return {};
}

/**
 * The Eq.-1 fold of `count` rows of `values`, row(t) for t in
 * [0, count): the one body of foldValues and foldRows. Each value folds
 * serially inside its worker (threads = 1 below), so its chunk order is
 * fixed as well.
 */
template <class Row>
support::Expected<void>
foldInto(const trace::Trace &trace, const CutProjection &projection,
         const TimeSlice &slice, const std::vector<MetricRequest> &requests,
         std::vector<double> &values, std::size_t count, Row &&row,
         std::size_t threads, support::Deadline deadline)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("agg.build_view");
    static const obs::CounterId counted = reg.counter("agg.values");
    static const obs::CounterId hits = reg.counter("agg.closure.hits");
    obs::ScopedPhase timer(phase);

    const std::vector<ContainerId> &visible = projection.nodes;
    const std::size_t k = requests.size();
    support::Expected<void> folded =
        forEachNode(count, threads, deadline, [&](std::size_t t) {
            const std::size_t i = row(t);
            for (std::size_t j = 0; j < k; ++j) {
                const MetricRequest &r = requests[j];
                values[i * k + j] = foldValue(trace, visible[i], r.metric,
                                              slice, r.spatial,
                                              r.temporal, 1);
            }
        });
    if (!folded)
        return VIVA_ERROR_CONTEXT(folded.error(), "Eq.-1 fold");
    // Counted once per fold, with value()'s per-call totals.
    reg.add(counted, count * k);
    reg.add(hits, count * k);
    return {};
}

} // namespace

support::Expected<void>
foldValues(const trace::Trace &trace, const CutProjection &projection,
           const TimeSlice &slice,
           const std::vector<MetricRequest> &requests,
           std::vector<double> &values, std::size_t threads,
           support::Deadline deadline)
{
    values.resize(projection.size() * requests.size());
    return foldInto(trace, projection, slice, requests, values,
                    projection.size(), [](std::size_t i) { return i; },
                    threads, deadline);
}

support::Expected<void>
foldRows(const trace::Trace &trace, const CutProjection &projection,
         const TimeSlice &slice, const std::vector<MetricRequest> &requests,
         std::span<const std::uint32_t> rows, std::vector<double> &values,
         std::size_t threads, support::Deadline deadline)
{
    VIVA_ASSERT(values.size() == projection.size() * requests.size(),
                "rows of ", projection.size(), " nodes x ",
                requests.size(), " metrics given ", values.size(),
                " values");
    return foldInto(trace, projection, slice, requests, values,
                    rows.size(),
                    [rows, n = projection.size()](std::size_t t) {
                        VIVA_ASSERT(rows[t] < n, "row ", rows[t],
                                    " of a ", n, "-node projection");
                        return std::size_t(rows[t]);
                    },
                    threads, deadline);
}

support::Expected<View>
buildView(const trace::Trace &trace, const CutProjection &projection,
          const TimeSlice &slice,
          const std::vector<MetricRequest> &requests, bool with_stats,
          std::size_t threads, support::Deadline deadline)
{
    View view;
    view.slice = slice;
    view.requests = requests;
    reshapeView(view, trace, projection);
    if (!with_stats) {
        support::Expected<void> folded = foldValues(
            trace, projection, slice, requests, view.values, threads,
            deadline);
        if (!folded)
            return VIVA_ERROR_CONTEXT(folded.error(), "plain view");
        return view;
    }

    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("agg.build_view");
    obs::ScopedPhase timer(phase);

    const std::size_t k = requests.size();
    view.values.resize(projection.size() * k);
    view.stats.resize(view.values.size());
    Aggregator agg(trace);
    support::Expected<void> built = forEachNode(
        projection.size(), threads, deadline, [&](std::size_t i) {
            for (std::size_t j = 0; j < k; ++j) {
                const MetricRequest &r = requests[j];
                // The value folds the distribution's samples exactly
                // as value() folds the carriers.
                support::Samples s = agg.distribution(
                    projection.nodes[i], r.metric, slice, r.temporal);
                view.values[i * k + j] = spatialFold(s.data(), r.spatial, 1);
                view.stats[i * k + j] = {s.variance(), s.median(), s.min(),
                                         s.max()};
            }
        });
    if (!built)
        return VIVA_ERROR_CONTEXT(built.error(), "view with statistics");
    return view;
}

support::Expected<View>
buildView(const trace::Trace &trace, const HierarchyCut &cut,
          const TimeSlice &slice,
          const std::vector<MetricRequest> &requests, bool with_stats,
          std::size_t threads, support::Deadline deadline)
{
    support::Expected<View> view = buildView(
        trace, project(trace, cut), slice, requests, with_stats, threads,
        deadline);
    if (!view)
        return VIVA_ERROR_CONTEXT(view.error(), "view of a cut");
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

    const bool with_stats = !view.stats.empty();
    const std::size_t columns = view.requests.size();

    out << "container,kind,aggregated,leaves,slice_begin,slice_end";
    for (const MetricRequest &r : view.requests) {
        const std::string &name = trace.metric(r.metric).name;
        out << ',' << name;
        if (with_stats)
            out << ',' << name << "_variance," << name << "_median,"
                << name << "_min," << name << "_max";
    }
    out << '\n';

    for (std::size_t i = 0; i < view.nodes.size(); ++i) {
        const ViewNode &node = view.nodes[i];
        const trace::Container &c = trace.container(node.id);
        out << '"' << trace.fullName(node.id) << "\","
            << containerKindName(c.kind) << ','
            << (node.aggregated ? 1 : 0) << ',' << node.leafCount << ','
            << formatDouble(view.slice.begin) << ','
            << formatDouble(view.slice.end);
        for (std::size_t k = 0; k < columns; ++k) {
            out << ',' << formatDouble(view.value(i, k));
            if (with_stats) {
                const ValueStats &s = view.stats[i * columns + k];
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

    support::AuditLog log;
    std::vector<ContainerId> visible = cut.visibleNodes();
    if (view.nodes.size() != visible.size()) {
        auditFail(log, "view holds ", view.nodes.size(),
                  " nodes for ", visible.size(), " visible containers");
        return log;
    }
    const std::size_t cells = view.nodes.size() * view.requests.size();
    const bool values_fit = view.values.size() == cells;
    if (!values_fit)
        auditFail(log, "view holds ", view.values.size(), " values for ",
                  view.nodes.size(), " nodes x ", view.requests.size(),
                  " requests");
    if (!view.stats.empty() && view.stats.size() != cells)
        auditFail(log, "view holds ", view.stats.size(),
                  " stat blocks for ", view.nodes.size(), " nodes x ",
                  view.requests.size(), " requests");

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
        if (!values_fit)
            continue;
        for (std::size_t k = 0; k < view.requests.size(); ++k) {
            const MetricRequest &r = view.requests[k];
            const double value = view.value(i, k);
            if (!std::isfinite(value)) {
                auditFail(log, "node ", i, " metric ", k,
                          " is non-finite");
                continue;
            }
            double expect = serial.value(node.id, r.metric, view.slice,
                                         r.spatial, r.temporal);
            if (value != expect)
                auditFail(log, "node ", i, " ('",
                          trace.fullName(node.id), "') metric ", k,
                          ": value ", support::formatDouble(value),
                          " != serial recomputation ",
                          support::formatDouble(expect),
                          " (Equation-1 conservation)");
        }
    }

    // Edges: an independent re-projection, walking every endpoint up
    // to its representative, must agree exactly.
    std::vector<std::uint32_t> cut_slot(trace.containerCount(), kHidden);
    for (std::size_t i = 0; i < visible.size(); ++i)
        cut_slot[visible[i].index()] = std::uint32_t(i);
    std::vector<ViewEdge> expect_edges =
        contractRelations(trace, visible, allRelations(trace),
                          [&](ContainerId id) {
                              return cut_slot[cut.representative(id)
                                                  .index()];
                          })
            .edges;
    if (view.edges.size() != expect_edges.size()) {
        auditFail(log, "view holds ", view.edges.size(), " edges, "
                  "re-projection yields ", expect_edges.size());
        return log;
    }
    // Membership through the cut's slots: a host-level view holds
    // ~10^4 nodes and as many edges.
    auto shown = [&](ContainerId id) {
        if (id.index() >= cut_slot.size())
            return false;
        const std::uint32_t s = cut_slot[id.index()];
        return s != kHidden && view.nodes[s].id == id;
    };
    for (std::size_t i = 0; i < view.edges.size(); ++i) {
        const ViewEdge &e = view.edges[i];
        const ViewEdge &x = expect_edges[i];
        if (e != x)
            auditFail(log, "edge ", i, " (", e.a, "--", e.b, " x",
                      e.multiplicity, ") != re-projection (", x.a, "--",
                      x.b, " x", x.multiplicity, ")");
        if (!shown(e.a) || !shown(e.b))
            auditFail(log, "edge ", i,
                      " touches a container outside the view");
    }
    return log;
}

} // namespace viva::agg
