/**
 * @file
 * Implementation of the metrics registry and its reporting formats.
 */

#include "support/obs.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace viva::support::obs
{

namespace
{

constexpr std::size_t kMaxCounters = 1024;
constexpr std::size_t kMaxGauges = 256;
constexpr std::size_t kMaxHistograms = 128;

/** Bucket upper bounds: powers of four from 256 ns to ~1.07 s. */
constexpr std::array<std::uint64_t, kHistogramBuckets - 1> kBounds = {
    256ull,        1024ull,      4096ull,      16384ull,
    65536ull,      262144ull,    1048576ull,   4194304ull,
    16777216ull,   67108864ull,  268435456ull, 1073741824ull,
};

std::size_t
bucketOf(std::uint64_t nanos)
{
    for (std::size_t b = 0; b < kBounds.size(); ++b)
        if (nanos <= kBounds[b])
            return b;
    return kHistogramBuckets - 1;
}

/** Unique id per Impl ever created: stale thread-local entries whose
 *  registry died can never match a newer registry by accident. */
std::atomic<std::uint64_t> next_impl_id{1};

} // namespace

const std::array<std::uint64_t, kHistogramBuckets - 1> &
histogramBounds()
{
    return kBounds;
}

/** One thread's slice of every sharded metric. */
struct Registry::Shard
{
    struct HistSlot
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
            buckets{};
    };

    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<HistSlot, kMaxHistograms> hists{};
};

struct Registry::Impl
{
    const std::uint64_t id = next_impl_id.fetch_add(1);

    mutable std::mutex mu;

    /** Registration order; snapshot() sorts a copy by name. */
    std::vector<std::string> counterNames;
    std::vector<std::string> gaugeNames;
    std::vector<std::string> histNames;
    std::map<std::string, std::uint32_t> counterIndex;
    std::map<std::string, std::uint32_t> gaugeIndex;
    std::map<std::string, std::uint32_t> histIndex;

    /** Gauges are unsharded: one atomic level each. */
    std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};

    /**
     * Every shard ever handed out. A thread keeps its shard pointer for
     * its lifetime; dead threads' shards stay behind so their folded
     * values survive them. Bounded by the number of distinct threads
     * that ever touch the registry (the ThreadPool reuses workers).
     */
    std::vector<std::unique_ptr<Shard>> shards;

    /** Registrations refused because a capacity was exhausted. */
    std::atomic<std::uint64_t> dropped{0};
};

namespace
{

/** This thread's (registry-impl-id -> shard) associations. */
struct TlsEntry
{
    std::uint64_t implId;
    void *shard;
};

thread_local std::vector<TlsEntry> tls_shards;

} // namespace

Registry::Registry() : impl(new Impl) // viva-analyze: allow(raw-new-delete): the pimpl owner; freed in ~Registry
{
    // Slot 0 so the drop counter is observable like any other metric.
    counter("obs.dropped_registrations");
}

Registry::~Registry()
{
    delete impl; // viva-analyze: allow(raw-new-delete): the pimpl owner
}

Registry &
Registry::global()
{
    // Immortal: ThreadPool workers may still record during static
    // destruction, so the process-wide registry is never torn down.
    // viva-analyze: allow(raw-new-delete): immortal, see above
    static Registry *instance = new Registry;
    return *instance;
}

Registry::Shard &
Registry::localShard()
{
    for (const TlsEntry &entry : tls_shards)
        if (entry.implId == impl->id)
            return *static_cast<Shard *>(entry.shard);

    std::lock_guard<std::mutex> lock(impl->mu);
    impl->shards.push_back(std::make_unique<Shard>());
    Shard *shard = impl->shards.back().get();
    tls_shards.push_back({impl->id, shard});
    return *shard;
}

CounterId
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl->mu);
    auto it = impl->counterIndex.find(name);
    if (it != impl->counterIndex.end())
        return CounterId(it->second);
    if (impl->counterNames.size() >= kMaxCounters) {
        impl->dropped.fetch_add(1, std::memory_order_relaxed);
        return kNoCounter;
    }
    auto id = static_cast<std::uint32_t>(impl->counterNames.size());
    impl->counterNames.push_back(name);
    impl->counterIndex.emplace(name, id);
    return CounterId(id);
}

GaugeId
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl->mu);
    auto it = impl->gaugeIndex.find(name);
    if (it != impl->gaugeIndex.end())
        return GaugeId(it->second);
    if (impl->gaugeNames.size() >= kMaxGauges) {
        impl->dropped.fetch_add(1, std::memory_order_relaxed);
        return kNoGauge;
    }
    auto id = static_cast<std::uint32_t>(impl->gaugeNames.size());
    impl->gaugeNames.push_back(name);
    impl->gaugeIndex.emplace(name, id);
    return GaugeId(id);
}

HistogramId
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl->mu);
    auto it = impl->histIndex.find(name);
    if (it != impl->histIndex.end())
        return HistogramId(it->second);
    if (impl->histNames.size() >= kMaxHistograms) {
        impl->dropped.fetch_add(1, std::memory_order_relaxed);
        return kNoHistogram;
    }
    auto id = static_cast<std::uint32_t>(impl->histNames.size());
    impl->histNames.push_back(name);
    impl->histIndex.emplace(name, id);
    return HistogramId(id);
}

void
Registry::add(CounterId id, std::uint64_t n)
{
    if (id == kNoCounter)
        return;
    localShard().counters[id.index()].fetch_add(
        n, std::memory_order_relaxed);
}

void
Registry::set(GaugeId id, std::int64_t value)
{
    if (id == kNoGauge)
        return;
    impl->gauges[id.index()].store(value, std::memory_order_relaxed);
}

void
Registry::record(HistogramId id, std::uint64_t nanos)
{
    if (id == kNoHistogram)
        return;
    Shard::HistSlot &slot = localShard().hists[id.index()];
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(nanos, std::memory_order_relaxed);
    slot.buckets[bucketOf(nanos)].fetch_add(1,
                                            std::memory_order_relaxed);
}

std::uint64_t
Registry::counterValue(CounterId id) const
{
    if (id == kNoCounter)
        return 0;
    std::lock_guard<std::mutex> lock(impl->mu);
    std::uint64_t total = 0;
    for (const auto &shard : impl->shards)
        total += shard->counters[id.index()].load(
            std::memory_order_relaxed);
    if (id.index() == 0)
        total += impl->dropped.load(std::memory_order_relaxed);
    return total;
}

std::int64_t
Registry::gaugeValue(GaugeId id) const
{
    if (id == kNoGauge)
        return 0;
    return impl->gauges[id.index()].load(std::memory_order_relaxed);
}

HistogramValue
Registry::histogramValue(HistogramId id) const
{
    HistogramValue out;
    if (id == kNoHistogram)
        return out;
    std::lock_guard<std::mutex> lock(impl->mu);
    out.name = impl->histNames[id.index()];
    for (const auto &shard : impl->shards) {
        const Shard::HistSlot &slot = shard->hists[id.index()];
        out.count += slot.count.load(std::memory_order_relaxed);
        out.sumNanos += slot.sum.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            out.buckets[b] +=
                slot.buckets[b].load(std::memory_order_relaxed);
    }
    return out;
}

StatsSnapshot
Registry::snapshot() const
{
    StatsSnapshot snap;
    std::lock_guard<std::mutex> lock(impl->mu);

    snap.counters.reserve(impl->counterNames.size());
    for (std::size_t i = 0; i < impl->counterNames.size(); ++i) {
        CounterValue v;
        v.name = impl->counterNames[i];
        for (const auto &shard : impl->shards)
            v.value +=
                shard->counters[i].load(std::memory_order_relaxed);
        if (i == 0)
            v.value += impl->dropped.load(std::memory_order_relaxed);
        snap.counters.push_back(std::move(v));
    }

    snap.gauges.reserve(impl->gaugeNames.size());
    for (std::size_t i = 0; i < impl->gaugeNames.size(); ++i) {
        GaugeValue v;
        v.name = impl->gaugeNames[i];
        v.value = impl->gauges[i].load(std::memory_order_relaxed);
        snap.gauges.push_back(std::move(v));
    }

    snap.histograms.reserve(impl->histNames.size());
    for (std::size_t i = 0; i < impl->histNames.size(); ++i) {
        HistogramValue v;
        v.name = impl->histNames[i];
        for (const auto &shard : impl->shards) {
            const Shard::HistSlot &slot = shard->hists[i];
            v.count += slot.count.load(std::memory_order_relaxed);
            v.sumNanos += slot.sum.load(std::memory_order_relaxed);
            for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                v.buckets[b] +=
                    slot.buckets[b].load(std::memory_order_relaxed);
        }
        snap.histograms.push_back(std::move(v));
    }

    auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    return snap;
}

void
Registry::reset(const std::string &prefix)
{
    auto matches = [&prefix](const std::string &name) {
        return name.compare(0, prefix.size(), prefix) == 0;
    };

    std::lock_guard<std::mutex> lock(impl->mu);
    for (std::size_t i = 0; i < impl->counterNames.size(); ++i) {
        if (!matches(impl->counterNames[i]))
            continue;
        for (const auto &shard : impl->shards)
            shard->counters[i].store(0, std::memory_order_relaxed);
        if (i == 0)
            impl->dropped.store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < impl->gaugeNames.size(); ++i)
        if (matches(impl->gaugeNames[i]))
            impl->gauges[i].store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < impl->histNames.size(); ++i) {
        if (!matches(impl->histNames[i]))
            continue;
        for (const auto &shard : impl->shards) {
            Shard::HistSlot &slot = shard->hists[i];
            slot.count.store(0, std::memory_order_relaxed);
            slot.sum.store(0, std::memory_order_relaxed);
            for (auto &bucket : slot.buckets)
                bucket.store(0, std::memory_order_relaxed);
        }
    }
}

void
Registry::setEnabled(bool on)
{
    armed.store(on, std::memory_order_relaxed);
}

// --- reporting -------------------------------------------------------------

void
writeJson(const StatsSnapshot &snapshot, std::ostream &out)
{
    // Integer-only values and a fixed layout: one entry per line, sorted
    // arrays, no floats -- byte-identical whenever the snapshot is.
    out << "{\n";
    out << "  \"schema\": \"viva-obs-1\",\n";

    out << "  \"counters\": [";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
        const CounterValue &c = snapshot.counters[i];
        out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << c.name
            << "\", \"value\": " << c.value << "}";
    }
    out << (snapshot.counters.empty() ? "" : "\n  ") << "],\n";

    out << "  \"gauges\": [";
    for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
        const GaugeValue &g = snapshot.gauges[i];
        out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << g.name
            << "\", \"value\": " << g.value << "}";
    }
    out << (snapshot.gauges.empty() ? "" : "\n  ") << "],\n";

    out << "  \"phases\": [";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const HistogramValue &h = snapshot.histograms[i];
        out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << h.name
            << "\", \"count\": " << h.count
            << ", \"sum_ns\": " << h.sumNanos
            << ", \"mean_ns\": " << h.meanNanos() << ", \"buckets\": [";
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            out << (b ? ", " : "") << h.buckets[b];
        out << "]}";
    }
    out << (snapshot.histograms.empty() ? "" : "\n  ") << "]\n";
    out << "}\n";
}

void
writeTable(const StatsSnapshot &snapshot, std::ostream &out)
{
    auto pad = [&out](const std::string &s, std::size_t width) {
        out << s;
        for (std::size_t i = s.size(); i < width; ++i)
            out << ' ';
    };

    out << "counters:\n";
    for (const CounterValue &c : snapshot.counters) {
        out << "  ";
        pad(c.name, 36);
        out << ' ' << c.value << '\n';
    }
    out << "gauges:\n";
    for (const GaugeValue &g : snapshot.gauges) {
        out << "  ";
        pad(g.name, 36);
        out << ' ' << g.value << '\n';
    }
    out << "phases: (count, total ns, mean ns)\n";
    for (const HistogramValue &h : snapshot.histograms) {
        out << "  ";
        pad(h.name, 36);
        out << ' ' << h.count << ' ' << h.sumNanos << ' '
            << h.meanNanos() << '\n';
    }
}

} // namespace viva::support::obs
