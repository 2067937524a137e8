/**
 * @file
 * Implementation of the deterministic fault injector.
 */

#include "support/fault.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/obs.hh"

namespace viva::support
{

namespace
{

/**
 * splitmix64: a tiny, well-mixed hash. Not support::Rng because the
 * decision must be a stateless function of (seed, hit index) -- points
 * are hit in program order, and an Rng stream would couple every
 * point's pattern to every other's call count.
 */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

FaultInjector &
FaultInjector::global()
{
    static FaultInjector instance;
    return instance;
}

const std::vector<std::string> &
FaultInjector::knownPoints()
{
    // The compiled-in registry: adding an injection site means adding
    // its name here, so tests can enumerate coverage and a typo in
    // arm() is caught instead of silently never firing.
    static const std::vector<std::string> names = {
        "ckpt.read.stream",    // checkpoint reader: stream read failure
        "ckpt.write.stream",   // checkpoint writer: stream write failure
        "layout.force.nan",    // NaN into one node's accumulated force
        "paje.read.stream",    // Paje reader: stream read failure
        "trace.parse.budget",  // treat the parse budget as exhausted
        "trace.read.stream",   // viva-trace reader: stream read failure
        "trace.write.stream",  // trace writers: stream write failure
        "viz.write.stream",    // SVG/CSV writers: stream write failure
    };
    return names;
}

void
FaultInjector::arm(const std::string &point, FaultSpec spec)
{
    const std::vector<std::string> &known = knownPoints();
    VIVA_ASSERT(std::find(known.begin(), known.end(), point) !=
                    known.end(),
                "unknown injection point '", point, "'");
    VIVA_ASSERT(spec.probability >= 0.0 && spec.probability <= 1.0,
                "probability ", spec.probability, " outside [0, 1]");

    std::lock_guard<std::mutex> lock(mu);
    PointState &state = points[point];
    if (!state.armed)
        armedPoints.fetch_add(1, std::memory_order_relaxed);
    state.spec = spec;
    state.armed = true;
    state.hits = 0;
    state.fires = 0;
}

void
FaultInjector::disarm(const std::string &point)  // viva-analyze: allow(dead-symbol): arm()'s single-point counterpart; kept for injector API symmetry
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = points.find(point);
    if (it == points.end() || !it->second.armed)
        return;
    it->second.armed = false;
    armedPoints.fetch_sub(1, std::memory_order_relaxed);
}

void
FaultInjector::disarmAll()
{
    std::lock_guard<std::mutex> lock(mu);
    points.clear();
    armedPoints.store(0, std::memory_order_relaxed);
}

bool
FaultInjector::shouldFail(const std::string &point)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = points.find(point);
    if (it == points.end() || !it->second.armed)
        return false;

    PointState &state = it->second;
    std::size_t hit = state.hits++;
    if (hit < state.spec.skip || state.fires >= state.spec.maxFires)
        return false;

    // Deterministic per-hit coin: hash the eligible-hit index with the
    // seed and compare against the probability threshold.
    std::uint64_t h =
        splitmix64(state.spec.seed ^ (hit - state.spec.skip));
    double coin =
        double(h >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
    if (coin >= state.spec.probability)
        return false;
    ++state.fires;
    // Firing is rare and already serialised by `mu`; registering the
    // name on every fire is a map lookup, not a hot-path cost.
    obs::Registry &reg = obs::Registry::global();
    reg.add(reg.counter("fault.fired." + point));
    return true;
}

std::size_t
FaultInjector::hitCount(const std::string &point) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = points.find(point);
    return it == points.end() ? 0 : it->second.hits;
}

std::size_t
FaultInjector::fireCount(const std::string &point) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = points.find(point);
    return it == points.end() ? 0 : it->second.fires;
}

} // namespace viva::support
