/**
 * @file
 * The reference kernel: a fixed mix of integer, sort, hash-map and
 * floating-point work on small, cache-resident data, sharing no code
 * with viva. On a shared machine the speed the process gets swings by
 * a third over minutes, and every gesture slows or speeds up with it;
 * the kernel, timed between gestures, reads that speed so the replay
 * can report times at a fixed reference speed (see METRICS.md).
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spans.hh"

namespace perfbench
{

class ReferenceKernel
{
  public:
    /**
     * The kernel's typical time() at the reference speed: on the 4-vCPU
     * Intel Xeon (Sapphire Rapids, KVM) the bounds were set on.
     */
    static constexpr double kNominalNs = 0.7e6;

    ReferenceKernel() : keys(5000), px(128), py(128)
    {
        for (std::size_t i = 0; i < px.size(); ++i) {
            px[i] = std::cos(double(i));
            py[i] = std::sin(double(i) * 1.7);
        }
    }

    /**
     * Run the kernel once to warm it, then time two runs and keep the
     * faster, in ns: a preemption inside one run only slows that run.
     */
    double
    time()
    {
        run();
        double best = 0.0;
        for (int i = 0; i < 2; ++i) {
            std::uint64_t begin = nowNanos();
            run();
            double ns = double(nowNanos() - begin);
            best = i == 0 ? ns : std::min(best, ns);
        }
        return best;
    }

    /** Keeps the kernel's results alive. */
    std::uint64_t sink = 0;

  private:
    void
    run()
    {
        std::uint64_t x = 1;
        for (int i = 0; i < 75000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 29;
        }
        for (double &k : keys) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            k = double(x >> 11);
        }
        std::sort(keys.begin(), keys.end());
        std::unordered_map<std::uint64_t, std::uint32_t> map;
        for (std::uint32_t i = 0; i < 2500; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            map[x >> 50] += i;
        }
        double force = 0.0;
        for (std::size_t i = 0; i < px.size(); ++i)
            for (std::size_t j = 0; j < px.size(); ++j) {
                double dx = px[i] - px[j], dy = py[i] - py[j];
                force += dx / (dx * dx + dy * dy + 0.01);
            }
        sink += x + std::uint64_t(keys[0]) + map.size() +
                std::uint64_t(std::abs(force));
    }

    std::vector<double> keys;
    std::vector<double> px, py;
};

} // namespace perfbench
