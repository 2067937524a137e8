// Fed to the engine as src/demo/hot_waived.cc: same I/O as hot_bad,
// but the call line carries a justified waiver.
#include <cstdio>

namespace viva::demo
{

void
beacon(int i)
{
    std::printf("beacon %d\n", i);
}

void
entryHotWaived(int threads)
{
    pool.parallelFor(0, 8, 1, threads,
                     [&](std::size_t lo, std::size_t hi) {
                         beacon(int(hi - lo));  // viva-analyze: allow(io-in-hot-path): deliberate once-per-chunk progress beacon
                     });
}

} // namespace viva::demo
