#include <chrono>

unsigned long long
stamp()
{
    auto t0 = std::chrono::steady_clock::now();  // viva-analyze: allow(clock-reachable): calibration stamp
    return static_cast<unsigned long long>(
        t0.time_since_epoch().count());
}
