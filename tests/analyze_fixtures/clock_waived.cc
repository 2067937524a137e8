// Fed to the engine as src/demo/clock_waived.cc: a justified raw read
// absorbs the taint at the waived symbol.
#include <chrono>

namespace viva::demo
{

long
entryClockWaived()  // viva-analyze: allow(clock-reachable): demo calibration probe wants the raw tick
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace viva::demo
