// Fed to the engine as src/demo/fatal_waived.cc: the waived boundary
// helper absorbs reachability, so its caller is clean too.
#include "support/log.hh"

namespace viva::demo
{

int
dieAtBoundary()  // viva-analyze: allow(fatal-reachable): demo CLI boundary; dying here is the contract
{
    viva::support::fatal("demo");
    return 1;
}

int
entryFatalWaived()
{
    return dieAtBoundary();
}

} // namespace viva::demo
