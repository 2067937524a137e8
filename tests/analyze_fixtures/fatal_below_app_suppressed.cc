// Fixture: a waiver on the call line silences fatal-reachable.
#include "support/logging.hh"

void
boundaryHelper(bool ok)
{
    if (!ok)
        viva::support::fatal("helper", "die");  // viva-analyze: allow(fatal-reachable): the process boundary
}
