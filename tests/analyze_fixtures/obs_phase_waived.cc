// A scratch phase outside the manifest, waived with a rationale.
#include "support/obs.hh"

void
setup()
{
    viva::obs::Registry &reg = viva::obs::Registry::global();
    static const auto phase =
        reg.histogram("scratch.phase");  // viva-analyze: allow(obs-phase-manifest): throwaway phase for a local experiment
    (void)phase;
}
