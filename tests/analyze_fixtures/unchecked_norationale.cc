// A waiver without a rationale is itself a finding, and does not
// silence the rule it names.
#include "expected_api.hh"

void
demo(viva::app::Session &session)
{
    session.load("trace.paje");  // viva-analyze: allow(unchecked-expected)
}
