// A deliberate thin forwarding shim, waived with a rationale.
#include "expected_api.hh"

viva::support::Expected<void>
resave(viva::app::Session &session)
{
    // viva-analyze: allow(context-on-propagate): one-line shim, context adds nothing
    return session.save("out.trace");
}
