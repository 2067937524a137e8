// The same discards as unchecked_bad.cc, silenced by waivers with
// rationales: trailing, line-above, and file-wide forms.
#include "expected_api.hh"

// viva-analyze: allow-file(context-on-propagate): fixture exercises unchecked only

void
demo(viva::app::Session &session)
{
    session.load("trace.paje");  // viva-analyze: allow(unchecked-expected): demo tool, failure is cosmetic
    // viva-analyze: allow(unchecked-expected): demo tool, failure is cosmetic
    session.save("out.trace");
}
