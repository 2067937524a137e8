// Fed to the engine as src/demo/dead_waived.cc: keeper() is uncalled
// but carries a justified waiver, and stays quiet.
namespace viva::demo
{

int
keeper()  // viva-analyze: allow(dead-symbol): public API surface kept for symmetry with used()
{
    return 5;
}

} // namespace viva::demo
