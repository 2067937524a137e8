// Fed to the engine as src/demo/waiver_bad.cc: a rationale-free, an
// unknown-rule and an unreadable waiver are findings themselves.
namespace viva::demo
{

// viva-analyze: allow(dead-symbol)
int
noRationale()
{
    return 1;
}

int
unknownRule()  // viva-analyze: allow(no-such-rule): typo'd rule name
{
    return 2;
}

} // namespace viva::demo
// viva-analyze: allow dead-symbol: the parentheses are missing
