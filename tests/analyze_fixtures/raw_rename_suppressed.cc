#include <cstdio>

bool
swapIn(const char *temp, const char *final_path)
{
    return std::rename(temp, final_path) == 0;  // viva-analyze: allow(raw-rename): exercises the waiver
}
