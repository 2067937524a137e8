// viva-analyze: allow-file(raw-random): exercises the file-wide form
#include <cstdlib>
#include <random>

int
roll()
{
    std::random_device dev;
    return static_cast<int>(dev() % 6) + rand() % 6;
}
