#include <unordered_map>

int
sum()
{
    std::unordered_map<int, int> table;
    int total = 0;
    // viva-analyze: allow(unordered-iter): integer sum, order-independent
    for (const auto &entry : table)
        total += entry.second;
    return total;
}
