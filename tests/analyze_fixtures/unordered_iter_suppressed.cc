#include <unordered_map>

int
sum()
{
    std::unordered_map<int, int> table;
    int total = 0;
    // Integer sum: exactly order-independent.
    for (const auto &entry : table)  // viva-analyze: allow(unordered-iter): integer sum, order-independent
        total += entry.second;
    return total;
}
