// Unsafe to include twice: without #pragma once the second inclusion
// redefines Twice, so the generated include-twice TU must not compile.
struct Twice
{
    int value = 0;
};
