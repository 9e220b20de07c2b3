// Heap-allocation counting, linked into the traced binary only.
//
// mgpbench_traced replaces the global operator new with a counting one
// (alloc_count.cpp); mgpbench links alloc_count_off.cpp, which counts
// nothing, so the end-to-end timings carry no counting cost.
#pragma once

#include <cstdint>

namespace mgpbench {

/// True in the binary that counts.
bool alloc_counting();
/// operator new calls since process start (0 when not counting).
std::uint64_t alloc_count();

}  // namespace mgpbench
