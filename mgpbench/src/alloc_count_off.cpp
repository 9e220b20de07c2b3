#include "alloc_count.hpp"

namespace mgpbench {

bool alloc_counting() { return false; }
std::uint64_t alloc_count() { return 0; }

}  // namespace mgpbench
