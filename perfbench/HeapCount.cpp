//===- perfbench/HeapCount.cpp - Counting global allocation functions -----===//
//
// Every general-heap allocation of the benchmark process goes through these
// replacements, which count calls per thread and otherwise behave like the
// defaults (malloc/free).  Kept in a file of their own so no caller is
// inlined next to them.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t HeapAllocs = 0;
} // namespace

uint64_t perfbench::threadHeapAllocs() { return HeapAllocs; }

void *operator new(std::size_t Sz) {
  ++HeapAllocs;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
