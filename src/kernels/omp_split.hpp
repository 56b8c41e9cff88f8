// Internal to the kernels: the exhibit entries' OpenMP split over their
// range bodies. Not installed.

#pragma once

#include <omp.h>

#include <cstddef>

namespace finbench::kernels {

// Default interior range boundary: a multiple of every lane count (8 DP,
// 16 SP), so aligned loads hold and no interior range has a scalar tail.
inline constexpr std::ptrdiff_t kRangeAlign = 16;

// Splits [0, n) into one contiguous range per OpenMP thread, with interior
// boundaries on multiples of `align`, and runs body(begin, end) on each.
// Only the last range can end off the alignment, so the scalar tail stays
// where the whole-batch loop put it.
template <class Body>
void omp_split(std::ptrdiff_t n, Body body, std::ptrdiff_t align = kRangeAlign) {
  const std::ptrdiff_t groups = n / align;
#pragma omp parallel
  {
    const std::ptrdiff_t t = omp_get_thread_num(), nt = omp_get_num_threads();
    const std::ptrdiff_t begin = groups * t / nt * align;
    const std::ptrdiff_t end = t + 1 == nt ? n : groups * (t + 1) / nt * align;
    if (begin < end) body(begin, end);
  }
}

}  // namespace finbench::kernels
