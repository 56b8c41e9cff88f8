// finbench/arch/parallel.hpp
//
// Thin OpenMP wrappers. The paper's thread-level parallelism is always
// "#pragma omp parallel for over options / paths"; these helpers keep that
// idiom in one place and make the thread count queryable and overridable.
//
// Two schedules are offered. kStatic is the original per-call
// schedule(static) pragma. kDynamic replaces the OpenMP scheduler with an
// atomic ticket counter over fixed-size chunks, so threads that finish
// cheap iterations early keep pulling work — the mode the finbench::engine
// layer builds on for heterogeneous option batches (a long-dated lattice
// option costs orders of magnitude more than a short-dated one).
//
// When obs::parallel_timing_enabled() (bench binaries: --trace/--json),
// each worker's wall time inside the loop is measured with the implicit
// end-of-loop barrier excluded (`nowait` / ticket exhaustion), so
// per-thread load imbalance is visible in the metrics registry
// ("parallel.<site>.imbalance") and each worker contributes a span to the
// trace. The untimed fast path is the original pragma, guarded by one
// relaxed atomic load per call.

#pragma once

#include <atomic>
#include <cstddef>

#include <omp.h>

#include "finbench/arch/timing.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"

namespace finbench::arch {

enum class Schedule {
  kStatic,   // contiguous equal-count stripes, one per thread
  kDynamic,  // atomic-ticket chunk self-scheduling
};

namespace detail {

inline std::atomic<int>& cached_num_threads() {
  static std::atomic<int> v{0};  // 0 = not yet detected
  return v;
}

}  // namespace detail

// Effective OpenMP team size: the team a parallel region would form, read
// from the ICV (omp_get_max_threads), so asking forms no team and leaves no
// OpenMP threads behind on callers that never open a region (the engine
// pool sizes itself and its scratch with this). The value is cached
// process-wide and set_num_threads() updates the cache, because the ICV
// omp_set_num_threads writes is the calling thread's alone.
inline int num_threads() {
  int n = detail::cached_num_threads().load(std::memory_order_relaxed);
  if (n > 0) return n;
  n = omp_get_max_threads();
  detail::cached_num_threads().store(n, std::memory_order_relaxed);
  return n;
}

// Override the OpenMP team size (the --threads N flag). n <= 0 is ignored.
inline void set_num_threads(int n) {
  if (n <= 0) return;
  omp_set_num_threads(n);
  detail::cached_num_threads().store(n, std::memory_order_relaxed);
}

// Chunk size for the dynamic ticket loop: ~8 chunks per thread keeps
// ticket contention negligible while still smoothing skewed iteration
// costs.
inline std::ptrdiff_t dynamic_chunk(std::ptrdiff_t n, int nthreads) {
  const std::ptrdiff_t target = nthreads > 0 ? static_cast<std::ptrdiff_t>(nthreads) * 8 : 8;
  const std::ptrdiff_t c = (n + target - 1) / target;
  return c > 0 ? c : 1;
}

namespace detail {

// One OpenMP team executing `loop()` per thread, with optional per-thread
// wall timing into "parallel.<site>.*". `loop` must itself partition the
// iteration space (omp for, or a shared ticket).
template <class Loop>
void run_team(const char* site, Loop&& loop) {
  if (!obs::parallel_timing_enabled()) {
#pragma omp parallel
    loop();
    return;
  }
  double tmin = 1e300, tmax = 0.0, tsum = 0.0;
  int nthreads = 0;
#pragma omp parallel reduction(min : tmin) reduction(max : tmax) reduction(+ : tsum, nthreads)
  {
    FINBENCH_SPAN(site);
    WallTimer t;
    loop();
    const double s = t.seconds();
    tmin = s;
    tmax = s;
    tsum = s;
    nthreads = 1;
  }
  obs::record_parallel_region(site, nthreads, tmin, tmax, tsum);
}

}  // namespace detail

// Parallel loop over [0, n) at the requested schedule.
template <class F>
void parallel_for(std::ptrdiff_t n, F&& fn, Schedule sched = Schedule::kStatic) {
  if (sched == Schedule::kDynamic) {
    std::atomic<std::ptrdiff_t> ticket{0};
    const std::ptrdiff_t chunk = dynamic_chunk(n, num_threads());
    detail::run_team("for.dynamic", [&] {
      std::ptrdiff_t begin;
      while ((begin = ticket.fetch_add(chunk, std::memory_order_relaxed)) < n) {
        const std::ptrdiff_t end = begin + chunk < n ? begin + chunk : n;
        for (std::ptrdiff_t i = begin; i < end; ++i) fn(i);
      }
    });
    return;
  }
  detail::run_team("for", [&] {
#pragma omp for schedule(static) nowait
    for (std::ptrdiff_t i = 0; i < n; ++i) fn(i);
  });
}

// Parallel loop in fixed-size blocks: fn(begin, end) per block. Used when
// each thread needs private scratch sized to its block.
template <class F>
void parallel_for_blocked(std::ptrdiff_t n, std::ptrdiff_t block, F&& fn,
                          Schedule sched = Schedule::kStatic) {
  const std::ptrdiff_t nblocks = (n + block - 1) / block;
  auto body = [&](std::ptrdiff_t b) {
    const std::ptrdiff_t begin = b * block;
    const std::ptrdiff_t end = begin + block < n ? begin + block : n;
    fn(begin, end);
  };
  if (sched == Schedule::kDynamic) {
    std::atomic<std::ptrdiff_t> ticket{0};
    detail::run_team("for_blocked.dynamic", [&] {
      std::ptrdiff_t b;
      while ((b = ticket.fetch_add(1, std::memory_order_relaxed)) < nblocks) body(b);
    });
    return;
  }
  detail::run_team("for_blocked", [&] {
#pragma omp for schedule(static) nowait
    for (std::ptrdiff_t b = 0; b < nblocks; ++b) body(b);
  });
}

}  // namespace finbench::arch
