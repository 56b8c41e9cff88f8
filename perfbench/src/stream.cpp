// Open-loop small-request generator (see stream.hpp).

#include "stream.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

namespace serve = finbench::serve;

namespace {

constexpr int kGeneratorNice = -10;
// In-flight bound, under the server's 1024-slot ring so admission control
// never sheds: at the bound the generator waits for the oldest request, and
// the requests it then submits late are still timed from when they were due.
constexpr std::size_t kMaxInflight = 768;
constexpr std::uint64_t kMaxLag = 50'000'000;  // ns behind schedule: overloaded

}  // namespace

SmallStream::SmallStream(std::uint64_t seed)
    : seed_(seed), curves_(make_curves(seed, kCurves)), jobs_(new serve::PricingJob[kRing]) {
  books_.reserve(kRing);
  for (std::size_t i = 0; i < kRing; ++i) {
    books_.emplace_back(kSmallSize, mix64(seed, 1000 + i), curves_[0]);
    serve::PricingJob& job = jobs_[i];
    job.request.kernel_id = kBsKernel;
    job.request.portfolio = books_[i].view();
  }
}

StreamResult SmallStream::run(serve::Server& server, double rate, double duration, double tol) {
  const std::size_t n = std::min(
      kCap, std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * duration))));
  // Pre-drawn arrivals and curves: the schedule is fixed before the first
  // submit, so the server cannot perturb it.
  Rng rng(mix64(seed_, 0x5e7e));
  std::vector<std::uint64_t> due(n), submit(n, 0);
  std::vector<std::uint8_t> curve_of(n), accepted(n, 0);
  double t = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    t += -std::log1p(-rng.uniform()) / rate;
    due[r] = static_cast<std::uint64_t>(t * 1e9);
    curve_of[r] = static_cast<std::uint8_t>(rng.next() % kCurves);
  }
  std::vector<double> outputs(n * 2 * kSmallSize);  // call[32] + put[32] per request

  StreamResult sr;
  sr.latency.reserve(n);
  sr.queue.reserve(n);
  sr.lag.reserve(n);
  const std::uint64_t batches0 = server.stats().batches;
  const std::int32_t stream_span = g_spans != nullptr ? g_spans->open("serve.stream", 0) : -1;
  if (g_spans != nullptr) g_spans->reserve(g_spans->size() + 3 * n);

  std::size_t harvested = 0, submitted = 0;
  // Collect the oldest outstanding request; false when it is not done and
  // `block` is off.
  auto harvest = [&](bool block) {
    if (harvested == submitted) return false;
    const std::size_t q = harvested;
    serve::PricingJob& job = jobs_[q % kRing];
    if (accepted[q]) {
      if (!job.done()) {
        if (!block) return false;
        server.wait(job);
      }
      const auto total_ns = static_cast<std::uint64_t>(job.total_seconds * 1e9);
      sr.latency.push_back(1e-9 * static_cast<double>(submit[q] - due[q]) + job.total_seconds);
      sr.queue.push_back(job.queue_seconds);
      sr.batch_sum += static_cast<double>(job.batch_size);
      if (!job.result.status.ok()) accepted[q] = 2;  // failed, counted at the end
      const BsBook& book = books_[q % kRing];
      double* out = &outputs[q * 2 * kSmallSize];
      for (std::size_t j = 0; j < kSmallSize; ++j) {
        out[j] = book.call(j);
        out[kSmallSize + j] = book.put(j);
      }
      if (g_spans != nullptr) {
        const std::int32_t req = g_spans->add("serve.request", submit[q], submit[q] + total_ns,
                                              stream_span, q);
        g_spans->add("serve.queue", submit[q],
                     submit[q] + static_cast<std::uint64_t>(job.queue_seconds * 1e9), req, q);
      }
    }
    ++harvested;
    return true;
  };

  // The generator sleeps until just before each arrival instead of spinning,
  // so it does not take a core from the server on a small host; a 1 ns timer
  // slack keeps those sleeps within a few microseconds, and a raised
  // scheduling weight lets it wake on time even when every core is busy
  // with the server's threads. Only this thread changes, and only for the
  // stream.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const auto tid = static_cast<id_t>(gettid());
  errno = 0;
  const int old_nice = getpriority(PRIO_PROCESS, tid);
  const bool reniced = errno == 0 && setpriority(PRIO_PROCESS, tid, kGeneratorNice) == 0;
  const std::uint64_t start = now_ns() + 2'000'000;  // first arrival 2 ms out
  for (std::size_t r = 0; r < n; ++r) {
    while (harvested + kRing <= r || submitted - harvested >= kMaxInflight) harvest(true);
    BsBook& book = books_[r % kRing];
    const Curve c = curves_[curve_of[r]];
    book.set_curve(c);
    book.tick(r);
    serve::PricingJob& job = jobs_[r % kRing];
    job.request.portfolio.soa.rate = c.rate;
    job.request.portfolio.soa.vol = c.vol;

    due[r] += start;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= due[r]) break;
      if (harvest(false)) continue;
      if (due[r] - now > 20'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due[r] - now - 10'000));
      } else {
        std::this_thread::yield();
      }
    }
    submit[r] = now_ns();
    {
      SpanScope span("serve.submit", r);
      accepted[r] = server.submit(job).ok() ? 1 : 0;
    }
    sr.lag.push_back(1e-9 * static_cast<double>(submit[r] - due[r]));
    submitted = r + 1;
    if (submit[r] - due[r] > kMaxLag) {
      sr.overloaded = true;
      break;
    }
  }
  while (harvested < submitted) harvest(true);
  if (old_slack > 0) prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);
  if (reniced) setpriority(PRIO_PROCESS, tid, old_nice);
  if (stream_span >= 0) g_spans->close(stream_span);

  sr.submitted = submitted;
  sr.batches = server.stats().batches - batches0;
  for (std::size_t q = 0; q < submitted; ++q) {
    const double* out = &outputs[q * 2 * kSmallSize];
    const bool ok = accepted[q] == 1 &&
                    books_[q % kRing].mismatches_after_tick(q, curves_[curve_of[q]], out,
                                                            out + kSmallSize, tol) == 0;
    if (!ok) ++sr.failed;
  }
  return sr;
}

}  // namespace perfbench
