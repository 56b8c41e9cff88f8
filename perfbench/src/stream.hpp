// perfbench/src/stream.hpp
//
// The open-loop small-request generator of the layer suite: one thread
// submits 32-option requests to a serve::Server at pre-drawn Poisson arrival
// times and times every request from when it was due, so a stall also
// charges the requests queued behind it. Jobs live in a ring and are reused;
// each request gets fresh spots (a per-request tick of its slot's book) and
// one of a few shared (rate, vol) curves, so the coalescer has to group by
// curve. Outputs are copied out when a job is harvested and checked against
// the analytic price after the stream ends, off the generator's clock.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "finbench/serve/server.hpp"
#include "inputs.hpp"

namespace perfbench {

struct StreamResult {
  std::size_t submitted = 0;
  std::size_t failed = 0;         // shed, bad status or wrong prices
  bool overloaded = false;        // the generator fell kMaxLag behind schedule
  std::vector<double> latency;    // due -> complete, seconds, accepted requests
  std::vector<double> queue;      // PricingJob::queue_seconds
  std::vector<double> lag;        // submit - due (generator lateness)
  double batch_sum = 0.0;         // sum of PricingJob::batch_size
  std::uint64_t batches = 0;      // Server::stats().batches during the stream

  double batch_mean() const { return queue.empty() ? 0.0 : batch_sum / queue.size(); }
};

class SmallStream {
 public:
  explicit SmallStream(std::uint64_t seed);
  SmallStream(const SmallStream&) = delete;
  SmallStream& operator=(const SmallStream&) = delete;

  // Offer `rate` requests/s for `duration` seconds (at most kCap requests).
  // With spans on, each harvested request adds serve.request / serve.queue
  // spans.
  StreamResult run(finbench::serve::Server& server, double rate, double duration, double tol);

 private:
  static constexpr std::size_t kRing = 4096;   // reusable jobs
  static constexpr std::size_t kCap = 100000;  // requests per stream (output memory)

  std::uint64_t seed_;
  std::vector<Curve> curves_;
  std::vector<BsBook> books_;  // one per ring slot
  std::unique_ptr<finbench::serve::PricingJob[]> jobs_;
};

}  // namespace perfbench
