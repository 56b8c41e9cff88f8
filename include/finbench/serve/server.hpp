// finbench/serve/server.hpp
//
// The request-stream server core: turns the batch pricing engine into a
// service that absorbs continuous streams of small concurrent requests
// (docs/serve.md). Three pieces:
//
//   submission queue   a bounded MPSC lock-free ring of caller-owned
//                      PricingJob pointers (serve/queue.hpp); submit()
//                      never blocks and never allocates
//   admission control  queue-depth (the ring bound) and in-flight byte
//                      caps; an over-limit submit is shed synchronously
//                      with Status::kResourceExhausted and counted under
//                      robust.admission.shed — backlog is bounded by
//                      construction, not by luck
//   coalescer          the dispatcher drains the backlog and greedily
//                      groups fusable requests (Engine::fusable: same
//                      kernel, layout, knobs) into one group priced via
//                      Engine::price_group — one engine execution, one
//                      pool run for the whole group, each member priced
//                      in place
//
// A PricingJob is caller-owned and reusable; outputs land where
// Engine::price would put them (the job's portfolio arrays / result
// values). Completion is signaled by job.done() (wait on it with
// Server::wait) and optionally a callback on the dispatcher thread.
//
// Deadlines: request.deadline_seconds bounds the queue wait — a job whose
// budget expires before dispatch completes immediately with
// kDeadlineExceeded, without blocking anything behind it — and then rides
// robust::CancelToken through the engine as usual during execution (a
// fused group runs under the most urgent member's budget). For one
// end-to-end absolute deadline, arm a caller-owned CancelToken in
// request.cancel instead.
//
// Telemetry: per-request enqueue→complete latency feeds the
// serve.request.seconds histogram (plus serve.queue.seconds for the wait
// component and serve.batch.size for coalescing depth) through the
// obs::Histogram registry, so quantiles ride the v2 run report and the
// OpenMetrics export like every engine metric.
//
// Resilience (finbench/resilience; docs/resilience.md): the dispatcher is
// where retry and brownout live. A job whose request opts in
// (retry.max_attempts > 1) is re-enqueued after a decorrelated-jitter
// backoff when it fails with kKernelError / kResourceExhausted — subject
// to the server's global RetryBudget token bucket, each coalesced member
// retrying independently. The Brownout controller watches queue-delay p99
// and deadline-miss ratio from completed jobs and steps the degradation
// ladder; at L1+ the dispatcher scales each opted-in request's accuracy
// knobs (within its DegradePolicy floors) before coalescing, restores
// them at completion, and marks the result kDegraded with the applied
// knobs; at the top level it sheds requests below the configured priority
// with kResourceExhausted before dispatch.
//
// Steady state is allocation-free: with jobs, queue, and group scratch
// warm, the dispatcher loop performs zero heap allocations per request
// (tests/test_serve.cpp proves it with a counting operator new).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "finbench/engine/engine.hpp"
#include "finbench/engine/group.hpp"
#include "finbench/engine/request.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/resilience/brownout.hpp"
#include "finbench/resilience/retry.hpp"
#include "finbench/robust/status.hpp"
#include "finbench/serve/queue.hpp"

namespace finbench::serve {

struct ServerConfig {
  // Submission ring slots (rounded up to a power of two). A full ring
  // sheds with kResourceExhausted.
  std::size_t queue_capacity = 1024;

  // Admission byte cap: total workload bytes queued or executing. 0
  // disables the byte gate (the ring still bounds request count).
  std::size_t max_inflight_bytes = std::size_t{256} << 20;

  // Coalescing: group fusable queued requests into one fused batch. Off
  // prices every request individually (the latency bench's baseline).
  bool coalesce = true;
  std::size_t max_batch_items = std::size_t{1} << 20;  // options per fused batch
  std::size_t max_batch_requests = 256;                // members per fused batch

  // Extra OpenMetrics labels on the serve.* histograms, e.g.
  // `mode="coalesced",load="500"` — the latency bench uses this to keep
  // per-load-point quantiles apart in one run report.
  std::string histogram_labels;

  // Brownout controller thresholds and hysteresis. Degradation itself is
  // strictly opt-in per request (PricingRequest::degrade); with every
  // request at the default policy the ladder may move but touches nothing.
  resilience::BrownoutConfig brownout{};

  // Global retry budget: tokens earned per first-attempt dispatch and the
  // bucket burst. One retry spends one token, so total attempts under a
  // 100%-failure outage are bounded by primaries * (1 + tokens) + burst.
  double retry_tokens_per_request = 0.1;
  double retry_burst = 8.0;

  // Engine to price on; nullptr = Engine::shared() (the process pool).
  engine::Engine* engine = nullptr;
};

// One caller-owned unit of work. Reusable: once done() flips, the caller
// may read the result, reuse the portfolio, and resubmit. Must stay alive
// and untouched between submit() and done().
class PricingJob {
 public:
  engine::PricingRequest request;  // outputs land in its portfolio arrays
  engine::PricingResult result;    // per-request outcome after completion

  // Set by the server at completion.
  double queue_seconds = 0.0;   // submit → dispatch
  double total_seconds = 0.0;   // submit → complete
  std::size_t batch_size = 0;   // fused group size (1 = priced alone)

  // Optional completion hook, invoked on the dispatcher thread *before*
  // done() flips (so the job is still exclusively the server's).
  using DoneFn = void (*)(void* ctx, PricingJob& job);
  DoneFn on_done = nullptr;
  void* on_done_ctx = nullptr;

  bool done() const { return state_.load(std::memory_order_acquire) == kDone; }

 private:
  friend class Server;
  static constexpr int kIdle = 0, kQueued = 1, kDone = 2;
  std::atomic<int> state_{kIdle};
  std::uint64_t submit_ns_ = 0;
  std::size_t bytes_ = 0;

  // Serve-layer retry state (dispatcher-owned; reset on every submit).
  int attempts_ = 1;            // dispatches so far, including the first
  std::uint64_t retry_ns_ = 0;  // not-before time of the pending retry
  double backoff_s_ = 0.0;      // previous backoff (decorrelated jitter)
  std::uint64_t rng_state_ = 0; // job-local jitter stream

  // Brownout state: original knobs saved across a degraded dispatch.
  std::size_t saved_npath_ = 0;
  int saved_steps_ = 0;
  int degrade_level_ = 0;       // ladder level applied (0 = untouched)
  bool degraded_ = false;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();  // stop() implied

  // Spawn the dispatcher thread. Jobs may be submitted before start();
  // they sit in the ring until the dispatcher drains it.
  void start();

  // Drain the queue, finish in-flight work, join the dispatcher.
  // Idempotent. Submissions after stop() are shed.
  void stop();

  // Thread-safe, non-blocking, allocation-free on the accept path.
  //   kOk                 accepted — the job completes asynchronously
  //   kResourceExhausted  shed by admission control (ring full / byte
  //                       cap / server stopped); the job is untouched
  //                       and may be resubmitted later
  robust::Status submit(PricingJob& job);

  // Block until job.done().
  void wait(const PricingJob& job);

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed_queue = 0;     // ring full
    std::uint64_t shed_bytes = 0;     // byte cap
    std::uint64_t expired_in_queue = 0;
    std::uint64_t batches = 0;        // price_group calls
    std::uint64_t coalesced = 0;      // members of batches with size > 1
    std::uint64_t max_batch = 0;      // largest fused group so far
    std::uint64_t retries = 0;        // re-dispatches performed
    std::uint64_t retry_denied = 0;   // retries refused by the budget
    std::uint64_t brownout_shed = 0;  // priority sheds at the top level
    int brownout_level = 0;           // ladder level at the stats() call
  };
  Stats stats() const;

  // Brownout controller telemetry (level, transitions, last p99/miss).
  resilience::Brownout::Snapshot brownout_snapshot() const { return brownout_.snapshot(); }

  const ServerConfig& config() const { return cfg_; }

 private:
  void run_dispatcher();
  void process(std::uint64_t now_ns);
  // Post-dispatch routing: earn the primary's budget tokens, retry when
  // the outcome and policy allow it, otherwise complete.
  void finish(PricingJob& job, std::uint64_t end_ns, std::size_t batch_size);
  bool maybe_retry(PricingJob& job, std::uint64_t end_ns);
  static void restore_knobs(PricingJob& job);
  // Move due (or, when flushing, all) retries into pending_; returns the
  // earliest not-before time still waiting (0 when none).
  std::uint64_t collect_due_retries(std::uint64_t now_ns, bool flush);
  void complete(PricingJob& job, std::uint64_t end_ns, std::size_t batch_size);
  void signal_done();

  ServerConfig cfg_;
  engine::Engine* engine_;
  BoundedMpscQueue<PricingJob> queue_;
  engine::GroupScratch group_scratch_;

  std::thread dispatcher_;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::atomic<std::size_t> inflight_bytes_{0};

  // Dispatcher wake-up handshake (submit only touches the mutex when the
  // dispatcher has declared itself idle).
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<bool> idle_sleeping_{false};

  // Completion signaling for wait().
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  // Dispatcher-private working sets (capacity reused across rounds).
  std::vector<PricingJob*> pending_;
  std::vector<std::uint8_t> claimed_;
  std::vector<PricingJob*> members_;
  std::vector<engine::GroupJob> group_jobs_;

  // Resilience: jobs waiting out a retry backoff (dispatcher-private),
  // the global retry budget, and the brownout controller.
  std::vector<PricingJob*> retryq_;
  resilience::RetryBudget retry_budget_;
  resilience::Brownout brownout_;

  // Cached telemetry handles (resolved once in the constructor).
  obs::Histogram* hist_request_ = nullptr;  // serve.request.seconds
  obs::Histogram* hist_queue_ = nullptr;    // serve.queue.seconds
  obs::Histogram* hist_batch_ = nullptr;    // serve.batch.size

  // Per-server stats (obs counters are process-global; these are local).
  std::atomic<std::uint64_t> n_submitted_{0}, n_completed_{0}, n_shed_queue_{0},
      n_shed_bytes_{0}, n_expired_{0}, n_batches_{0}, n_coalesced_{0}, n_max_batch_{0},
      n_retries_{0}, n_retry_denied_{0}, n_brownout_shed_{0};
};

}  // namespace finbench::serve
