#ifndef TUFAST_SERVING_REQUEST_QUEUE_H_
#define TUFAST_SERVING_REQUEST_QUEUE_H_

#include <atomic>
#include <cstdint>

#include "serving/mailbox.h"
#include "serving/request.h"

namespace tufast {
namespace serving {

/// Bounded MPMC request queue between the open-loop generator and the
/// serving workers, on the Vyukov ring in serving/mailbox.h
/// (BoundedMailbox): the generator is the producer, each serving worker
/// a consumer, and the defer path makes it genuinely multi-producer
/// (re-admitted requests are pushed back by whichever worker drains the
/// defer queue).
///
/// TryPush failure (ring full) is a back-pressure signal, not a drop:
/// the caller decides the request's disposition (shed / defer), so the
/// conservation invariant offered == admitted + shed + deferred stays
/// exact by construction.
class RequestQueue {
 public:
  explicit RequestQueue(uint32_t capacity) : ring_(capacity) {}

  uint32_t capacity() const { return ring_.capacity(); }

  bool TryPush(const Request& r) {
    if (!ring_.TryEnqueue(r)) return false;
    // Racy watermark: good enough for telemetry (max observed depth).
    const uint64_t d = ring_.ApproxDepth();
    uint64_t prev = max_depth_.load(std::memory_order_relaxed);
    while (d > prev && !max_depth_.compare_exchange_weak(
                           prev, d, std::memory_order_relaxed)) {
    }
    return true;
  }

  bool TryPop(Request* out) { return ring_.TryDequeue(out); }

  bool Empty() const { return ring_.Empty(); }
  uint64_t ApproxDepth() const { return ring_.ApproxDepth(); }
  uint64_t MaxDepth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

 private:
  BoundedMailbox<Request> ring_;
  std::atomic<uint64_t> max_depth_{0};
};

}  // namespace serving
}  // namespace tufast

#endif  // TUFAST_SERVING_REQUEST_QUEUE_H_
