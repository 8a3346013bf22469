#ifndef TUFAST_SERVING_MAILBOX_H_
#define TUFAST_SERVING_MAILBOX_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/compiler.h"

namespace tufast {

/// Bounded multi-producer multi-consumer ring buffer (the classic
/// sequence-number bounded queue). RequestQueue (serving/request_queue.h)
/// is built on it: the load generator and re-admitting workers produce,
/// the serving workers consume.
///
/// TryEnqueue is lossless-by-contract: it fails (returns false) when the
/// ring is full and the *caller* decides what happens to the value — an
/// accepted value is never dropped. Capacity is rounded up to a power of
/// two (minimum four).
template <typename T>
class BoundedMailbox {
 public:
  explicit BoundedMailbox(uint32_t capacity) {
    uint32_t cap = 4;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (uint32_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(BoundedMailbox);

  uint32_t capacity() const { return mask_ + 1; }

  bool TryEnqueue(const T& value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Full: a lap behind the consumers.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryDequeue(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Empty (or the producer is mid-publish).
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) >=
           tail_.load(std::memory_order_acquire);
  }

  /// Racy depth estimate for telemetry only.
  uint64_t ApproxDepth() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    return tail > head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  uint32_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
};

}  // namespace tufast

#endif  // TUFAST_SERVING_MAILBOX_H_
