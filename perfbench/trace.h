#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-side tracing: spans recorded around every call the benchmark
// makes into a layer's public functions, kept in memory and written out
// when the run ends. Nothing here instruments src/; the two shims below
// (TracedScheduler, TimingWalSink) sit between the benchmark and the
// library and forward every call unchanged.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "tm/outcome.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact latency distribution: one bucket per nanosecond below 2^18 ns,
/// raw samples above, so percentiles carry every digit of the measured
/// values instead of a bin edge.
class LatencyHist {
 public:
  void Add(uint64_t ns) {
    ++count_;
    if (ns < kFineLimit) {
      if (fine_.empty()) fine_.assign(kFineLimit, 0);
      ++fine_[ns];
    } else {
      coarse_.push_back(ns);
    }
  }

  void Merge(const LatencyHist& other) {
    if (!other.fine_.empty()) {
      if (fine_.empty()) fine_.assign(kFineLimit, 0);
      for (uint64_t i = 0; i < kFineLimit; ++i) fine_[i] += other.fine_[i];
    }
    coarse_.insert(coarse_.end(), other.coarse_.begin(), other.coarse_.end());
    count_ += other.count_;
  }

  /// Nearest-rank percentile in ns (q in (0, 1]); 0 when empty.
  double Percentile(double q) {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (uint64_t i = 0; i < fine_.size(); ++i) {
      seen += fine_[i];
      if (seen >= rank) return static_cast<double>(i);
    }
    std::sort(coarse_.begin(), coarse_.end());
    return static_cast<double>(coarse_[rank - seen - 1]);
  }

 private:
  static constexpr uint64_t kFineLimit = uint64_t{1} << 18;
  std::vector<uint32_t> fine_;
  std::vector<uint64_t> coarse_;
  uint64_t count_ = 0;
};

/// Layer boundaries the benchmark calls through. The name prefix is the
/// src/ module that owns the called function.
enum class SpanKind : uint8_t {
  kSweep = 0,    // algorithms: PageRankTm
  kApply,        // graph: DynamicGraph::ApplyBatch
  kRead,         // graph: DynamicGraph::ReadVertexSnapshotRO
  kRun,          // tm: TuFastScheduler::Run
  kRunReadOnly,  // tm: TuFastScheduler::RunReadOnly
  kRunBatch,     // tm: TuFastScheduler::RunBatch (either overload)
  kWalPublish,   // durability: WalSink::Publish
  kWalCommit,    // durability: WalSink::Commit
  kCount
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kCount);

inline const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kSweep: return "algorithms.sweep";
    case SpanKind::kApply: return "graph.apply";
    case SpanKind::kRead: return "graph.read";
    case SpanKind::kRun: return "tm.run";
    case SpanKind::kRunReadOnly: return "tm.run_read_only";
    case SpanKind::kRunBatch: return "tm.run_batch";
    case SpanKind::kWalPublish: return "durability.publish";
    case SpanKind::kWalCommit: return "durability.commit";
    default: return "?";
  }
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span of its thread
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kRun;
};

/// Per-kind aggregate over every span of the run (the written-out span
/// file keeps only the most recent spans of each thread).
struct KindStats {
  uint64_t self_ns = 0;  // duration minus same-thread child spans
  LatencyHist duration;
  LatencyHist self;  // graph spans only (the kinds with children)
};

/// Trace state of one thread slot. Only the owning thread touches it
/// while spans are open; the main thread reads it after joining.
class ThreadTrace {
 public:
  static constexpr size_t kRingCapacity = size_t{1} << 14;

  explicit ThreadTrace(int slot) : slot_(slot) {}

  void Open(SpanKind kind) {
    stack_.push_back({kind, NowNs(), 0,
                      (static_cast<uint64_t>(slot_ + 1) << 48) | ++next_id_,
                      stack_.empty() ? 0 : stack_.back().id});
  }

  void Close() {
    const uint64_t end = NowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - f.start;
    const uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    KindStats& ks = kinds_[static_cast<int>(f.kind)];
    ks.self_ns += self;
    ks.duration.Add(dur);
    // Only spans with children have a self time distinct from their
    // duration; skipping the rest keeps the per-span cost down.
    if (f.kind == SpanKind::kApply || f.kind == SpanKind::kRead) {
      ks.self.Add(self);
    }
    if (f.kind == SpanKind::kRunBatch && collect_batch_intervals) {
      batch_intervals.emplace_back(f.start, end);
    }
    SpanRecord& r = ring_[ring_next_++ % kRingCapacity];
    r = {f.id, f.parent, f.start, end, f.kind};
  }

  KindStats& kind(SpanKind k) { return kinds_[static_cast<int>(k)]; }
  int slot() const { return slot_; }

  /// Most recent spans, oldest first.
  std::vector<SpanRecord> RecentSpans() const {
    std::vector<SpanRecord> out;
    const uint64_t n = std::min<uint64_t>(ring_next_, kRingCapacity);
    for (uint64_t i = ring_next_ - n; i < ring_next_; ++i) {
      out.push_back(ring_[i % kRingCapacity]);
    }
    return out;
  }

  /// When set, every RunBatch span's [start, end) is also kept here so
  /// the analytics workload can intersect them with the enclosing sweep.
  bool collect_batch_intervals = false;
  std::vector<std::pair<uint64_t, uint64_t>> batch_intervals;

 private:
  struct Frame {
    SpanKind kind;
    uint64_t start;
    uint64_t child_ns;
    uint64_t id;
    uint64_t parent;
  };

  const int slot_;
  uint64_t next_id_ = 0;
  std::vector<Frame> stack_;
  KindStats kinds_[kNumSpanKinds];
  std::unique_ptr<SpanRecord[]> ring_{new SpanRecord[kRingCapacity]};
  uint64_t ring_next_ = 0;
};

/// Thread slot whose span is open on the calling thread (null outside
/// any traced call). The WAL sink has no worker id and finds its parent
/// span through this.
inline thread_local ThreadTrace* tls_trace = nullptr;

/// Opens a span on `t` for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(ThreadTrace* t, SpanKind kind) : t_(t), prev_(tls_trace) {
    if (t_ == nullptr) return;
    tls_trace = t_;
    t_->Open(kind);
  }
  ~SpanScope() {
    if (t_ == nullptr) return;
    t_->Close();
    tls_trace = prev_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* t_;
  ThreadTrace* prev_;
};

/// All thread slots of one traced phase.
class Tracer {
 public:
  explicit Tracer(int slots) {
    for (int i = 0; i < slots; ++i) {
      slots_.push_back(std::make_unique<ThreadTrace>(i));
    }
  }

  ThreadTrace* slot(int i) { return slots_[static_cast<size_t>(i)].get(); }

  /// Per-kind aggregate merged over every slot.
  KindStats Merged(SpanKind k) const {
    KindStats out;
    for (const auto& s : slots_) {
      const KindStats& ks = s->kind(k);
      out.self_ns += ks.self_ns;
      out.duration.Merge(ks.duration);
      out.self.Merge(ks.self);
    }
    return out;
  }

  /// Writes the retained spans as CSV; returns false on I/O failure.
  bool WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "slot,id,parent,span,start_ns,end_ns\n");
    for (const auto& s : slots_) {
      for (const SpanRecord& r : s->RecentSpans()) {
        std::fprintf(f, "%d,%llu,%llu,%s,%llu,%llu\n", s->slot(),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     SpanName(r.kind),
                     static_cast<unsigned long long>(r.start_ns),
                     static_cast<unsigned long long>(r.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<ThreadTrace>> slots_;
};

/// Forwarding wrapper around a TuFastScheduler that records a tm span
/// around Run, RunReadOnly and both RunBatch overloads. Exposing both
/// RunBatch overloads keeps the FusionScheduler dispatch in
/// tm/batch_executor.h on the fused path; a wrapper without them would
/// silently degrade every batch to per-item Run calls.
template <typename S>
class TracedScheduler {
 public:
  TracedScheduler(S& tm, Tracer& tracer) : tm_(tm), tracer_(tracer) {}
  TracedScheduler(const TracedScheduler&) = delete;
  TracedScheduler& operator=(const TracedScheduler&) = delete;

  template <typename Fn>
  tufast::RunOutcome Run(int worker_id, uint64_t size_hint, Fn&& fn) {
    SpanScope span(tracer_.slot(worker_id), SpanKind::kRun);
    return tm_.Run(worker_id, size_hint, std::forward<Fn>(fn));
  }

  template <typename Fn>
  tufast::RunOutcome RunReadOnly(int worker_id, uint64_t size_hint, Fn&& fn) {
    SpanScope span(tracer_.slot(worker_id), SpanKind::kRunReadOnly);
    return tm_.RunReadOnly(worker_id, size_hint, std::forward<Fn>(fn));
  }

  template <typename HintFn, typename BodyFn>
  void RunBatch(int worker_id, uint64_t lo, uint64_t hi, HintFn&& hint,
                BodyFn&& body) {
    SpanScope span(tracer_.slot(worker_id), SpanKind::kRunBatch);
    tm_.RunBatch(worker_id, lo, hi, hint, body);
  }

  template <typename HintFn, typename HomeFn, typename BodyFn>
  void RunBatch(int worker_id, uint64_t lo, uint64_t hi, HintFn&& hint,
                HomeFn&& home, BodyFn&& body) {
    SpanScope span(tracer_.slot(worker_id), SpanKind::kRunBatch);
    tm_.RunBatch(worker_id, lo, hi, hint, home, body);
  }

 private:
  S& tm_;
  Tracer& tracer_;
};

/// WAL sink that times Publish and Commit on the calling thread's open
/// span and forwards to a real writer. Publish runs inside the commit
/// window (behind the writer mutex), Commit is the group-commit barrier.
template <typename Writer>
class TimingWalSink final : public tufast::WalSink {
 public:
  explicit TimingWalSink(Writer& inner) : inner_(inner) {}

  tufast::WalPublishInfo Publish(const tufast::EdgeUpdate* updates,
                                 size_t count) override {
    SpanScope span(tls_trace, SpanKind::kWalPublish);
    return inner_.Publish(updates, count);
  }

  bool Commit(uint64_t seq) override {
    SpanScope span(tls_trace, SpanKind::kWalCommit);
    // A Commit that finds its record not yet durable takes the writer
    // mutex and flushes at most once; count those as flush upper bound.
    if (inner_.durable_seq() < seq) {
      slow_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_.Commit(seq);
  }

  uint64_t slow_commits() const {
    return slow_commits_.load(std::memory_order_relaxed);
  }

 private:
  Writer& inner_;
  std::atomic<uint64_t> slow_commits_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
