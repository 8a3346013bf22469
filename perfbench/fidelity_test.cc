// Wrapper-fidelity test: at 1 worker the scheduler's routing is
// deterministic, so the untraced configuration (TuFast, owned WAL writer)
// and the traced one (TracedScheduler over TuFastInstrumented, timing WAL
// sink) must produce identical commits by class, fused regions and items,
// and HTM begins and aborts. A negative control shows the comparison
// catches a wrapper without RunBatch, which silently falls back to
// per-item Run calls.
//
// Each variant runs in a forked child so both start from the same heap
// state: the emulated HTM maps lines to sets by address, and capacity
// aborts would otherwise depend on where allocations happened to land.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/pagerank.h"
#include "bench_support/datasets.h"
#include "common/rng.h"
#include "durability/wal.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"
#include "trace.h"

namespace {

using namespace tufast;
using perfbench::TimingWalSink;
using perfbench::TracedScheduler;
using perfbench::Tracer;

struct Counts {
  uint64_t class_count[kNumTxnClasses] = {};
  uint64_t fused_regions = 0;
  uint64_t fused_items = 0;
  uint64_t htm_begins = 0;
  uint64_t htm_aborts = 0;
  uint64_t htm_capacity_aborts = 0;

  bool operator==(const Counts& o) const {
    return std::memcmp(this, &o, sizeof(Counts)) == 0;
  }
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "H/O/O+/O2L/L %llu/%llu/%llu/%llu/%llu fused %llu/%llu "
                  "htm begins %llu aborts %llu (capacity %llu)",
                  static_cast<unsigned long long>(class_count[0]),
                  static_cast<unsigned long long>(class_count[1]),
                  static_cast<unsigned long long>(class_count[2]),
                  static_cast<unsigned long long>(class_count[3]),
                  static_cast<unsigned long long>(class_count[4]),
                  static_cast<unsigned long long>(fused_regions),
                  static_cast<unsigned long long>(fused_items),
                  static_cast<unsigned long long>(htm_begins),
                  static_cast<unsigned long long>(htm_aborts),
                  static_cast<unsigned long long>(htm_capacity_aborts));
    return buf;
  }
};

template <typename Sched>
Counts CountsOf(const Sched& tm) {
  Counts c;
  const SchedulerStats st = tm.AggregatedStats();
  const HtmStats hs = tm.AggregatedHtmStats();
  for (int i = 0; i < kNumTxnClasses; ++i) c.class_count[i] = st.class_count[i];
  c.fused_regions = st.fused_regions;
  c.fused_items = st.fused_items;
  c.htm_begins = hs.begins;
  c.htm_aborts = hs.TotalAborts();
  c.htm_capacity_aborts = hs.capacity_aborts;
  return c;
}

/// Runs `fn` in a forked child and returns the Counts it produced.
template <typename Fn>
bool InChild(Fn fn, Counts* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    const Counts c = fn();
    const bool ok = write(fds[1], &c, sizeof(c)) == sizeof(c);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], out, sizeof(*out)) == sizeof(*out);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// A wrapper that forwards only Run: batch_executor.h then degrades every
/// RunBatch to per-item Run calls (the failure the test must catch).
template <typename S>
class RunOnlyWrapper {
 public:
  explicit RunOnlyWrapper(S& tm) : tm_(tm) {}
  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t size_hint, Fn&& fn) {
    return tm_.Run(worker_id, size_hint, fn);
  }

 private:
  S& tm_;
};

struct Inputs {
  Graph graph;
  Graph reversed;
  Graph rmat;
  std::string wal_path;
};

constexpr int kSweeps = 4;

template <typename Sched, typename Wrap>
Counts PageRankCounts(const Inputs& in, Wrap wrap) {
  EmulatedHtm htm;
  Sched tm(htm, in.graph.NumVertices());
  ThreadPool pool(1);
  Tracer tracer(1);
  auto&& front = wrap(tm, tracer);
  std::vector<double> ranks(in.graph.NumVertices(),
                            1.0 / in.graph.NumVertices());
  for (int i = 0; i < kSweeps; ++i) {
    PageRankOptions opts;
    opts.max_iterations = 1;
    opts.tolerance = 0;
    opts.initial_ranks = &ranks;
    ranks = PageRankTm(front, pool, in.graph, in.reversed, opts).ranks;
  }
  return CountsOf(tm);
}

/// The ingest path at 1 worker: MVCC on, WAL on, ApplyBatch writes and
/// snapshot reads, plus per-item Run transactions (the txn path).
template <typename Sched, typename Wrap>
Counts IngestCounts(const Inputs& in, bool timing_sink, Wrap wrap) {
  auto dyn = DynamicGraph::FromCsr(in.rmat);
  EmulatedHtm htm;
  typename Sched::Config cfg;
  cfg.enable_mvcc = true;
  std::optional<WalWriter> external;
  std::optional<TimingWalSink<WalWriter>> sink;
  if (timing_sink) {
    external.emplace(in.wal_path, WalSyncPolicy::kFlushOnly);
    sink.emplace(*external);
  } else {
    cfg.enable_wal = true;
    cfg.wal_path = in.wal_path;
    cfg.wal_sync = WalSyncPolicy::kFlushOnly;
  }
  Sched tm(htm, dyn->capacity(), cfg);
  if (timing_sink) tm.EnableWal(&*sink);
  Tracer tracer(1);
  auto&& front = wrap(tm, tracer);
  Rng rng(17);
  const VertexId n = in.rmat.NumVertices();
  std::vector<EdgeUpdate> batch;
  VertexSnapshot snap;
  std::vector<TmWord> values(n, 0);
  for (int b = 0; b < 200; ++b) {
    batch.clear();
    for (int k = 0; k < 32; ++k) {
      const VertexId u = static_cast<VertexId>(rng.NextZipf(n, 0.8));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      batch.push_back(k % 3 == 2 ? EdgeUpdate::Delete(u, v)
                                 : EdgeUpdate::Insert(u, v, 1 + k));
    }
    dyn->ApplyBatch(front, 0, batch);
    dyn->ReadVertexSnapshotRO(front, 0,
                              static_cast<VertexId>(rng.NextBounded(n)), &snap);
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    front.Run(0, 2, [&](auto& txn) {
      txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
    });
  }
  return CountsOf(tm);
}

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  Inputs in;
  DatasetSpec spec = BenchDatasets(0.25)[0];
  in.graph = GenerateDataset(spec);
  in.reversed = in.graph.Reversed();
  in.rmat = GenerateRmat(12, 8, 5, {.weighted = true});
  char tmpl[] = "perfbench_fidelity_XXXXXX";
  const int fd = mkstemp(tmpl);
  if (fd < 0) return 1;
  close(fd);
  in.wal_path = tmpl;

  auto bare = [](auto& tm, Tracer&) -> auto& { return tm; };
  auto traced = [](auto& tm, Tracer& tracer) {
    return TracedScheduler<std::remove_reference_t<decltype(tm)>>(tm, tracer);
  };
  auto run_only = [](auto& tm, Tracer&) {
    return RunOnlyWrapper<std::remove_reference_t<decltype(tm)>>(tm);
  };

  Counts plain, wrapped, degraded;
  Expect(InChild([&] { return PageRankCounts<TuFast>(in, bare); }, &plain) &&
             InChild([&] {
               return PageRankCounts<TuFastInstrumented>(in, traced);
             }, &wrapped),
         "pagerank: both variants ran");
  std::printf("  untraced: %s\n  traced:   %s\n", plain.ToString().c_str(),
              wrapped.ToString().c_str());
  Expect(plain.fused_regions > 0, "pagerank: the untraced run fuses");
  Expect(plain == wrapped, "pagerank: traced counts equal untraced counts");

  Expect(InChild([&] { return PageRankCounts<TuFast>(in, run_only); },
                 &degraded),
         "pagerank: negative control ran");
  std::printf("  run-only wrapper: %s\n", degraded.ToString().c_str());
  Expect(!(plain == degraded),
         "pagerank: a wrapper without RunBatch is caught");

  Expect(InChild([&] { return IngestCounts<TuFast>(in, false, bare); },
                 &plain) &&
             InChild([&] {
               return IngestCounts<TuFastInstrumented>(in, true, traced);
             }, &wrapped),
         "ingest: both variants ran");
  std::printf("  untraced: %s\n  traced:   %s\n", plain.ToString().c_str(),
              wrapped.ToString().c_str());
  Expect(plain == wrapped, "ingest: traced counts equal untraced counts");

  std::remove(in.wal_path.c_str());
  std::printf("%s\n", failures == 0 ? "PASSED" : "FAILED");
  return failures == 0 ? 0 : 1;
}
