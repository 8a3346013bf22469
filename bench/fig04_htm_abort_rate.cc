// Reproduces paper Fig. 4: probability that a hardware transaction
// aborts as a function of its footprint. Two threads repeatedly run
// transactions over random locations of a large region at a given
// footprint; expected shape: near zero for small transactions, rising
// steeply (set-associativity "birthday" overflows) and ~1 past ~30 KB.
//
// Beside each emulated measurement it prints the analytic model TuFast
// sizes its hardware work with, 1 - CapacityFitProbability (htm_config.h;
// CapacityOptimalOps in tm/contention_monitor.h maximizes over it), and
// exits 1 if any footprint's measurement and model differ by more than
// kMaxModelGap — a change to the emulator's capacity model or to
// HtmConfig that breaks the derivation's premise fails the run.
//
// Runs on the emulated backend; add --native to also measure real RTM
// when the CPU supports it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_support/reporting.h"
#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"

namespace tufast {
namespace {

constexpr size_t kRegionWords = 8u << 20;  // 64 MB region.
constexpr int kTransactionsPerPoint = 2000;
constexpr double kMaxModelGap = 0.05;

template <typename Htm>
double MeasureAbortProbability(Htm& htm, size_t footprint_bytes,
                               std::vector<TmWord>& region) {
  // Footprint is counted the way the cache sees it: one 64-byte line per
  // 64 bytes of transaction size, at random line-aligned locations.
  const size_t lines = footprint_bytes / 64;
  std::vector<uint64_t> begins(2), commits(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      typename Htm::Tx tx(htm, t);
      Rng rng(99 + t);
      uint64_t committed = 0;
      for (int i = 0; i < kTransactionsPerPoint; ++i) {
        const AbortStatus status = tx.Execute([&] {
          // Random-location accesses, like the paper's microbenchmark.
          for (size_t k = 0; k < lines; ++k) {
            const size_t pos = rng.NextBounded(kRegionWords / 8) * 8;
            TmWord x = tx.Load(&region[pos]);
            tx.Store(&region[pos], x + 1);
          }
        });
        if (status.ok()) ++committed;
      }
      begins[t] = kTransactionsPerPoint;
      commits[t] = committed;
    });
  }
  for (auto& th : threads) th.join();
  const double total = static_cast<double>(begins[0] + begins[1]);
  const double ok = static_cast<double>(commits[0] + commits[1]);
  return 1.0 - ok / total;
}

int Main(int argc, char** argv) {
  bool native = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--native") == 0) native = true;
  }

  std::vector<TmWord> region(kRegionWords, 0);
  const std::vector<size_t> sizes_bytes = {512,   1024,  2048,  4096,
                                           8192,  12288, 16384, 20480,
                                           24576, 28672, 32768, 40960};

  ReportTable table({"tx size (KB)", "abort probability (emulated)",
                     "model (1 - fit)"});
  EmulatedHtm emulated;
  double max_gap = 0.0;
  for (const size_t bytes : sizes_bytes) {
    const double p = MeasureAbortProbability(emulated, bytes, region);
    const double model =
        1.0 - CapacityFitProbability(emulated.config(),
                                     static_cast<uint32_t>(bytes / 64));
    max_gap = std::max(max_gap, std::fabs(p - model));
    table.AddRow({ReportTable::Num(bytes / 1024.0), ReportTable::Num(p),
                  ReportTable::Num(model)});
  }
  table.Print(
      "Fig. 4 — HTM abort probability vs transaction size "
      "(2 threads, random locations)");
  std::printf("model check: max |emulated - model| = %.4f (limit %.2f) %s\n",
              max_gap, kMaxModelGap, max_gap <= kMaxModelGap ? "ok" : "FAIL");

  if (native) {
    if (!NativeHtm::Supported()) {
      std::printf("native RTM not available on this machine; skipped\n");
    } else {
      ReportTable ntable({"tx size (KB)", "abort probability (native RTM)"});
      NativeHtm native_htm;
      for (const size_t bytes : sizes_bytes) {
        const double p = MeasureAbortProbability(native_htm, bytes, region);
        ntable.AddRow(
            {ReportTable::Num(bytes / 1024.0), ReportTable::Num(p)});
      }
      ntable.Print("Fig. 4 (native RTM)");
    }
  }
  return max_gap <= kMaxModelGap ? 0 : 1;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
