// Serving front-end tests (DESIGN.md "Serving front end"):
//   - LatencyHistogram: bucket-index math pinned, quantiles checked
//     against a sorted-vector reference within the documented 1/32
//     relative-error bound, merge associativity/commutativity, the
//     saturation bucket, and concurrent Record from many threads.
//   - AdmissionController: the counting-based SLO state machine (trip on
//     in-window p99 > SLO, hysteretic recovery), the queue-delay and
//     breaker trip signals, and the disposition-conservation counters —
//     including the readmit-no-double-count regression (a deferred
//     request that is re-admitted must move columns, not be re-offered).
//   - BoundedMailbox: the Vyukov ring under RequestQueue — capacity
//     rounding, FIFO order, full-ring rejection, sequence numbers across
//     many laps, and lossless concurrent producers.
//   - RequestQueue: bounded FIFO semantics and MPMC exactly-once
//     delivery.
//   - LoadGenerator: monotone Poisson arrival clock with the right mean,
//     tenant mix, and Zipf skew.
//   - ServeEngine end-to-end: every offered request gets exactly one
//     disposition, Drain() executes exactly the admitted set, the
//     scheduler-side queue-delay plumbing (satellite: RunOutcome/stats)
//     agrees with the engine's own counts, and admission control sheds
//     bulk traffic to protect the interactive tail under overload.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/dynamic/dynamic_graph.h"
#include "htm/emulated_htm.h"
#include "serving/admission.h"
#include "serving/latency_histogram.h"
#include "serving/load_generator.h"
#include "serving/mailbox.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "tm/tufast.h"

namespace tufast {
namespace serving {
namespace {

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(LatencyHistogramTest, ExactBelowSubBucketRange) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketMid(static_cast<int>(v)), v);
    h.Record(v);
  }
  EXPECT_EQ(h.Count(), LatencyHistogram::kSubBuckets);
  EXPECT_EQ(h.Max(), LatencyHistogram::kSubBuckets - 1);
  // With one sample per exact bucket the quantile walk is exact.
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), LatencyHistogram::kSubBuckets - 1);
}

TEST(LatencyHistogramTest, BucketIndexMonotoneInRangeAndMidRoundTrips) {
  // Octave boundaries and their neighbors across the whole range.
  std::vector<uint64_t> values = {0};
  for (int exp = 0; exp <= LatencyHistogram::kMaxExponent + 1; ++exp) {
    const uint64_t base = uint64_t{1} << exp;
    values.push_back(base - 1);
    values.push_back(base);
    values.push_back(base + 1);
  }
  std::sort(values.begin(), values.end());
  int prev = -1;
  for (const uint64_t v : values) {
    const int idx = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(idx, 0) << "v=" << v;
    ASSERT_LT(idx, LatencyHistogram::kNumBuckets) << "v=" << v;
    ASSERT_GE(idx, prev) << "v=" << v;  // monotone in v
    prev = idx;
  }
  // Every bucket's representative value must map back to that bucket
  // (otherwise Quantile would report values from a different bucket).
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::BucketMid(i)),
              i)
        << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, QuantileMatchesSortedReference) {
  LatencyHistogram h;
  std::vector<uint64_t> ref;
  Rng rng(1234);
  // Log-uniform spread across ~9 decades so every octave band gets hits.
  for (int i = 0; i < 20000; ++i) {
    const int exp = static_cast<int>(rng.NextBounded(30));
    const uint64_t v = (uint64_t{1} << exp) + rng.NextBounded(1ull << exp);
    ref.push_back(v);
    h.Record(v);
  }
  std::sort(ref.begin(), ref.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(ref.size()));
    if (rank >= ref.size()) rank = ref.size() - 1;
    const double exact = static_cast<double>(ref[rank]);
    const double approx = static_cast<double>(h.Quantile(q));
    // Documented bound: one sub-bucket of relative error (1/32), plus a
    // half-bucket because the midpoint represents the bucket.
    EXPECT_NEAR(approx, exact, exact * (1.5 / 32) + 1.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SaturationBucket) {
  LatencyHistogram h;
  const uint64_t sat_lo = uint64_t{1} << (LatencyHistogram::kMaxExponent + 1);
  h.Record(100);
  h.Record(sat_lo);            // first saturating value
  h.Record(~uint64_t{0});      // and the worst case: no overflow, no OOB
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Saturated(), 2u);
  EXPECT_EQ(h.Max(), ~uint64_t{0});
  EXPECT_EQ(LatencyHistogram::BucketIndex(sat_lo),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketIndex(~uint64_t{0}),
            LatencyHistogram::kNumBuckets - 1);
  // Saturated quantiles report the observed max, not a fake midpoint.
  EXPECT_EQ(h.Quantile(1.0), ~uint64_t{0});
  EXPECT_EQ(h.Quantile(0.0), LatencyHistogram::BucketMid(
                                 LatencyHistogram::BucketIndex(100)));
}

void FillDeterministic(LatencyHistogram* h, uint64_t seed, int n) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    h->Record(rng.NextBounded(1ull << 40));
  }
}

void ExpectSameDistribution(const LatencyHistogram& a,
                            const LatencyHistogram& b) {
  EXPECT_EQ(a.Count(), b.Count());
  EXPECT_EQ(a.Sum(), b.Sum());
  EXPECT_EQ(a.Max(), b.Max());
  EXPECT_EQ(a.Saturated(), b.Saturated());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    ASSERT_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeAssociativeAndCommutative) {
  LatencyHistogram a, b, c;
  FillDeterministic(&a, 1, 3000);
  FillDeterministic(&b, 2, 5000);
  FillDeterministic(&c, 3, 2000);

  // (A + B) vs (B + A).
  LatencyHistogram ab, ba;
  ab.Merge(a);
  ab.Merge(b);
  ba.Merge(b);
  ba.Merge(a);
  ExpectSameDistribution(ab, ba);

  // ((A + B) + C) vs (A + (B + C)).
  LatencyHistogram ab_c, bc, a_bc;
  ab_c.Merge(ab);
  ab_c.Merge(c);
  bc.Merge(b);
  bc.Merge(c);
  a_bc.Merge(a);
  a_bc.Merge(bc);
  ExpectSameDistribution(ab_c, a_bc);
  EXPECT_EQ(ab_c.Count(), 10000u);
}

TEST(LatencyHistogramTest, ConcurrentRecordMatchesSerialReference) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  LatencyHistogram shared;
  LatencyHistogram serial;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&shared, t] { FillDeterministic(&shared, 100 + t, kPerThread); });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    FillDeterministic(&serial, 100 + t, kPerThread);
  }
  // Same multiset of samples -> identical buckets, regardless of the
  // interleaving (every Record is a single atomic add per counter).
  ExpectSameDistribution(shared, serial);
  EXPECT_EQ(shared.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------

AdmissionConfig TestAdmissionConfig() {
  AdmissionConfig cfg;
  cfg.slo_p99_ns = 1'000'000;  // 1 ms
  cfg.window = 100;
  cfg.recover_percent = 50;
  cfg.min_shed_windows = 2;
  return cfg;
}

TEST(AdmissionTest, TripsWhenWindowP99ExceedsSlo) {
  AdmissionController ac(TestAdmissionConfig());
  EXPECT_EQ(ac.state(), AdmissionController::State::kOpen);
  // 2 misses in a 100-completion window: p99 > SLO (2% > 1%).
  for (int i = 0; i < 98; ++i) ac.RecordInteractiveLatency(100'000);
  ac.RecordInteractiveLatency(5'000'000);
  EXPECT_EQ(ac.state(), AdmissionController::State::kOpen);  // mid-window
  ac.RecordInteractiveLatency(5'000'000);
  EXPECT_EQ(ac.state(), AdmissionController::State::kShedding);
  EXPECT_EQ(ac.trips(), 1u);
}

TEST(AdmissionTest, DoesNotTripAtExactlyOnePercent) {
  AdmissionController ac(TestAdmissionConfig());
  // Exactly 1 miss per 100: p99 == SLO boundary, not over it.
  for (int round = 0; round < 5; ++round) {
    ac.RecordInteractiveLatency(5'000'000);
    for (int i = 0; i < 99; ++i) ac.RecordInteractiveLatency(100'000);
  }
  EXPECT_EQ(ac.state(), AdmissionController::State::kOpen);
  EXPECT_EQ(ac.trips(), 0u);
}

TEST(AdmissionTest, InteractiveAlwaysAdmittedWhileShedding) {
  AdmissionController ac(TestAdmissionConfig());
  ac.NoteBreakerOpen();
  ASSERT_EQ(ac.state(), AdmissionController::State::kShedding);
  EXPECT_TRUE(ac.ShouldAdmit(Tenant::kInteractive));
  EXPECT_FALSE(ac.ShouldAdmit(Tenant::kBulk));
}

TEST(AdmissionTest, RecoveryRequiresHysteresis) {
  AdmissionController ac(TestAdmissionConfig());
  ac.NoteQueueDelay(10'000'000);  // backlog trip
  ASSERT_EQ(ac.state(), AdmissionController::State::kShedding);
  // One full fast window: still shedding (min_shed_windows = 2).
  for (int i = 0; i < 100; ++i) ac.RecordInteractiveLatency(100'000);
  EXPECT_EQ(ac.state(), AdmissionController::State::kShedding);
  // Second fast window (all under recover_percent of the SLO): recover.
  for (int i = 0; i < 100; ++i) ac.RecordInteractiveLatency(100'000);
  EXPECT_EQ(ac.state(), AdmissionController::State::kOpen);
  EXPECT_EQ(ac.recoveries(), 1u);
  // A window at 60% of the SLO is under the SLO but over the recovery
  // band: after a fresh trip it must NOT recover (flap suppression).
  ac.NoteQueueDelay(10'000'000);
  ASSERT_EQ(ac.state(), AdmissionController::State::kShedding);
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 100; ++i) ac.RecordInteractiveLatency(600'000);
  }
  EXPECT_EQ(ac.state(), AdmissionController::State::kShedding);
}

TEST(AdmissionTest, TripCausesAreCounted) {
  AdmissionController ac(TestAdmissionConfig());
  ac.NoteQueueDelay(400'000);  // below slo/2 = 500us: no trip
  EXPECT_EQ(ac.trips(), 0u);
  ac.NoteQueueDelay(600'000);  // above: trip
  EXPECT_EQ(ac.trips(), 1u);
  EXPECT_EQ(ac.queue_delay_trips(), 1u);
  // Already shedding: further signals must not inflate the counters.
  ac.NoteQueueDelay(600'000);
  ac.NoteBreakerOpen();
  EXPECT_EQ(ac.trips(), 1u);
  EXPECT_EQ(ac.breaker_trips(), 0u);
}

TEST(AdmissionTest, DisabledControllerNeverSheds) {
  AdmissionConfig cfg = TestAdmissionConfig();
  cfg.enabled = false;
  AdmissionController ac(cfg);
  ac.NoteBreakerOpen();
  ac.NoteQueueDelay(10'000'000);
  for (int i = 0; i < 300; ++i) ac.RecordInteractiveLatency(50'000'000);
  EXPECT_EQ(ac.state(), AdmissionController::State::kOpen);
  EXPECT_TRUE(ac.ShouldAdmit(Tenant::kBulk));
  EXPECT_EQ(ac.trips(), 0u);
}

TEST(AdmissionTest, ConservationHoldsAcrossDispositions) {
  AdmissionController ac(TestAdmissionConfig());
  for (int i = 0; i < 10; ++i) {
    ac.CountOffered(Tenant::kInteractive);
    ac.CountAdmitted(Tenant::kInteractive);
  }
  for (int i = 0; i < 5; ++i) {
    ac.CountOffered(Tenant::kBulk);
    ac.CountDeferred(Tenant::kBulk);
  }
  for (int i = 0; i < 3; ++i) {
    ac.CountOffered(Tenant::kBulk);
    ac.CountShed(Tenant::kBulk);
  }
  EXPECT_TRUE(ac.Conserved());
  EXPECT_EQ(ac.TotalOffered(), 18u);
}

// Regression (satellite: no stat double-counting on re-admission): a
// deferred request that is later re-admitted moves from the deferred
// column to the admitted column; offered stays fixed and conservation
// holds at every step.
TEST(AdmissionTest, ReadmitMovesColumnsWithoutDoubleCounting) {
  AdmissionController ac(TestAdmissionConfig());
  for (int i = 0; i < 4; ++i) {
    ac.CountOffered(Tenant::kBulk);
    ac.CountDeferred(Tenant::kBulk);
  }
  ASSERT_TRUE(ac.Conserved());
  ac.CountReadmitted(Tenant::kBulk);
  ac.CountReadmitted(Tenant::kBulk);
  EXPECT_EQ(ac.Offered(Tenant::kBulk), 4u);   // NOT re-offered
  EXPECT_EQ(ac.Deferred(Tenant::kBulk), 2u);
  EXPECT_EQ(ac.Admitted(Tenant::kBulk), 2u);
  EXPECT_EQ(ac.Readmitted(Tenant::kBulk), 2u);
  EXPECT_TRUE(ac.Conserved());
}

// ---------------------------------------------------------------------
// BoundedMailbox
// ---------------------------------------------------------------------

TEST(BoundedMailboxTest, CapacityRoundsUpToPowerOfTwoMinFour) {
  EXPECT_EQ(BoundedMailbox<uint64_t>(0).capacity(), 4u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(1).capacity(), 4u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(5).capacity(), 8u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(1024).capacity(), 1024u);
}

TEST(BoundedMailboxTest, FifoOrderAndEmptyTracking) {
  BoundedMailbox<uint64_t> box(8);
  EXPECT_TRUE(box.Empty());
  for (uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(box.TryEnqueue(i));
  EXPECT_FALSE(box.Empty());
  EXPECT_EQ(box.ApproxDepth(), 5u);
  uint64_t out;
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.TryDequeue(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(box.Empty());
  EXPECT_FALSE(box.TryDequeue(&out));
}

TEST(BoundedMailboxTest, FullRingRejectsUntilDrained) {
  BoundedMailbox<uint64_t> box(4);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(box.TryEnqueue(i));
  EXPECT_FALSE(box.TryEnqueue(99));  // Lossless contract: caller bounces.
  uint64_t out;
  ASSERT_TRUE(box.TryDequeue(&out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(box.TryEnqueue(99));
  EXPECT_FALSE(box.TryEnqueue(100));
}

TEST(BoundedMailboxTest, SequenceNumbersSurviveManyLaps) {
  BoundedMailbox<uint64_t> box(4);
  uint64_t out;
  for (uint64_t lap = 0; lap < 100; ++lap) {
    for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(box.TryEnqueue(lap * 3 + i));
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(box.TryDequeue(&out));
      EXPECT_EQ(out, lap * 3 + i);
    }
  }
  EXPECT_TRUE(box.Empty());
}

TEST(BoundedMailboxTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 2000;
  BoundedMailbox<uint64_t> box(64);
  std::vector<uint64_t> seen_count(kProducers * kPerProducer, 0);
  std::atomic<int> live{kProducers};
  std::thread consumer([&] {
    uint64_t out;
    while (live.load(std::memory_order_acquire) > 0 || !box.Empty()) {
      if (box.TryDequeue(&out)) {
        ++seen_count[out];
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!box.TryEnqueue(value)) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  for (size_t v = 0; v < seen_count.size(); ++v) {
    ASSERT_EQ(seen_count[v], 1u) << "value " << v << " lost or duplicated";
  }
}

// ---------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------

Request MakeRequest(uint64_t seq) {
  Request r;
  r.tenant = Tenant::kInteractive;
  r.op = Op::kPointRead;
  r.key = static_cast<uint32_t>(seq);
  r.seq = seq;
  r.arrival_ns = seq;
  return r;
}

TEST(RequestQueueTest, BoundedFifo) {
  RequestQueue q(8);
  uint64_t pushed = 0;
  while (q.TryPush(MakeRequest(pushed))) ++pushed;
  EXPECT_EQ(pushed, q.capacity());
  EXPECT_GE(q.MaxDepth(), pushed);  // watermark saw the full ring
  Request r;
  for (uint64_t i = 0; i < pushed; ++i) {
    ASSERT_TRUE(q.TryPop(&r));
    EXPECT_EQ(r.seq, i);  // FIFO
  }
  EXPECT_FALSE(q.TryPop(&r));
  EXPECT_TRUE(q.Empty());
}

TEST(RequestQueueTest, MpmcExactlyOnce) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 20000;
  RequestQueue q(64);
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> seq_sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t seq = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!q.TryPush(MakeRequest(seq))) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      Request r;
      while (popped.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (q.TryPop(&r)) {
          seq_sum.fetch_add(r.seq, std::memory_order_relaxed);
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(seq_sum.load(), n * (n - 1) / 2);  // each seq exactly once
  EXPECT_TRUE(q.Empty());
}

// ---------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------

TEST(LoadGeneratorTest, PoissonClockIsMonotoneWithRightMean) {
  LoadConfig cfg;
  cfg.rate = 1e6;  // mean inter-arrival 1000 ns
  cfg.num_keys = 4096;
  LoadGenerator gen(cfg, /*seed=*/42);
  uint64_t prev = 0;
  uint64_t interactive = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const Request r = gen.NextRequest();
    ASSERT_GT(r.arrival_ns, prev);  // strictly monotone virtual clock
    prev = r.arrival_ns;
    ASSERT_LT(r.key, cfg.num_keys);
    if (r.tenant == Tenant::kInteractive) ++interactive;
    EXPECT_EQ(r.seq, static_cast<uint64_t>(i));
  }
  const double mean_ns = static_cast<double>(prev) / kN;
  EXPECT_NEAR(mean_ns, 1000.0, 100.0);  // within 10% of 1/rate
  EXPECT_NEAR(static_cast<double>(interactive) / kN, 0.80, 0.02);
}

TEST(LoadGeneratorTest, ZipfSkewConcentratesOnHotKeys) {
  LoadConfig skewed;
  skewed.zipf_alpha = 1.2;
  skewed.num_keys = 1024;
  LoadGenerator gen(skewed, /*seed=*/7);
  std::vector<uint64_t> hits(skewed.num_keys, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) ++hits[gen.NextRequest().key];
  const uint64_t top = *std::max_element(hits.begin(), hits.end());
  // Uniform share would be ~49 hits; Zipf(1.2) gives the hottest key an
  // order of magnitude more.
  EXPECT_GT(top, static_cast<uint64_t>(10 * kN / skewed.num_keys));
}

// ---------------------------------------------------------------------
// ServeEngine end-to-end
// ---------------------------------------------------------------------

using Scheduler = TuFastScheduler<EmulatedHtm>;
using Engine = ServeEngine<Scheduler>;

constexpr VertexId kVertices = 128;

std::unique_ptr<DynamicGraph> MakeRingGraph(Scheduler& tm) {
  auto dyn = std::make_unique<DynamicGraph>(kVertices);
  for (VertexId u = 0; u < kVertices; ++u) dyn->AddVertex(tm, 0);
  for (VertexId u = 0; u < kVertices; ++u) {
    dyn->InsertEdge(tm, 0, u, (u + 1) % kVertices, static_cast<uint32_t>(u));
  }
  return dyn;
}

struct EngineRunResult {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deferred = 0;
  uint64_t hist_count = 0;
  uint64_t interactive_p99_ns = 0;
};

/// Offer `requests` requests, drain, and roll up the disposition and
/// histogram counters. Unpaced by default (the virtual arrival clock
/// runs at `rate`, so a busy engine accumulates "backlog" latency);
/// `paced` spins each offer out to its scheduled arrival so the
/// admission controller sees the overload while the stream is still
/// arriving — the open-loop shape the SLO-protection test needs.
EngineRunResult RunEngine(Scheduler& tm, DynamicGraph& dyn,
                          const Engine::Config& ec, uint64_t requests,
                          uint64_t seed, bool paced = false,
                          double rate = 1e6) {
  LoadConfig lc;
  lc.rate = rate;
  lc.num_keys = kVertices;
  lc.interactive_percent = 60;
  LoadGenerator gen(lc, seed);
  Engine engine(tm, dyn, ec);
  engine.Start();
  for (uint64_t i = 0; i < requests; ++i) {
    const Request r = gen.NextRequest();
    if (paced) {
      while (engine.NowNs() < r.arrival_ns) std::this_thread::yield();
    }
    engine.Offer(r);
    if ((i & 0x1f) == 0) engine.TryReadmit(4);
  }
  engine.Drain();

  EngineRunResult res;
  const AdmissionController& ac = engine.admission();
  for (int t = 0; t < kNumTenants; ++t) {
    const Tenant tenant = static_cast<Tenant>(t);
    res.offered += ac.Offered(tenant);
    res.admitted += ac.Admitted(tenant);
    res.shed += ac.Shed(tenant);
    res.deferred += ac.Deferred(tenant);
    for (int op = 0; op < kNumOps; ++op) {
      res.hist_count += engine.Latency(tenant, static_cast<Op>(op)).Count();
    }
  }
  LatencyHistogram inter;
  engine.MergeTenantLatency(Tenant::kInteractive, &inter);
  res.interactive_p99_ns = inter.Quantile(0.99);

  // The invariants every run must satisfy, regardless of load shape:
  EXPECT_TRUE(ac.Conserved());
  EXPECT_EQ(res.offered, requests);
  EXPECT_EQ(engine.ExecutedTotal(), res.admitted);
  EXPECT_EQ(res.hist_count, engine.ExecutedTotal());
  // Satellite: the scheduler's per-worker queue-delay stats must agree
  // with the engine exactly — one NoteQueueDelay per executed request,
  // no side channel, no double-counting across re-admissions.
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.serve_requests, engine.ExecutedTotal());
  EXPECT_GE(stats.serve_max_queue_delay_ns, engine.MaxQueueDelayNs());
  return res;
}

TEST(ServeEngineTest, ExecutesAdmittedAndConservesDispositions) {
  EmulatedHtm htm;
  Scheduler tm(htm, kVertices, {});
  auto dyn = MakeRingGraph(tm);
  Engine::Config ec;
  ec.num_workers = 4;
  ec.queue_capacity = 256;
  ec.defer_capacity = 1024;
  ec.admission.slo_p99_ns = 1'000'000;
  const EngineRunResult res = RunEngine(tm, *dyn, ec, /*requests=*/4000,
                                        /*seed=*/11);
  EXPECT_GT(res.admitted, 0u);
}

TEST(ServeEngineTest, QueueDelayPlumbingSurvivesReadmission) {
  // Tiny run queue + generous defer queue: many bulk requests bounce,
  // park, and re-admit. serve_requests must still equal executed exactly
  // (a double-counted readmission would show up here).
  EmulatedHtm htm;
  Scheduler tm(htm, kVertices, {});
  auto dyn = MakeRingGraph(tm);
  Engine::Config ec;
  ec.num_workers = 2;
  ec.queue_capacity = 16;
  ec.defer_capacity = 2048;
  ec.admission.slo_p99_ns = 500'000;
  ec.admission.window = 64;
  (void)RunEngine(tm, *dyn, ec, /*requests=*/4000, /*seed=*/13);
  // All assertions live in RunEngine; reaching here means they held
  // under heavy bounce/readmit traffic.
}

TEST(ServeEngineTest, AdmissionShedsBulkToProtectInteractiveTail) {
  // Overload: 2 workers against an offered stream whose bulk tier is
  // dominated by 512-vertex scans. The run queue is big enough that the
  // admission-off run admits EVERYTHING — its interactive tail then
  // honestly pays for the whole bulk backlog (no survivorship bias from
  // queue-full sheds). The admission-on run trips on queue delay, parks
  // bulk, and must come out with a better interactive p99. Timing-
  // sensitive, so retry across seeds and require one clear win — the
  // invariant checks inside RunEngine are exact on every attempt.
  bool improved = false;
  for (uint64_t attempt = 0; attempt < 3 && !improved; ++attempt) {
    const uint64_t seed = 17 + attempt;
    EngineRunResult off, on;
    {
      EmulatedHtm htm;
      Scheduler tm(htm, kVertices, {});
      auto dyn = MakeRingGraph(tm);
      Engine::Config ec;
      ec.num_workers = 2;
      ec.queue_capacity = 8192;  // >= requests: nothing bounces
      ec.defer_capacity = 8192;
      ec.admission.enabled = false;
      off = RunEngine(tm, *dyn, ec, /*requests=*/6000, seed,
                      /*paced=*/true, /*rate=*/2e5);
      EXPECT_EQ(off.admitted, off.offered);  // the honest-backlog setup
    }
    {
      EmulatedHtm htm;
      Scheduler tm(htm, kVertices, {});
      auto dyn = MakeRingGraph(tm);
      Engine::Config ec;
      ec.num_workers = 2;
      ec.queue_capacity = 8192;
      ec.defer_capacity = 8192;
      ec.admission.enabled = true;
      ec.admission.slo_p99_ns = 200'000;
      ec.admission.window = 64;
      on = RunEngine(tm, *dyn, ec, /*requests=*/6000, seed,
                     /*paced=*/true, /*rate=*/2e5);
    }
    // The controller must actually engage under this load...
    if (on.shed + on.deferred == 0) continue;
    // ...and the protected tail must beat the unprotected one.
    improved = on.interactive_p99_ns < off.interactive_p99_ns;
  }
  EXPECT_TRUE(improved)
      << "admission-on interactive p99 never improved on admission-off "
         "across 3 seeds";
}

}  // namespace
}  // namespace serving
}  // namespace tufast
