// Durability-layer unit tests: WAL record framing and group commit,
// crash failpoints (torn write, short write, crash before fsync),
// checkpoint atomicity, and RecoverFromWal's prefix-consistency
// contract — plus the scheduler integration smoke that runs TuFast, the
// one scheduler with a WAL, against a real log and replays it. The crash-chaos
// *stress* sweep lives in bench/stress_fuzz.cc; these tests pin the
// exact byte-level and sequencing behaviors it builds on.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "durability/recovery.h"
#include "durability/wal.h"
#include "graph/dynamic/dynamic_graph.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/tufast_dur_" +
         std::to_string(static_cast<long>(getpid())) + "_" + tag;
}

/// Removes the file when the test scope ends, pass or fail.
struct PathGuard {
  explicit PathGuard(std::string p) : path(std::move(p)) {}
  ~PathGuard() { std::remove(path.c_str()); }
  std::string path;
};

void ExpectSameFrozenGraph(const DynamicGraph& a, const DynamicGraph& b) {
  const Graph ga = a.Freeze();
  const Graph gb = b.Freeze();
  ASSERT_EQ(ga.NumVertices(), gb.NumVertices());
  ASSERT_EQ(ga.NumEdges(), gb.NumEdges());
  for (VertexId u = 0; u < ga.NumVertices(); ++u) {
    ASSERT_EQ(ga.EdgeBegin(u), gb.EdgeBegin(u)) << "vertex " << u;
    for (EdgeId e = ga.EdgeBegin(u); e < ga.EdgeEnd(u); ++e) {
      ASSERT_EQ(ga.EdgeTarget(e), gb.EdgeTarget(e)) << "edge " << e;
      ASSERT_EQ(ga.EdgeWeight(e), gb.EdgeWeight(e)) << "edge " << e;
    }
  }
}

// ---------------------------------------------------------------------------
// Record framing and group commit.

TEST(WalFramingTest, RoundTripThroughScan) {
  PathGuard wal(TempPath("roundtrip.wal"));
  std::vector<std::vector<EdgeUpdate>> written;
  {
    WalWriter writer(wal.path);
    ASSERT_TRUE(writer.ok());
    for (uint32_t i = 1; i <= 5; ++i) {
      std::vector<EdgeUpdate> ups;
      ups.push_back(EdgeUpdate::Insert(i, i + 1, 10 * i));
      if (i % 2 == 0) ups.push_back(EdgeUpdate::Delete(i, i + 2));
      if (i % 3 == 0) ups.push_back(EdgeUpdate::Reweight(i, i + 1, 7 * i));
      const WalPublishInfo info = writer.Publish(ups.data(), ups.size());
      EXPECT_EQ(info.seq, i);
      EXPECT_GT(info.bytes, 0u);
      EXPECT_TRUE(writer.Commit(info.seq));
      written.push_back(std::move(ups));
    }
    EXPECT_EQ(writer.durable_seq(), 5u);
    EXPECT_EQ(writer.records(), 5u);
    EXPECT_GE(writer.fsyncs(), 1u);
  }

  std::vector<WalRecoveredRecord> read;
  const WalScanResult scan = ScanWal(
      wal.path, [&](const WalRecoveredRecord& rec) { read.push_back(rec); });
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.last_seq, 5u);
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].seq, i + 1);
    ASSERT_EQ(read[i].updates.size(), written[i].size());
    for (size_t k = 0; k < written[i].size(); ++k) {
      EXPECT_EQ(read[i].updates[k].op, written[i][k].op);
      EXPECT_EQ(read[i].updates[k].src, written[i][k].src);
      EXPECT_EQ(read[i].updates[k].dst, written[i][k].dst);
      EXPECT_EQ(read[i].updates[k].weight, written[i][k].weight);
    }
  }
}

TEST(WalFramingTest, EmptyPublishAndMissingFile) {
  PathGuard wal(TempPath("empty.wal"));
  WalWriter writer(wal.path);
  ASSERT_TRUE(writer.ok());
  const WalPublishInfo info = writer.Publish(nullptr, 0);
  EXPECT_EQ(info.seq, 0u);  // Nothing staged, nothing logged.

  const WalScanResult scan = ScanWal(
      TempPath("does_not_exist.wal"),
      [](const WalRecoveredRecord&) { FAIL() << "no records expected"; });
  EXPECT_EQ(scan.records, 0u);
  EXPECT_FALSE(scan.torn_tail);  // A missing log is a fresh log.
}

TEST(WalFramingTest, OneFlushCoversAllBatchedRecords) {
  PathGuard wal(TempPath("group.wal"));
  WalWriter writer(wal.path);
  ASSERT_TRUE(writer.ok());
  uint64_t last = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    const EdgeUpdate up = EdgeUpdate::Insert(1, 2 + i, i);
    last = writer.Publish(&up, 1).seq;
  }
  // The group-commit barrier: one Commit at the tail durability-covers
  // every record batched since the last flush, with a single fsync.
  EXPECT_TRUE(writer.Commit(last));
  EXPECT_EQ(writer.durable_seq(), 3u);
  EXPECT_EQ(writer.fsyncs(), 1u);
  // An earlier record's barrier is now a no-op fast path.
  EXPECT_TRUE(writer.Commit(1));
  EXPECT_EQ(writer.fsyncs(), 1u);
}

TEST(WalFramingTest, SequenceNumbersStayMonotoneAcrossTruncate) {
  PathGuard wal(TempPath("truncate.wal"));
  WalWriter writer(wal.path);
  ASSERT_TRUE(writer.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    const EdgeUpdate up = EdgeUpdate::Insert(1, 2 + i, i);
    EXPECT_TRUE(writer.Commit(writer.Publish(&up, 1).seq));
  }
  ASSERT_TRUE(writer.Truncate());
  for (uint32_t i = 0; i < 2; ++i) {
    const EdgeUpdate up = EdgeUpdate::Insert(2, 5 + i, i);
    EXPECT_TRUE(writer.Commit(writer.Publish(&up, 1).seq));
  }
  std::vector<uint64_t> seqs;
  const WalScanResult scan = ScanWal(
      wal.path, [&](const WalRecoveredRecord& rec) { seqs.push_back(rec.seq); });
  EXPECT_FALSE(scan.torn_tail);
  // Only the post-truncation records remain, and their sequence numbers
  // continue past the dropped prefix — replay's `seq > checkpoint_seq`
  // filter depends on that monotonicity.
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 4u);
  EXPECT_EQ(seqs[1], 5u);
}

// ---------------------------------------------------------------------------
// Crash failpoints: the writer must die exactly like a killed process.

/// Publishes + commits `n` single-update records; returns the number of
/// acknowledged (Commit returned true) commits.
uint64_t PumpRecords(BasicWalWriter<StressFailpoints>& writer, uint32_t n) {
  uint64_t acked = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const EdgeUpdate up = EdgeUpdate::Insert(3, 8 + i, i + 1);
    const WalPublishInfo info = writer.Publish(&up, 1);
    if (info.seq != 0 && writer.Commit(info.seq)) ++acked;
  }
  return acked;
}

TEST(WalCrashTest, TornWriteKeepsExactlyTheAckedPrefix) {
  PathGuard wal(TempPath("torn.wal"));
  FailpointPlan::Config pc;
  pc.seed = 11;
  FailpointPlan plan(pc);
  plan.ForceAt(FailSite::kWalTornWrite, 0, /*hit_index=*/2, FailAction::kFail);
  FailpointScope scope(plan);

  BasicWalWriter<StressFailpoints> writer(wal.path);
  ASSERT_TRUE(writer.ok());
  const uint64_t acked = PumpRecords(writer, 6);
  EXPECT_TRUE(writer.crashed());
  EXPECT_EQ(acked, 2u);  // The third flush tore; nothing after it acks.
  EXPECT_EQ(writer.durable_seq(), 2u);

  const WalScanResult scan = ScanWal(wal.path, [](const WalRecoveredRecord&) {});
  EXPECT_TRUE(scan.torn_tail);
  // Replay stops at the flipped bit: the durable prefix survives, the
  // damaged tail record is invisible.
  EXPECT_EQ(scan.last_seq, writer.durable_seq());
  EXPECT_EQ(scan.records, 2u);
}

TEST(WalCrashTest, ShortWriteKeepsExactlyTheAckedPrefix) {
  PathGuard wal(TempPath("short.wal"));
  FailpointPlan::Config pc;
  pc.seed = 12;
  FailpointPlan plan(pc);
  plan.ForceAt(FailSite::kWalShortWrite, 0, /*hit_index=*/1, FailAction::kFail);
  FailpointScope scope(plan);

  BasicWalWriter<StressFailpoints> writer(wal.path);
  ASSERT_TRUE(writer.ok());
  const uint64_t acked = PumpRecords(writer, 5);
  EXPECT_TRUE(writer.crashed());
  EXPECT_EQ(acked, 1u);
  EXPECT_EQ(writer.durable_seq(), 1u);

  const WalScanResult scan = ScanWal(wal.path, [](const WalRecoveredRecord&) {});
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.last_seq, 1u);
}

TEST(WalCrashTest, CrashBeforeFsyncNeverLosesAnAck) {
  PathGuard wal(TempPath("nofsync.wal"));
  FailpointPlan::Config pc;
  pc.seed = 13;
  FailpointPlan plan(pc);
  plan.ForceAt(FailSite::kCrashBeforeFsync, 0, /*hit_index=*/3,
               FailAction::kFail);
  FailpointScope scope(plan);

  BasicWalWriter<StressFailpoints> writer(wal.path);
  ASSERT_TRUE(writer.ok());
  const uint64_t acked = PumpRecords(writer, 6);
  EXPECT_TRUE(writer.crashed());
  EXPECT_EQ(acked, 3u);
  EXPECT_EQ(writer.durable_seq(), 3u);

  const WalScanResult scan = ScanWal(wal.path, [](const WalRecoveredRecord&) {});
  // The un-fsynced tail record is whole and checksummed, so the scan may
  // legitimately see MORE than was acked — extra intact records are
  // fine; losing an acked one is the only crime.
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_GE(scan.last_seq, writer.durable_seq());
}

TEST(WalCrashTest, CrashedWriterRefusesAllFurtherWork) {
  PathGuard wal(TempPath("dead.wal"));
  FailpointPlan::Config pc;
  pc.seed = 14;
  FailpointPlan plan(pc);
  plan.ForceAt(FailSite::kWalTornWrite, 0, 0, FailAction::kFail);
  FailpointScope scope(plan);

  BasicWalWriter<StressFailpoints> writer(wal.path);
  ASSERT_TRUE(writer.ok());
  PumpRecords(writer, 2);
  ASSERT_TRUE(writer.crashed());

  const EdgeUpdate up = EdgeUpdate::Insert(1, 2, 3);
  EXPECT_EQ(writer.Publish(&up, 1).seq, 0u);  // Dead process: drop.
  EXPECT_FALSE(writer.Commit(1));
  EXPECT_FALSE(writer.Truncate());
  EXPECT_EQ(writer.durable_seq(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoints.

TEST(CheckpointTest, RoundTripRestoresGraphAndSequence) {
  PathGuard ck(TempPath("round.ckpt"));
  DynamicGraph g(32, {.weighted = true});
  g.EnsureVerticesQuiesced(32);
  for (uint32_t i = 0; i < 20; ++i) {
    g.ApplyQuiescedUpdate(EdgeUpdate::Insert(i % 6, 10 + i, i + 1));
  }
  g.ApplyQuiescedUpdate(EdgeUpdate::Delete(2, 12));
  g.ApplyQuiescedUpdate(EdgeUpdate::Reweight(3, 13, 999));

  ASSERT_TRUE(WriteCheckpoint(g, ck.path, /*last_seq=*/7));

  DynamicGraph h(32, {.weighted = true});
  uint64_t seq = 0;
  ASSERT_TRUE(LoadCheckpointInto(&h, ck.path, &seq));
  EXPECT_EQ(seq, 7u);
  h.EnsureVerticesQuiesced(32);
  ExpectSameFrozenGraph(g, h);
  EXPECT_EQ(h.CheckInvariantsQuiesced(), std::nullopt);
}

TEST(CheckpointTest, PartialCheckpointIsRejectedByRecovery) {
  PathGuard ck(TempPath("partial.ckpt"));
  PathGuard wal(TempPath("partial.wal"));
  DynamicGraph g(16, {.weighted = true});
  g.EnsureVerticesQuiesced(16);
  {
    WalWriter writer(wal.path);
    ASSERT_TRUE(writer.ok());
    for (uint32_t i = 0; i < 8; ++i) {
      const EdgeUpdate up = EdgeUpdate::Insert(i % 4, 8 + i, i + 1);
      g.ApplyQuiescedUpdate(up);
      ASSERT_TRUE(writer.Commit(writer.Publish(&up, 1).seq));
    }
  }

  {
    FailpointPlan::Config pc;
    pc.seed = 21;
    FailpointPlan plan(pc);
    plan.ForceAt(FailSite::kCheckpointPartial, 0, 0, FailAction::kFail);
    FailpointScope scope(plan);
    // The simulated mid-checkpoint kill reports failure and leaves a
    // torn image at the final path.
    EXPECT_FALSE(WriteCheckpoint<StressFailpoints>(g, ck.path, 8));
  }

  DynamicGraph untouched(16, {.weighted = true});
  uint64_t seq = 0;
  EXPECT_FALSE(LoadCheckpointInto(&untouched, ck.path, &seq));
  EXPECT_EQ(untouched.Freeze().NumEdges(), 0u);  // Left untouched.

  // Recovery shrugs off the torn checkpoint and rebuilds from the log.
  DynamicGraph rec(16, {.weighted = true});
  const WalRecoveryResult res = RecoverFromWal(&rec, wal.path, ck.path);
  EXPECT_FALSE(res.from_checkpoint);
  EXPECT_EQ(res.replayed, 8u);
  EXPECT_EQ(res.last_seq, 8u);
  rec.EnsureVerticesQuiesced(16);
  ExpectSameFrozenGraph(g, rec);
}

TEST(CheckpointTest, BitFlippedCheckpointIsRejected) {
  PathGuard ck(TempPath("flip.ckpt"));
  DynamicGraph g(8, {.weighted = false});
  g.EnsureVerticesQuiesced(8);
  for (uint32_t i = 0; i < 6; ++i) {
    g.ApplyQuiescedUpdate(EdgeUpdate::Insert(i % 3, 3 + i % 5));
  }
  ASSERT_TRUE(WriteCheckpoint(g, ck.path, 3));

  std::FILE* f = std::fopen(ck.path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 48, SEEK_SET);  // Inside the offsets array.
  const uint8_t flip = 0x08;
  std::fwrite(&flip, 1, 1, f);
  std::fclose(f);

  DynamicGraph h(8, {.weighted = false});
  uint64_t seq = 0;
  EXPECT_FALSE(LoadCheckpointInto(&h, ck.path, &seq));
}

TEST(CheckpointTest, CheckpointPlusTailReplay) {
  PathGuard ck(TempPath("tail.ckpt"));
  PathGuard wal(TempPath("tail.wal"));
  DynamicGraph live(64, {.weighted = true});
  live.EnsureVerticesQuiesced(64);
  WalWriter writer(wal.path);
  ASSERT_TRUE(writer.ok());

  auto commit_one = [&](const EdgeUpdate& up) {
    live.ApplyQuiescedUpdate(up);
    ASSERT_TRUE(writer.Commit(writer.Publish(&up, 1).seq));
  };
  for (uint32_t i = 0; i < 10; ++i) {
    commit_one(EdgeUpdate::Insert(i % 5, 20 + i, i + 1));
  }
  ASSERT_TRUE(WriteCheckpoint(live, ck.path, writer.durable_seq()));
  ASSERT_TRUE(writer.Truncate());
  for (uint32_t i = 0; i < 5; ++i) {
    commit_one(EdgeUpdate::Insert(5 + i % 3, 40 + i, i + 1));
  }

  DynamicGraph rec(64, {.weighted = true});
  const WalRecoveryResult res = RecoverFromWal(&rec, wal.path, ck.path);
  EXPECT_TRUE(res.from_checkpoint);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_EQ(res.replayed, 5u);  // Only the post-checkpoint tail.
  EXPECT_EQ(res.last_seq, writer.durable_seq());
  rec.EnsureVerticesQuiesced(64);
  ExpectSameFrozenGraph(live, rec);
}

// ---------------------------------------------------------------------------
// Scheduler integration: TuFast's publish steps (H-mode commit hooks, O
// and L software publish) must produce a log that replays to exactly the
// committed state.

TEST(DurabilitySchedulerTest, TuFastLogsReplayably) {
  constexpr VertexId kCap = 96;
  PathGuard wal(TempPath("sched_tufast.wal"));

  DynamicGraph live(kCap, {.weighted = true});
  live.EnsureVerticesQuiesced(kCap);
  EmulatedHtm htm;
  auto tm = std::make_unique<TuFastScheduler<EmulatedHtm>>(htm, kCap);
  WalWriter writer(wal.path);
  ASSERT_TRUE(writer.ok());
  tm->EnableWal(&writer);

  constexpr int kThreads = 2;
  constexpr uint64_t kTxnsPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t k = static_cast<uint64_t>(t) * kTxnsPerThread + i;
        const EdgeUpdate one[] = {EdgeUpdate::Insert(
            static_cast<VertexId>(2 + k % 8),
            static_cast<VertexId>(16 + k), static_cast<uint32_t>(k + 1))};
        live.ApplyBatch(*tm, t, one);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr uint64_t kTotal = kThreads * kTxnsPerThread;
  // Every committed batch is one record, every ack is durable.
  EXPECT_EQ(writer.records(), kTotal);
  EXPECT_EQ(writer.durable_seq(), kTotal);
  const SchedulerStats stats = tm->AggregatedStats();
  EXPECT_EQ(stats.wal_records, kTotal);
  EXPECT_GT(stats.wal_bytes, 0u);

  DynamicGraph rec(kCap, {.weighted = true});
  const WalRecoveryResult res = RecoverFromWal(&rec, wal.path);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_EQ(res.replayed, kTotal);
  EXPECT_EQ(res.last_seq, writer.durable_seq());
  rec.EnsureVerticesQuiesced(kCap);
  EXPECT_EQ(rec.CheckInvariantsQuiesced(), std::nullopt);
  ExpectSameFrozenGraph(live, rec);
}

// Deterministic single-worker mutation stream covering all three ops.
void PumpDeterministicMutations(TuFast& tm, DynamicGraph& dyn) {
  for (uint64_t t = 0; t < 60; ++t) {
    EdgeUpdate one[1];
    const VertexId u = static_cast<VertexId>(t % 8);
    const VertexId v = static_cast<VertexId>(10 + t % 20);
    switch (t % 3) {
      case 0: one[0] = EdgeUpdate::Insert(u, v, static_cast<uint32_t>(t + 1)); break;
      case 1: one[0] = EdgeUpdate::Reweight(u, v, static_cast<uint32_t>(2 * t)); break;
      default: one[0] = EdgeUpdate::Delete(u, v); break;
    }
    dyn.ApplyBatch(tm, 0, one);
  }
}

TEST(DurabilityConfigTest, WalOffMatchesWalOnStateAndLeavesNoTelemetry) {
  constexpr VertexId kCap = 48;
  PathGuard wal(TempPath("config.wal"));

  DynamicGraph plain(kCap, {.weighted = true});
  plain.EnsureVerticesQuiesced(kCap);
  {
    EmulatedHtm htm;
    TuFast tm(htm, kCap, {});  // Durability off: the default config.
    PumpDeterministicMutations(tm, plain);
    const SchedulerStats stats = tm.AggregatedStats();
    EXPECT_EQ(stats.wal_records, 0u);
    EXPECT_EQ(stats.wal_bytes, 0u);
    EXPECT_EQ(tm.wal_writer(), nullptr);
  }

  DynamicGraph durable(kCap, {.weighted = true});
  durable.EnsureVerticesQuiesced(kCap);
  uint64_t durable_seq = 0;
  {
    EmulatedHtm htm;
    TuFast::Config cfg;
    cfg.enable_wal = true;
    cfg.wal_path = wal.path;
    TuFast tm(htm, kCap, cfg);
    ASSERT_NE(tm.wal_writer(), nullptr);
    PumpDeterministicMutations(tm, durable);
    const SchedulerStats stats = tm.AggregatedStats();
    EXPECT_GT(stats.wal_records, 0u);
    EXPECT_EQ(stats.wal_records, tm.wal_writer()->records());
    durable_seq = tm.wal_writer()->durable_seq();
    EXPECT_EQ(durable_seq, tm.wal_writer()->records());
  }

  // Same transactions, same committed state, with or without the log.
  ExpectSameFrozenGraph(plain, durable);

  // And the Config-owned log replays to that same state.
  DynamicGraph rec(kCap, {.weighted = true});
  const WalRecoveryResult res = RecoverFromWal(&rec, wal.path);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_EQ(res.last_seq, durable_seq);
  rec.EnsureVerticesQuiesced(kCap);
  ExpectSameFrozenGraph(durable, rec);
}

}  // namespace
}  // namespace tufast
