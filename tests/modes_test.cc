// White-box unit tests of the three TuFast mode contexts (HTxn / OTxn /
// LTxn) against the shared lock table: lock-compatibility checks, lock
// elision through the table's held word (and the router's adaptive rule
// for it), O-mode validation and lock-busy outcomes, segment accounting,
// L-mode buffering, and software reads racing a hardware commit's
// write-back — exercised directly, below the router (plus the same race
// against the HSync baseline's global-lock fallback).

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "htm/emulated_htm.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/modes.h"
#include "tm/scheduler_hsync.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

class ModesTest : public ::testing::Test {
 protected:
  static constexpr VertexId kVertices = 64;
  EmulatedHtm htm_;
  LockTable<EmulatedHtm> locks_{htm_, kVertices};
  LockManager<EmulatedHtm> manager_{locks_};
  EmulatedHtm::Tx htx_{htm_, 0};
  std::vector<TmWord> data_ = std::vector<TmWord>(kVertices, 0);
};

TEST_F(ModesTest, HModeAbortsOnExclusivelyLockedVertexRead) {
  ASSERT_TRUE(locks_.TryLockExclusive(5));
  HTxn<EmulatedHtm> txn(htx_, locks_);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    ADD_FAILURE() << "read of exclusively locked vertex must abort";
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, kAbortCodeLockBusy);
  locks_.UnlockExclusive(5);
}

TEST_F(ModesTest, HModeReadsThroughSharedLockButWontWrite) {
  ASSERT_TRUE(locks_.TryLockShared(5));
  HTxn<EmulatedHtm> read_txn(htx_, locks_);
  const AbortStatus read_status =
      htx_.Execute([&] { (void)read_txn.Read(5, &data_[5]); });
  EXPECT_TRUE(read_status.ok()) << "shared lock is read-compatible";

  HTxn<EmulatedHtm> write_txn(htx_, locks_);
  const AbortStatus write_status = htx_.Execute([&] {
    write_txn.Write(5, &data_[5], 1);
    ADD_FAILURE() << "write under a shared holder must abort";
  });
  EXPECT_EQ(write_status.cause, AbortCause::kExplicit);
  locks_.UnlockShared(5);
}

TEST_F(ModesTest, OModeCommitPublishesAndReleases) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/100, /*may_elide=*/false);
  const AbortStatus status = htx_.Execute([&] {
    const TmWord v = txn.Read(3, &data_[3]);
    txn.Write(3, &data_[3], v + 7);
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[3]), 7u);
  // The exclusive lock taken during publication must be released.
  EXPECT_TRUE(locks_.TryLockExclusive(3));
  locks_.UnlockExclusive(3);
}

TEST_F(ModesTest, OModeValidationFailsWhenReadValueChanged) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100, /*may_elide=*/false);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(2, &data_[2]);
    txn.Write(4, &data_[4], 1);
  });
  ASSERT_TRUE(status.ok());
  // A committer changes the read value between XEND and validation.
  htm_.NonTxStore(&data_[2], 99);
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kValidationFail);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[4]), 0u) << "write not published";
  EXPECT_TRUE(locks_.TryLockExclusive(4)) << "locks released on failure";
  locks_.UnlockExclusive(4);
}

TEST_F(ModesTest, OModeCommitLockBusyWhenWriteVertexHeld) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100, /*may_elide=*/false);
  const AbortStatus status =
      htx_.Execute([&] { txn.Write(6, &data_[6], 1); });
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(locks_.TryLockShared(6));  // Somebody else holds it.
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kLockBusy);
  locks_.UnlockShared(6);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[6]), 0u);
}

TEST_F(ModesTest, OModeValidationToleratesSharedReaders) {
  // Algorithm 2 line 45: shared holders on a READ vertex are compatible.
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100, /*may_elide=*/false);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(8, &data_[8]);
    txn.Write(9, &data_[9], 5);
  });
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(locks_.TryLockShared(8));
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  locks_.UnlockShared(8);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[9]), 5u);
}

// Every exit of the O commit returns the held count to what it was: a
// count that never returns to 0 would turn lock elision off for good.
TEST_F(ModesTest, OModeCommitExitsReturnTheHeldCount) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  const auto attempt = [&] {
    txn.Reset(/*period=*/100, /*may_elide=*/true);
    return htx_.Execute([&] {
      txn.Write(1, &data_[1], txn.Read(2, &data_[2]) + 1);
      txn.Write(6, &data_[6], 1);
    });
  };
  // Lock-busy: vertex 1 is locked first, then 6 is found busy.
  ASSERT_TRUE(attempt().ok());
  ASSERT_TRUE(locks_.TryLockShared(6));
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kLockBusy);
  EXPECT_EQ(locks_.HeldCount(), 1u) << "only the foreign shared holder";
  locks_.UnlockShared(6);
  EXPECT_EQ(locks_.HeldCount(), 0u);
  // Validation failure with both write vertices locked.
  ASSERT_TRUE(attempt().ok());
  htm_.NonTxStore(&data_[2], 99);
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kValidationFail);
  EXPECT_EQ(locks_.HeldCount(), 0u);
  // Commit.
  ASSERT_TRUE(attempt().ok());
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  EXPECT_EQ(locks_.HeldCount(), 0u);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 100u);
}

TEST_F(ModesTest, OModeSegmentsRollAtPeriod) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/4, /*may_elide=*/false);
  const AbortStatus status = htx_.Execute([&] {
    // 12 reads with period 4: at least two segment boundaries must have
    // happened without losing read-set entries.
    for (int i = 0; i < 12; ++i) {
      (void)txn.Read(static_cast<VertexId>(i % kVertices),
                     &data_[i % kVertices]);
    }
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(txn.ops(), 12u);
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  EXPECT_GE(htx_.stats().begins, 3u);  // Initial + >= 2 boundaries.
}

TEST_F(ModesTest, LModeBuffersWritesUntilCommit) {
  LTxn<EmulatedHtm> txn(htm_, /*slot=*/0, manager_);
  txn.Reset();
  txn.Write(1, &data_[1], 11);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 0u) << "buffered, not applied";
  EXPECT_EQ(txn.Read(1, &data_[1]), 11u) << "read-own-write";
  txn.CommitApplyAndRelease();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 11u);
  EXPECT_TRUE(locks_.TryLockExclusive(1)) << "locks released";
  locks_.UnlockExclusive(1);
}

TEST_F(ModesTest, LModeReleaseAllDiscardsBufferedWrites) {
  LTxn<EmulatedHtm> txn(htm_, 0, manager_);
  txn.Reset();
  txn.Write(2, &data_[2], 22);
  (void)txn.Read(3, &data_[3]);
  txn.ReleaseAll();  // Abort path.
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[2]), 0u);
  EXPECT_TRUE(locks_.TryLockExclusive(2));
  EXPECT_TRUE(locks_.TryLockExclusive(3));
  locks_.UnlockExclusive(2);
  locks_.UnlockExclusive(3);
}

TEST_F(ModesTest, LModeReadForUpdateTakesExclusiveImmediately) {
  LTxn<EmulatedHtm> txn(htm_, 0, manager_);
  txn.Reset();
  (void)txn.ReadForUpdate(4, &data_[4]);
  EXPECT_FALSE(locks_.TryLockShared(4)) << "exclusive from first touch";
  txn.ReleaseAll();
  EXPECT_TRUE(locks_.TryLockShared(4));
  locks_.UnlockShared(4);
}

// ---------------------------------------------------------------------
// Lock elision (DESIGN.md "Lock elision"): while no vertex lock is held,
// an H transaction or O segment subscribes the lock table's held word
// instead of one lock word per vertex.

/// Whether `slot` is a registered reader of the line `addr` hashes to.
bool SlotReadsLine(const EmulatedHtm& htm, const void* addr, int slot) {
  return ((htm.LineOwnersForTest(addr).second >> slot) & 1) != 0;
}

/// An elided transaction subscribes the held word in its own slot
/// (Tx::Subscribe) and leaves the word's shared line-table entry alone.
void ExpectSubscribesHeldWord(const EmulatedHtm& htm,
                              const LockTable<EmulatedHtm>& locks) {
  EXPECT_EQ(htm.SubscriptionForTest(0), locks.HeldWordAddr());
  const auto [writer, readers] = htm.LineOwnersForTest(locks.HeldWordAddr());
  EXPECT_EQ(writer, -1) << "the held word's entry has a writer";
  EXPECT_EQ(readers, 0u) << "the held word's entry has a reader";
}

TEST_F(ModesTest, ElidedHReadSubscribesOnlyTheHeldWord) {
  HTxn<EmulatedHtm> txn(htx_, locks_);
  txn.BeginAttempt(/*may_elide=*/true);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    ExpectSubscribesHeldWord(htm_, locks_);
    EXPECT_FALSE(SlotReadsLine(htm_, locks_.WordAddr(5), 0));
    // A lock on a vertex this transaction never touches starts an
    // episode; its 0->1 notify must doom the elided subscriber.
    EXPECT_TRUE(locks_.TryLockExclusive(40));
    (void)txn.Read(6, &data_[6]);
    ADD_FAILURE() << "the lock episode must doom the elided transaction";
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
  EXPECT_EQ(txn.elided(), 1u);
  locks_.UnlockExclusive(40);
}

TEST_F(ModesTest, ElidedOSegmentSubscribesOnlyTheHeldWord) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/2, /*may_elide=*/true);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    ExpectSubscribesHeldWord(htm_, locks_);
    EXPECT_FALSE(SlotReadsLine(htm_, locks_.WordAddr(5), 0));
    // Period 2: this read opens the second segment, whose read set
    // starts empty, so it decides again and subscribes the held word.
    (void)txn.Read(6, &data_[6]);
    EXPECT_EQ(txn.elided(), 2u);
    ExpectSubscribesHeldWord(htm_, locks_);
    EXPECT_TRUE(locks_.TryLockExclusive(40));
    (void)txn.Read(7, &data_[7]);
    ADD_FAILURE() << "the lock episode must doom the elided segment";
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
  locks_.UnlockExclusive(40);
}

TEST_F(ModesTest, HeldLockKeepsPerVertexChecks) {
  ASSERT_TRUE(locks_.TryLockShared(40));  // Any lock, anywhere.
  HTxn<EmulatedHtm> txn(htx_, locks_);
  txn.BeginAttempt(/*may_elide=*/true);
  EXPECT_TRUE(htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    EXPECT_TRUE(SlotReadsLine(htm_, locks_.WordAddr(5), 0));
    EXPECT_EQ(htm_.SubscriptionForTest(0), nullptr);
  }).ok());
  EXPECT_EQ(txn.elided(), 0u);
  ASSERT_TRUE(locks_.TryLockExclusive(5));
  txn.BeginAttempt(/*may_elide=*/true);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    ADD_FAILURE() << "read of exclusively locked vertex must abort";
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, kAbortCodeLockBusy);
  locks_.UnlockExclusive(5);
  locks_.UnlockShared(40);
}

// The router's adaptive rule: an attempt elides only if the held word
// still reads what the worker saw before its previous attempt.
TEST_F(ModesTest, RouterElidesOnlyWithoutForeignLockEpisodes) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  const auto h_run = [&] {
    return tm.Run(0, /*size_hint=*/2, [&](auto& txn) {
      txn.Write(3, &data_[3], txn.Read(3, &data_[3]) + 1);
    });
  };
  const auto elided = [&] { return tm.AggregatedStats().elided_attempts; };
  EXPECT_EQ(h_run().cls, TxnClass::kH);
  EXPECT_EQ(elided(), 1u);
  // A foreign lock episode, begun and ended between two attempts.
  ASSERT_TRUE(tm.lock_table().TryLockExclusive(9));
  tm.lock_table().UnlockExclusive(9);
  EXPECT_EQ(h_run().cls, TxnClass::kH);
  EXPECT_EQ(elided(), 1u) << "the next attempt must keep per-vertex checks";
  EXPECT_EQ(h_run().cls, TxnClass::kH);
  EXPECT_EQ(elided(), 2u);
  // This worker's own O commit locks and releases its write vertex.
  const RunOutcome o = tm.Run(0, tm.h_hint_threshold() + 1, [&](auto& txn) {
    txn.Write(4, &data_[4], txn.Read(4, &data_[4]) + 1);
  });
  EXPECT_EQ(o.cls, TxnClass::kO);
  EXPECT_EQ(elided(), 3u);
  EXPECT_EQ(h_run().cls, TxnClass::kH);
  EXPECT_EQ(elided(), 4u) << "the worker's own O commit is not foreign";
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u);
}

// An elided attempt that a foreign lock episode dooms is a loss: the next
// elision needs two quiet intervals instead of one, and an elided commit
// brings it back to one.
TEST_F(ModesTest, RouterBacksOffElisionAfterALoss) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  bool episode_started = false;
  const RunOutcome lost = tm.Run(0, /*size_hint=*/2, [&](auto& txn) {
    txn.Write(3, &data_[3], txn.Read(3, &data_[3]) + 1);
    if (!episode_started) {
      // A foreign episode begins and ends while this elided attempt runs.
      episode_started = true;
      EXPECT_TRUE(tm.lock_table().TryLockExclusive(9));
      tm.lock_table().UnlockExclusive(9);
    }
  });
  EXPECT_EQ(lost.aborts, 1u);
  const auto elided = [&] { return tm.AggregatedStats().elided_attempts; };
  EXPECT_EQ(elided(), 1u) << "only the doomed attempt elided";
  const auto h_run = [&] {
    tm.Run(0, 2, [&](auto& txn) {
      txn.Write(3, &data_[3], txn.Read(3, &data_[3]) + 1);
    });
  };
  h_run();
  EXPECT_EQ(elided(), 1u) << "one quiet interval is no longer enough";
  h_run();
  EXPECT_EQ(elided(), 2u) << "two quiet intervals are";
  h_run();
  EXPECT_EQ(elided(), 3u) << "the elided commit restored the plain rule";
}

// ---------------------------------------------------------------------
// Software reads racing a hardware commit's write-back. Taking a lock
// dooms only hardware transactions that have not reached their commit
// point; one past it keeps flushing its buffered writes. O validation and
// L reads must wait that flush out, or they read the pre-image and the
// hardware commit's update is lost.

/// A hardware transaction on slot 1 that writes `value` to vertex `v`'s
/// word and parks between its commit point and its write-back until
/// Release().
class ParkedHardwareWriter {
 public:
  ParkedHardwareWriter(EmulatedHtm& htm, const LockTable<EmulatedHtm>& locks,
                       VertexId v, TmWord* addr, TmWord value)
      : tx_(htm, 1) {
    EmulatedHtm::Tx::Hooks hooks;
    hooks.pre_publish = [](void* ctx) {
      auto* self = static_cast<ParkedHardwareWriter*>(ctx);
      self->parked_.store(true);
      while (!self->released_.load()) std::this_thread::yield();
    };
    hooks.ctx = this;
    tx_.SetHooks(hooks);
    thread_ = std::thread([this, &locks, v, addr, value] {
      HTxn<EmulatedHtm> txn(tx_, locks);
      status_ = tx_.Execute([&] { txn.Write(v, addr, value); });
    });
    while (!parked_.load()) std::this_thread::yield();
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(ParkedHardwareWriter);
  ~ParkedHardwareWriter() {
    if (thread_.joinable()) Release();
  }

  /// Lets the write-back run after giving a concurrent software reader
  /// time to reach its read, then waits for the commit to finish.
  AbortStatus Release() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released_.store(true);
    thread_.join();
    return status_;
  }

 private:
  EmulatedHtm::Tx tx_;
  std::atomic<bool> parked_{false};
  std::atomic<bool> released_{false};
  AbortStatus status_;
  std::thread thread_;
};

TEST_F(ModesTest, OModeValidationWaitsOutAFlushingHardwareCommit) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/100, /*may_elide=*/false);
  ASSERT_TRUE(htx_.Execute([&] {
    txn.Write(3, &data_[3], txn.Read(3, &data_[3]) + 1);
  }).ok());
  // A hardware commit of 5 to the same word is decided but not flushed.
  ParkedHardwareWriter writer(htm_, locks_, 3, &data_[3], 5);
  OCommitResult result = OCommitResult::kOk;
  std::thread committer([&] { result = txn.CommitSoftware(); });
  EXPECT_TRUE(writer.Release().ok());
  committer.join();
  EXPECT_EQ(result, OCommitResult::kValidationFail)
      << "validation must see the hardware commit, not its pre-image";
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[3]), 5u) << "no lost update";
  EXPECT_TRUE(locks_.TryLockExclusive(3)) << "locks released";
  locks_.UnlockExclusive(3);
}

TEST_F(ModesTest, LModeReadWaitsOutAFlushingHardwareCommit) {
  ParkedHardwareWriter writer(htm_, locks_, 4, &data_[4], 5);
  LTxn<EmulatedHtm> txn(htm_, /*slot=*/0, manager_);
  txn.Reset();
  std::thread reader([&] {
    txn.Write(4, &data_[4], txn.Read(4, &data_[4]) + 1);
    txn.CommitApplyAndRelease();
  });
  EXPECT_TRUE(writer.Release().ok());
  reader.join();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[4]), 6u)
      << "the L read must observe the hardware commit it was locked after";
}

TEST_F(ModesTest, HsyncFallbackReadWaitsOutAFlushingHardwareCommit) {
  // No hardware attempts: every Run goes straight to the global-lock
  // fallback, whose lock dooms only hardware transactions that have not
  // reached their commit point.
  HsyncHybrid<EmulatedHtm> hsync(htm_, kVertices, {.htm_retries = -1});
  ParkedHardwareWriter writer(htm_, locks_, 6, &data_[6], 5);
  std::thread incrementer([&] {
    hsync.Run(/*worker_id=*/2, /*size_hint=*/1, [&](auto& txn) {
      txn.Write(6, &data_[6], txn.Read(6, &data_[6]) + 1);
    });
  });
  EXPECT_TRUE(writer.Release().ok());
  incrementer.join();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[6]), 6u)
      << "the fallback read must observe the flushing hardware commit";
}

}  // namespace
}  // namespace tufast
