// Lock substrate tests: lock-table word semantics, the lock manager's
// timeout rule on cross-acquire and upgrade deadlocks, and the ticket
// gate that admits one TuFast L transaction at a time.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/spin.h"
#include "htm/emulated_htm.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"

namespace tufast {
namespace {

class LockTableTest : public ::testing::Test {
 protected:
  EmulatedHtm htm_;
  LockTable<EmulatedHtm> table_{htm_, 64};
};

TEST_F(LockTableTest, SharedLocksCompose) {
  EXPECT_TRUE(table_.TryLockShared(3));
  EXPECT_TRUE(table_.TryLockShared(3));
  EXPECT_FALSE(table_.TryLockExclusive(3));
  table_.UnlockShared(3);
  EXPECT_FALSE(table_.TryLockExclusive(3));  // One shared holder left.
  table_.UnlockShared(3);
  EXPECT_TRUE(table_.TryLockExclusive(3));
  table_.UnlockExclusive(3);
}

TEST_F(LockTableTest, ExclusiveBlocksEverything) {
  EXPECT_TRUE(table_.TryLockExclusive(7));
  EXPECT_FALSE(table_.TryLockShared(7));
  EXPECT_FALSE(table_.TryLockExclusive(7));
  table_.UnlockExclusive(7);
  EXPECT_TRUE(table_.TryLockShared(7));
  table_.UnlockShared(7);
}

TEST_F(LockTableTest, UpgradeRequiresSoleHolder) {
  ASSERT_TRUE(table_.TryLockShared(9));
  ASSERT_TRUE(table_.TryLockShared(9));
  EXPECT_FALSE(table_.TryUpgrade(9));  // Two holders.
  table_.UnlockShared(9);
  EXPECT_TRUE(table_.TryUpgrade(9));  // Sole holder.
  table_.UnlockExclusive(9);
}

TEST_F(LockTableTest, WordPredicatesMatchState) {
  EXPECT_TRUE(LockTable<EmulatedHtm>::Free(table_.LoadWord(0)));
  table_.TryLockShared(0);
  EXPECT_TRUE(LockTable<EmulatedHtm>::SharedCompatible(table_.LoadWord(0)));
  EXPECT_FALSE(LockTable<EmulatedHtm>::Free(table_.LoadWord(0)));
  table_.UnlockShared(0);
  table_.TryLockExclusive(0);
  EXPECT_FALSE(LockTable<EmulatedHtm>::SharedCompatible(table_.LoadWord(0)));
  table_.UnlockExclusive(0);
}

TEST(LockManagerTest, TimeoutPolicyRecoversFromDeadlock) {
  EmulatedHtm htm;
  LockTable<EmulatedHtm> table(htm, 16);
  LockManager<EmulatedHtm> manager(table);
  ASSERT_TRUE(manager.AcquireExclusive(0, 1));
  ASSERT_TRUE(manager.AcquireExclusive(1, 2));
  // Cross-acquire from two threads: both must return (one or both as
  // victims) instead of hanging.
  std::atomic<int> victims{0};
  std::thread t0([&] {
    if (!manager.AcquireExclusive(0, 2)) {
      ++victims;
    } else {
      manager.ReleaseExclusive(2);
    }
    manager.ReleaseExclusive(1);
  });
  std::thread t1([&] {
    if (!manager.AcquireExclusive(1, 1)) {
      ++victims;
    } else {
      manager.ReleaseExclusive(1);
    }
    manager.ReleaseExclusive(2);
  });
  t0.join();
  t1.join();
  EXPECT_GE(victims.load(), 1);
}

// "Shared lock still held after failed upgrade" contract, asserted
// directly: a sole-loser upgrade fails by wait-bound expiry without
// touching the shared lock.
TEST(LockManagerTest, FailedUpgradeKeepsSharedHeldTimeout) {
  EmulatedHtm htm;
  LockTable<EmulatedHtm> table(htm, 16);
  LockManager<EmulatedHtm> manager(table);
  ASSERT_TRUE(manager.AcquireShared(0, 4));
  ASSERT_TRUE(manager.AcquireShared(1, 4));
  // Two shared holders: slot 0's upgrade can never succeed and the
  // timeout bound picks it as victim.
  EXPECT_FALSE(manager.Upgrade(0, 4));
  // Both shared registrations must be intact: exclusive is blocked, and
  // releasing ONE shared makes an upgrade possible again (sole holder) —
  // which could not happen had the failed upgrade leaked slot 0's share.
  EXPECT_FALSE(table.TryLockExclusive(4));
  manager.ReleaseShared(4);
  EXPECT_TRUE(table.TryUpgrade(4));
  table.UnlockExclusive(4);
}

// Two upgraders on one vertex: the wait bound resolves the upgrade
// deadlock. At most one thread may win; the loser must still hold its
// shared lock and release it, leaving the vertex free.
TEST(UpgradeContentionTest, TwoUpgradersOneVertex) {
  EmulatedHtm htm;
  LockTable<EmulatedHtm> table(htm, 16);
  LockManager<EmulatedHtm> manager(table);
  ASSERT_TRUE(manager.AcquireShared(0, 2));
  ASSERT_TRUE(manager.AcquireShared(1, 2));
  std::atomic<int> winners{0};
  std::atomic<int> victims{0};
  auto upgrader = [&](int slot) {
    if (manager.Upgrade(slot, 2)) {
      ++winners;
      manager.ReleaseExclusive(2);
    } else {
      // Contract: the shared lock survives the failed upgrade, so the
      // victim releases shared — an unbalanced release here would corrupt
      // the lock word and break the final freeness check.
      ++victims;
      manager.ReleaseShared(2);
    }
  };
  std::thread other([&] { upgrader(1); });
  upgrader(0);
  other.join();
  EXPECT_GE(victims.load(), 1);
  EXPECT_LE(winners.load(), 1);
  EXPECT_EQ(winners.load() + victims.load(), 2);
  EXPECT_TRUE(table.TryLockExclusive(2));  // Fully released afterwards.
  table.UnlockExclusive(2);
}

// The gate is the only synchronization around `count`: a lost update (or,
// under TSan, a data race) means two holders overlapped.
TEST(TicketGateTest, SerializesHoldersExactly) {
  TicketGate gate;
  EXPECT_FALSE(gate.Busy());
  uint64_t count = 0;
  constexpr int kThreads = 4;
  constexpr int kEach = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) {
        gate.Enter();
        count = count + 1;
        gate.Leave();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(count, uint64_t{kThreads} * kEach);
  EXPECT_FALSE(gate.Busy());
}

}  // namespace
}  // namespace tufast
