// Lock substrate tests: lock-table word semantics and its held word, the
// lock manager's
// timeout rule on cross-acquire and upgrade deadlocks, and the ticket
// gate that admits one TuFast L transaction at a time.

#include <functional>
#include <thread>
#include <utility>
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

// The held word counts every holder, shared and exclusive, and starts a
// new episode only on a 0->1 step; failed tries leave it alone.
TEST_F(LockTableTest, HeldWordCountsHoldersAndEpisodes) {
  using Table = LockTable<EmulatedHtm>;
  const auto episodes = [&] { return table_.HeldWord() / Table::kHeldEpisode; };
  EXPECT_EQ(table_.HeldWord(), 0u);
  ASSERT_TRUE(table_.TryLockShared(3));
  ASSERT_TRUE(table_.TryLockShared(3));
  ASSERT_TRUE(table_.TryLockExclusive(9));
  EXPECT_EQ(table_.HeldCount(), 3u);
  EXPECT_EQ(episodes(), 1u);
  EXPECT_EQ(table_.HeldWord() & Table::kHeldNotifying, 0u)
      << "the episode's notify finished";
  EXPECT_FALSE(table_.TryLockExclusive(3));  // Busy: no count.
  EXPECT_FALSE(table_.TryLockShared(9));
  EXPECT_FALSE(table_.TryUpgrade(3));  // Two shared holders.
  EXPECT_EQ(table_.HeldCount(), 3u);
  table_.UnlockShared(3);
  ASSERT_TRUE(table_.TryUpgrade(3));  // The upgrader keeps its one count.
  EXPECT_EQ(table_.HeldCount(), 2u);
  table_.UnlockExclusive(3);
  table_.UnlockExclusive(9);
  EXPECT_EQ(table_.HeldCount(), 0u);
  EXPECT_EQ(episodes(), 1u);
  ASSERT_TRUE(table_.TryLockShared(1));
  table_.UnlockShared(1);
  EXPECT_EQ(table_.HeldWord(), 2 * Table::kHeldEpisode) << "a second episode";
}

/// A backend stand-in that records every NotifyNonTxWrite address and,
/// inside the first notify of the held word, lets a second locker run —
/// the interleaving where one locker starts an episode and has not yet
/// doomed the held word's subscribers when another locker counts.
struct InterleavingHtm {
  std::vector<const void*> notified;
  std::function<void()> during_first_held_notify;
  const void* held = nullptr;
  void NotifyNonTxWrite(const void* addr) {
    notified.push_back(addr);
    if (addr == held && during_first_held_notify) {
      auto second_locker = std::move(during_first_held_notify);
      during_first_held_notify = nullptr;
      second_locker();
    }
  }
};

// A lock that becomes visible while an episode's first notify is still
// in flight would let a subscriber that read a count of 0 commit past it;
// the second locker must therefore notify the held word itself first.
TEST(LockTableEpisodeTest, LockerDuringAPendingNotifyNotifiesToo) {
  InterleavingHtm htm;
  LockTable<InterleavingHtm> table(htm, 16);
  htm.held = table.HeldWordAddr();
  htm.during_first_held_notify = [&] {
    EXPECT_NE(table.HeldWord() & LockTable<InterleavingHtm>::kHeldNotifying,
              0u);
    EXPECT_TRUE(table.TryLockExclusive(2));
  };
  ASSERT_TRUE(table.TryLockExclusive(1));
  // First locker's held notify, second locker's held notify, then the
  // second locker's vertex word, then the first's.
  ASSERT_EQ(htm.notified.size(), 4u);
  EXPECT_EQ(htm.notified[0], table.HeldWordAddr());
  EXPECT_EQ(htm.notified[1], table.HeldWordAddr())
      << "the second lock became visible before any held-word notify of "
         "its own";
  EXPECT_EQ(htm.notified[2], table.WordAddr(2));
  EXPECT_EQ(htm.notified[3], table.WordAddr(1));
  EXPECT_EQ(table.HeldCount(), 2u);
  EXPECT_EQ(table.HeldWord() & LockTable<InterleavingHtm>::kHeldNotifying,
            0u);
  table.UnlockExclusive(1);
  table.UnlockExclusive(2);
  EXPECT_EQ(table.HeldWord(), LockTable<InterleavingHtm>::kHeldEpisode);
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
