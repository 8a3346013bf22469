// Unit tests for the emulated HTM backend: isolation, write buffering,
// capacity model, explicit aborts, requester-wins conflicts, the
// non-transactional-store interplay that lock subscription relies on, the
// per-slot subscription (Subscribe / NotifySubscribers), and the line
// table draining back to empty after mixed concurrent traffic.

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/spin.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"

namespace tufast {
namespace {

TEST(EmulatedHtm, CommitsSimpleTransaction) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 1, y = 2;
  const AbortStatus status = tx.Execute([&] {
    const TmWord a = tx.Load(&x);
    tx.Store(&y, a + 10);
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&y), 11u);
  EXPECT_EQ(tx.stats().commits, 1u);
  EXPECT_EQ(tx.stats().begins, 1u);
}

TEST(EmulatedHtm, WritesAreBufferedUntilCommit) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 7;
  TmWord observed_mid_tx = 0;
  const AbortStatus status = tx.Execute([&] {
    tx.Store(&x, 99);
    // The store must not be visible in main memory before commit.
    observed_mid_tx = __atomic_load_n(&x, __ATOMIC_ACQUIRE);
    // But the transaction must read its own write.
    EXPECT_EQ(tx.Load(&x), 99u);
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(observed_mid_tx, 7u);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&x), 99u);
}

TEST(EmulatedHtm, ExplicitAbortDiscardsWrites) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 5;
  const AbortStatus status = tx.Execute([&] {
    tx.Store(&x, 123);
    tx.ExplicitAbort<0x7>();
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, 0x7);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&x), 5u);
  EXPECT_EQ(tx.stats().explicit_aborts, 1u);
}

TEST(EmulatedHtm, CapacityAbortAtSetOverflow) {
  HtmConfig config;
  config.num_sets = 4;
  config.num_ways = 2;  // Tiny cache: at most 8 lines, 2 per set.
  EmulatedHtm htm(config);
  EmulatedHtm::Tx tx(htm, 0);
  // 3 lines mapping to the same set (stride = num_sets lines = 256 bytes).
  std::vector<TmWord> data(4 * 64);  // 4*64 words = 2048 bytes, 32 lines
  const AbortStatus status = tx.Execute([&] {
    tx.Load(&data[0]);        // line 0 -> some set s
    tx.Load(&data[4 * 8]);    // line 4 -> same set s
    tx.Load(&data[8 * 8]);    // line 8 -> same set s: overflow
  });
  EXPECT_EQ(status.cause, AbortCause::kCapacity);
  EXPECT_FALSE(status.may_retry);
}

TEST(EmulatedHtm, CapacityAllowsFullWaySet) {
  HtmConfig config;
  config.num_sets = 4;
  config.num_ways = 2;
  EmulatedHtm htm(config);
  EmulatedHtm::Tx tx(htm, 0);
  std::vector<TmWord> data(4 * 8 * 2);
  // 8 consecutive lines spread 2-per-set: exactly at capacity, must commit.
  const AbortStatus status = tx.Execute([&] {
    for (int line = 0; line < 8; ++line) tx.Load(&data[line * 8]);
  });
  EXPECT_TRUE(status.ok());
}

TEST(EmulatedHtm, FootprintCountsDistinctLinesOnly) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord words[8] = {};
  const AbortStatus status = tx.Execute([&] {
    for (auto& w : words) tx.Load(&w);  // All in one cache line.
    EXPECT_EQ(tx.FootprintLines(), 1u);
  });
  EXPECT_TRUE(status.ok());
}

TEST(EmulatedHtm, NonTxStoreDoomsReader) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 1;
  alignas(64) TmWord y = 1;
  int attempts = 0;
  const AbortStatus status = tx.Execute([&] {
    ++attempts;
    (void)tx.Load(&x);
    if (attempts == 1) {
      // A non-transactional store to our read set must doom us; the next
      // transactional operation observes the doom and aborts.
      htm.NonTxStore(&x, 42);
      (void)tx.Load(&y);
      ADD_FAILURE() << "transaction survived a conflicting non-tx store";
    }
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&x), 42u);
}

TEST(EmulatedHtm, NotifyNonTxWriteDoomsSubscriber) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord lock_word = 0;
  int attempts = 0;
  const AbortStatus status = tx.Execute([&] {
    ++attempts;
    (void)tx.Load(&lock_word);  // Subscribe, lock-elision style.
    if (attempts == 1) {
      __atomic_store_n(&lock_word, 1, __ATOMIC_RELEASE);  // Foreign CAS.
      htm.NotifyNonTxWrite(&lock_word);
      (void)tx.Load(&lock_word);
      ADD_FAILURE() << "subscription did not doom the transaction";
    }
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
}

// Tx::Subscribe publishes the read in the slot, not the line table, and
// NotifySubscribers dooms exactly the slots that subscribed the word.
TEST(EmulatedHtm, NotifySubscribersDoomsSubscriber) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord held = 0;
  int attempts = 0;
  const AbortStatus status = tx.Execute([&] {
    ++attempts;
    EXPECT_EQ(tx.Subscribe(&held), 0u);
    EXPECT_EQ(htm.SubscriptionForTest(0), &held);
    EXPECT_EQ(htm.LineOwnersForTest(&held).second, 0u)
        << "a subscription registered in the line table";
    EXPECT_EQ(tx.FootprintLines(), 1u);
    if (attempts == 1) {
      __atomic_store_n(&held, 1, __ATOMIC_SEQ_CST);  // Foreign RMW.
      htm.NotifySubscribers(&held);
      (void)tx.Subscribe(&held);
      ADD_FAILURE() << "the notify did not doom the subscriber";
    }
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
  EXPECT_EQ(htm.SubscriptionForTest(0), nullptr);
}

TEST(EmulatedHtm, NotifyOfAnotherWordLeavesSubscriber) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord held = 0;
  alignas(64) TmWord other = 0;
  const AbortStatus status = tx.Execute([&] {
    (void)tx.Subscribe(&held);
    htm.NotifySubscribers(&other);
    htm.NotifyNonTxWrite(&held);  // The line table has no reader to doom.
    (void)tx.Subscribe(&held);
  });
  EXPECT_TRUE(status.ok());
}

// Every way a transaction ends clears its subscription, so a notify after
// it leaves the slot's next transaction alone.
TEST(EmulatedHtm, EndedSubscriptionIsNotDoomedByALaterNotify) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord held = 0;
  alignas(64) TmWord x = 0;
  const auto expect_next_commits = [&](const char* ending) {
    EXPECT_EQ(htm.SubscriptionForTest(0), nullptr) << ending;
    htm.NotifySubscribers(&held);
    EXPECT_TRUE(tx.Execute([&] { (void)tx.Load(&x); }).ok()) << ending;
  };
  EXPECT_TRUE(tx.Execute([&] { (void)tx.Subscribe(&held); }).ok());
  expect_next_commits("commit");
  EXPECT_EQ(tx.Execute([&] {
              (void)tx.Subscribe(&held);
              tx.ExplicitAbort<3>();
            }).cause,
            AbortCause::kExplicit);
  expect_next_commits("abort");
  EXPECT_THROW(tx.Execute([&] {
                 (void)tx.Subscribe(&held);
                 throw std::runtime_error("user code");
               }),
               std::runtime_error);
  expect_next_commits("foreign exception");
}

TEST(EmulatedHtm, SubscribedLineCountsTowardCapacity) {
  HtmConfig config;
  config.num_sets = 4;
  config.num_ways = 2;
  EmulatedHtm htm(config);
  EmulatedHtm::Tx tx(htm, 0);
  std::vector<TmWord> data(4 * 64);
  // As CapacityAbortAtSetOverflow: the third line of one set overflows,
  // whether the subscribed line comes first or last.
  EXPECT_EQ(tx.Execute([&] {
              (void)tx.Subscribe(&data[0]);
              (void)tx.Load(&data[4 * 8]);
              (void)tx.Load(&data[8 * 8]);
            }).cause,
            AbortCause::kCapacity);
  EXPECT_EQ(tx.Execute([&] {
              (void)tx.Load(&data[0]);
              (void)tx.Load(&data[4 * 8]);
              (void)tx.Subscribe(&data[8 * 8]);
            }).cause,
            AbortCause::kCapacity);
  EXPECT_TRUE(tx.Execute([&] {
                  (void)tx.Subscribe(&data[0]);
                  (void)tx.Load(&data[4 * 8]);
                }).ok());
}

// The Dekker pair under real concurrency: a locker takes the word with a
// seq_cst RMW, notifies, then writes two words with plain stores that no
// line-table access sees. A subscriber that committed after reading the
// word free never observes the pair half written.
TEST(EmulatedHtm, CommittedSubscriberNeverSeesAHalfWrittenCriticalSection) {
  EmulatedHtm htm;
  struct alignas(64) Line {
    TmWord word = 0;
  };
  Line held, x, y;
  constexpr int kSections = 3000;
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int slot = 0; slot < kReaders; ++slot) {
    readers.emplace_back([&, slot] {
      EmulatedHtm::Tx tx(htm, slot);
      while (!done.load(std::memory_order_acquire)) {
        TmWord a = 0, b = 0;
        const AbortStatus status = tx.Execute([&] {
          if (tx.Subscribe(&held.word) != 0) tx.ExplicitAbort<1>();
          a = tx.Load(&x.word);
          b = tx.Load(&y.word);
        });
        if (status.ok() && a != b) torn.fetch_add(1);
      }
    });
  }
  for (TmWord i = 1; i <= kSections; ++i) {
    TmWord expected = 0;
    EXPECT_TRUE(__atomic_compare_exchange_n(&held.word, &expected, 1,
                                            /*weak=*/false, __ATOMIC_SEQ_CST,
                                            __ATOMIC_RELAXED));
    htm.NotifySubscribers(&held.word);
    __atomic_store_n(&x.word, i, __ATOMIC_RELEASE);
    for (int k = 0; k < 64; ++k) CpuRelax();  // Widen the torn window.
    __atomic_store_n(&y.word, i, __ATOMIC_RELEASE);
    __atomic_store_n(&held.word, 0, __ATOMIC_SEQ_CST);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(EmulatedHtm, RequesterWinsBetweenTwoTransactions) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx1(htm, 0);
  EmulatedHtm::Tx tx2(htm, 1);
  alignas(64) TmWord x = 0;

  // tx1 reads x and stays open; tx2 writes x and commits; tx1 must abort.
  int tx1_attempts = 0;
  const AbortStatus s1 = tx1.Execute([&] {
    ++tx1_attempts;
    (void)tx1.Load(&x);
    if (tx1_attempts == 1) {
      const AbortStatus s2 = tx2.Execute([&] { tx2.Store(&x, 5); });
      EXPECT_TRUE(s2.ok());
      (void)tx1.Load(&x);  // Must notice the doom.
      ADD_FAILURE() << "reader survived conflicting writer commit";
    }
  });
  EXPECT_EQ(s1.cause, AbortCause::kConflict);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&x), 5u);
}

TEST(EmulatedHtm, WriterDoomedByConflictingReaderCannotCommit) {
  EmulatedHtm htm;
  EmulatedHtm::Tx writer(htm, 0);
  EmulatedHtm::Tx reader(htm, 1);
  alignas(64) TmWord x = 0;

  const AbortStatus sw = writer.Execute([&] {
    writer.Store(&x, 77);
    // A competing transactional reader dooms us (requester wins) and
    // reads the committed (old) value.
    const AbortStatus sr = reader.Execute([&] {
      EXPECT_EQ(reader.Load(&x), 0u);
    });
    EXPECT_TRUE(sr.ok());
  });
  EXPECT_EQ(sw.cause, AbortCause::kConflict);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&x), 0u);  // Writer's buffer discarded.
}

TEST(EmulatedHtm, SegmentBoundaryReleasesSubscriptions) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 1;
  alignas(64) TmWord y = 1;
  const AbortStatus status = tx.Execute([&] {
    (void)tx.Load(&x);
    tx.SegmentBoundary();
    // x's subscription ended with the old segment: a conflicting store
    // must NOT doom the new segment (early detection has a blind zone,
    // exactly as in the paper's O-mode design).
    htm.NonTxStore(&x, 9);
    (void)tx.Load(&y);  // Would throw if we were doomed.
  });
  EXPECT_TRUE(status.ok());
}

TEST(EmulatedHtm, SegmentBoundaryKeepsDetectionWithinSegment) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 1;
  int attempts = 0;
  const AbortStatus status = tx.Execute([&] {
    ++attempts;
    tx.SegmentBoundary();
    (void)tx.Load(&x);
    if (attempts == 1) {
      htm.NonTxStore(&x, 9);  // Conflicts with the *current* segment.
      (void)tx.Load(&x);
      ADD_FAILURE() << "in-segment conflict not detected";
    }
  });
  EXPECT_EQ(status.cause, AbortCause::kConflict);
}

TEST(EmulatedHtm, TwoThreadsIncrementCounterAtomically) {
  EmulatedHtm htm;
  alignas(64) TmWord counter = 0;
  constexpr int kThreads = 2;
  constexpr int kIncrementsEach = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&htm, &counter, t] {
      EmulatedHtm::Tx tx(htm, t);
      for (int i = 0; i < kIncrementsEach; ++i) {
        // Retry until the increment commits.
        while (true) {
          const AbortStatus status = tx.Execute([&] {
            const TmWord v = tx.Load(&counter);
            tx.Store(&counter, v + 1);
          });
          if (status.ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&counter),
            static_cast<TmWord>(kThreads * kIncrementsEach));
}

TEST(EmulatedHtm, ManyThreadsDisjointAndSharedMix) {
  EmulatedHtm htm;
  constexpr int kThreads = 4;
  constexpr int kOpsEach = 1500;
  // One shared cacheline-aligned counter plus a private slot per thread.
  struct alignas(64) Slot { TmWord value = 0; };
  static Slot shared;
  shared.value = 0;
  std::vector<Slot> privates(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EmulatedHtm::Tx tx(htm, t);
      for (int i = 0; i < kOpsEach; ++i) {
        while (true) {
          const AbortStatus status = tx.Execute([&] {
            const TmWord s = tx.Load(&shared.value);
            tx.Store(&shared.value, s + 1);
            const TmWord p = tx.Load(&privates[t].value);
            tx.Store(&privates[t].value, p + 1);
          });
          if (status.ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&shared.value),
            static_cast<TmWord>(kThreads * kOpsEach));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(EmulatedHtm::NonTxLoad(&privates[t].value),
              static_cast<TmWord>(kOpsEach));
  }
}

// Every way a transaction ends — commit, conflict, explicit or capacity
// abort, segment boundary — must hand its lines back while NonTxStore,
// NotifyNonTxWrite and DrainLoad displace and wait on the same lines.
// Once every thread has joined, no line-table entry may keep a writer or
// a reader bit: a leaked one would doom or stall every later transaction
// that touches the line.
TEST(EmulatedHtm, LineTableDrainsAfterMixedConcurrentTraffic) {
  HtmConfig config;
  config.num_sets = 8;
  config.num_ways = 2;  // 16 lines fit, two per set.
  EmulatedHtm htm(config);
  constexpr int kTxThreads = 4;
  constexpr int kNonTxThreads = 2;
  // Three lines per set, so a same-set triple overflows the cache.
  constexpr int kLines = 24;
  constexpr int kSweepLines = 16;  // Exactly a full cache, two per set.
  constexpr int kTxIters = 2000;
  constexpr int kNonTxOps = 3000;
  // Transactions use words 0-3 of a line; non-transactional writes 4-7.
  struct alignas(64) Line {
    TmWord words[8] = {};
  };
  std::vector<Line> lines(kLines);
  std::atomic<int> nontx_running{kNonTxThreads};

  std::vector<std::thread> threads;
  for (int slot = 0; slot < kTxThreads; ++slot) {
    threads.emplace_back([&, slot] {
      EmulatedHtm::Tx tx(htm, slot);
      Rng rng(100 + slot);
      for (int i = 0; i < kTxIters || nontx_running.load() > 0; ++i) {
        TmWord* a = lines[rng.NextBounded(kLines)].words;
        TmWord* b = lines[rng.NextBounded(kLines)].words;
        const int set = static_cast<int>(rng.NextBounded(8));
        (void)tx.Execute([&] {
          switch (i % 5) {
            case 0:  // Read-only.
              (void)tx.Load(&a[0]);
              (void)tx.Load(&b[1]);
              break;
            case 1:  // Read-modify-write.
              tx.Store(&a[0], tx.Load(&a[0]) + 1);
              (void)tx.Load(&b[1]);
              break;
            case 2:  // Explicit abort holding a read and a write.
              (void)tx.Load(&a[2]);
              tx.Store(&b[2], 7);
              tx.ExplicitAbort<1>();
            case 3:  // Capacity abort holding a write and a read.
              tx.Store(&lines[set].words[3], 1);
              (void)tx.Load(&lines[set + 8].words[3]);
              (void)tx.Load(&lines[set + 16].words[3]);
              break;
            default:  // Two segments.
              tx.Store(&a[1], 2);
              (void)tx.Load(&b[0]);
              tx.SegmentBoundary();
              (void)tx.Load(&a[0]);
              tx.Store(&b[1], 3);
              break;
          }
        });
      }
      // A last read-only sweep, retried until it commits. The sweep that
      // commits last registers the last reader bits of the run, so a
      // release that forgot them would show below.
      while (!tx.Execute([&] {
                  for (int l = 0; l < kSweepLines; ++l) {
                    (void)tx.Load(&lines[l].words[0]);
                  }
                }).ok()) {
      }
    });
  }
  for (int id = 0; id < kNonTxThreads; ++id) {
    threads.emplace_back([&, id] {
      Rng rng(200 + id);
      for (int i = 0; i < kNonTxOps; ++i) {
        TmWord* w = lines[rng.NextBounded(kLines)].words;
        switch (i % 3) {
          case 0:
            htm.NonTxStore(&w[4], static_cast<TmWord>(i));
            break;
          case 1:
            htm.NotifyNonTxWrite(&w[5]);
            break;
          default:
            (void)htm.DrainLoad(&w[0]);
            break;
        }
      }
      nontx_running.fetch_sub(1);
    });
  }
  for (auto& th : threads) th.join();
  for (int l = 0; l < kLines; ++l) {
    const auto [writer, readers] = htm.LineOwnersForTest(&lines[l]);
    EXPECT_EQ(writer, -1) << "line " << l << " kept a writer";
    EXPECT_EQ(readers, 0u) << "line " << l << " kept reader bits";
  }
}

TEST(NativeHtm, ProbeDoesNotCrash) {
  // On machines with working TSX this exercises the real path; elsewhere
  // it must simply return false.
  const bool supported = NativeHtm::Supported();
  if (!supported) GTEST_SKIP() << "RTM not available on this machine";
  NativeHtm htm;
  NativeHtm::Tx tx(htm, 0);
  alignas(64) TmWord x = 3;
  int committed = 0;
  for (int i = 0; i < 100 && committed == 0; ++i) {
    const AbortStatus status = tx.Execute([&] { tx.Store(&x, 4); });
    if (status.ok()) ++committed;
  }
  EXPECT_GT(committed, 0);
  EXPECT_EQ(x, 4u);
}

}  // namespace
}  // namespace tufast
