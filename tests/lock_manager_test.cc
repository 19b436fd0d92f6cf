#include "src/txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace kamino::txn {
namespace {

LockOptions ShortTimeout() {
  LockOptions o;
  o.timeout_ms = 100;
  return o;
}

TEST(LockManagerTest, WriteLockBasic) {
  LockManager lm;
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.IsWriteLocked(100));
  lm.ReleaseWrite(100, 1);
  EXPECT_FALSE(lm.IsWriteLocked(100));
}

TEST(LockManagerTest, WriteIsReentrantForSameTx) {
  LockManager lm;
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 1);
  EXPECT_FALSE(lm.IsWriteLocked(100));
}

TEST(LockManagerTest, WriteExcludesWrite) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_EQ(lm.AcquireWrite(100, 2).code(), StatusCode::kTxConflict);
  lm.ReleaseWrite(100, 1);
  EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
  lm.ReleaseWrite(100, 2);
}

TEST(LockManagerTest, WriteExcludesRead) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_EQ(lm.AcquireRead(100, 2).code(), StatusCode::kTxConflict);
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, ReadersShare) {
  LockManager lm(ShortTimeout());
  EXPECT_TRUE(lm.AcquireRead(100, 1).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 2).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 3).ok());
  EXPECT_EQ(lm.AcquireWrite(100, 4).code(), StatusCode::kTxConflict);
  lm.ReleaseRead(100, 1);
  lm.ReleaseRead(100, 2);
  lm.ReleaseRead(100, 3);
  EXPECT_TRUE(lm.AcquireWrite(100, 4).ok());
  lm.ReleaseWrite(100, 4);
}

TEST(LockManagerTest, WriterCanReadOwnLock) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 1).ok());
  // The read was a no-op: releasing write fully frees the key.
  lm.ReleaseWrite(100, 1);
  EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
  lm.ReleaseWrite(100, 2);
}

TEST(LockManagerTest, DistinctKeysIndependent) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireWrite(200, 2).ok());
  lm.ReleaseWrite(100, 1);
  lm.ReleaseWrite(200, 2);
}

TEST(LockManagerTest, BlockedWriterWakesOnRelease) {
  LockManager lm;  // Default (long) timeout.
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
    got = true;
    lm.ReleaseWrite(100, 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got);
  lm.ReleaseWrite(100, 1);
  waiter.join();
  EXPECT_TRUE(got);
}

TEST(LockManagerTest, DoubleReleaseTolerated) {
  LockManager lm;
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 1);
  lm.ReleaseWrite(100, 1);  // No-op.
  lm.ReleaseRead(100, 1);   // No-op.
  lm.ReleaseWrite(999, 5);  // Unknown key: no-op.
}

TEST(LockManagerTest, ReleaseByWrongTxidIgnored) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 2);  // Wrong owner.
  EXPECT_TRUE(lm.IsWriteLocked(100));
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, StatsCountBlockedAcquires) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  (void)lm.AcquireWrite(100, 2);  // Times out.
  LockStats s = lm.stats();
  EXPECT_EQ(s.write_acquires, 2u);
  EXPECT_EQ(s.blocked_acquires, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_GT(s.total_block_ns, 0u);
  lm.ReleaseWrite(100, 1);
}

// The contract the engine's helping hook relies on: the hook runs on the
// blocked thread itself, and the acquisition re-checks the lock after it.
// A hook that releases the holder's write lock therefore unblocks a read and
// a write acquirer with no other thread involved, far below the timeout.
TEST(LockManagerTest, ContentionHookReleasingHolderUnblocksAcquirer) {
  LockManager lm;  // Default (long) timeout.
  int calls = 0;
  lm.SetContentionHook([&] {
    ++calls;
    lm.ReleaseWrite(100, 1);
  });
  for (const bool write : {false, true}) {
    SCOPED_TRACE(write ? "AcquireWrite" : "AcquireRead");
    ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
    calls = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE((write ? lm.AcquireWrite(100, 2) : lm.AcquireRead(100, 2)).ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(lm.IsWriteLocked(100), write);
    if (write) {
      lm.ReleaseWrite(100, 2);
    } else {
      lm.ReleaseRead(100, 2);
    }
  }
  EXPECT_EQ(lm.stats().blocked_acquires, 2u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  lm.SetContentionHook(nullptr);
}

// A hook that cannot release the dependency changes nothing: the acquisition
// still times out with kTxConflict after calling it at least once.
TEST(LockManagerTest, ContentionHookThatDoesNothingStillTimesOut) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  std::atomic<int> calls{0};
  lm.SetContentionHook([&] { calls.fetch_add(1); });
  EXPECT_EQ(lm.AcquireRead(100, 2).code(), StatusCode::kTxConflict);
  EXPECT_EQ(lm.AcquireWrite(100, 3).code(), StatusCode::kTxConflict);
  EXPECT_GE(calls.load(), 2);
  EXPECT_EQ(lm.stats().timeouts, 2u);
  lm.SetContentionHook(nullptr);
  EXPECT_TRUE(lm.IsWriteLocked(100));
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, ManyThreadsSameKeySerialize) {
  LockManager lm;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const uint64_t txid = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i) + 1;
        ASSERT_TRUE(lm.AcquireWrite(42, txid).ok());
        ++counter;  // Protected by the lock under test.
        lm.ReleaseWrite(42, txid);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, 1600);
}

}  // namespace
}  // namespace kamino::txn
