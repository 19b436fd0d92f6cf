// Transaction Coordinator pipeline tests: sharded applier queues under
// concurrency, dependent-transaction ordering, crash during the
// committed-but-unapplied window with multiple appliers, and the abort /
// error paths that must release pins, slots and locks.
//
// The multi-threaded cases are the ThreadSanitizer targets for the striped
// dynamic backup and the per-shard queues (see CMakePresets.json, "tsan").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

using test::CrashableSystem;

constexpr int kObjects = 32;
constexpr uint64_t kObjectSize = 64;

struct Stack {
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<TxManager> mgr;

  static Stack Make(EngineType engine, int applier_threads,
                    const std::function<void(TxManagerOptions&)>& tweak = nullptr) {
    Stack s;
    heap::HeapOptions hopts;
    hopts.pool_size = 32ull << 20;
    s.heap = std::move(heap::Heap::Create(hopts).value());
    TxManagerOptions mopts;
    mopts.engine = engine;
    mopts.applier_threads = applier_threads;
    mopts.lock.timeout_ms = 10'000;
    if (tweak) {
      tweak(mopts);
    }
    s.mgr = std::move(TxManager::Create(s.heap.get(), mopts).value());
    return s;
  }
};

std::vector<uint64_t> AllocObjects(TxManager* mgr, int count) {
  std::vector<uint64_t> offs;
  for (int i = 0; i < count; ++i) {
    Status st = mgr->Run([&](Tx& tx) -> Status {
      Result<uint64_t> a = tx.Alloc(kObjectSize);
      if (!a.ok()) {
        return a.status();
      }
      offs.push_back(*a);
      return Status::Ok();
    });
    ASSERT_CRASH(st.ok());
  }
  mgr->WaitIdle();
  return offs;
}

// Four client threads hammer a shared object set with read-modify-write
// increments while N applier shards drain concurrently. Write locks are held
// until apply, so every increment must observe its predecessor (dependent
// ordering) and the final counters must be exact — for every applier count.
void RunContendedIncrements(EngineType engine, int applier_threads) {
  Stack s = Stack::Make(engine, applier_threads);
  std::vector<uint64_t> offs = AllocObjects(s.mgr.get(), kObjects);

  constexpr int kThreads = 4;
  constexpr int kTxPerThread = 200;
  std::vector<uint64_t> hits(kObjects, 0);
  std::mutex hits_mu;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint64_t> local(kObjects, 0);
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kTxPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const int obj = static_cast<int>((state >> 33) % kObjects);
        Status st = s.mgr->RunWithRetries([&](Tx& tx) -> Status {
          Result<void*> p = tx.OpenWrite(offs[static_cast<size_t>(obj)], kObjectSize);
          if (!p.ok()) {
            return p.status();
          }
          auto* counter = static_cast<uint64_t*>(*p);
          *counter += 1;
          return Status::Ok();
        });
        ASSERT_CRASH(st.ok());
        ++local[static_cast<size_t>(obj)];
      }
      std::lock_guard<std::mutex> lk(hits_mu);
      for (int o = 0; o < kObjects; ++o) {
        hits[static_cast<size_t>(o)] += local[static_cast<size_t>(o)];
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  s.mgr->WaitIdle();

  for (int o = 0; o < kObjects; ++o) {
    const auto* counter =
        static_cast<const uint64_t*>(s.heap->pool()->At(offs[static_cast<size_t>(o)]));
    EXPECT_EQ(*counter, hits[static_cast<size_t>(o)]) << "object " << o;
  }

  // After WaitIdle every committed transaction is applied, so main and
  // backup must agree on every object — regardless of how the applies were
  // spread across shards.
  if (engine == EngineType::kKaminoSimple) {
    nvm::Pool* backup = s.mgr->backup_pool();
    ASSERT_NE(backup, nullptr);
    for (uint64_t off : offs) {
      EXPECT_EQ(std::memcmp(s.heap->pool()->At(off), backup->At(off), kObjectSize), 0);
    }
  }

  const EngineStats stats = s.mgr->engine()->stats();
  EXPECT_EQ(stats.applier_queue_depth, 0u);
  EXPECT_GT(stats.apply_batches, 0u);
  EXPECT_EQ(stats.applied, stats.committed);
  EXPECT_LE(stats.helped_apply_txns, stats.applied);
}

TEST(TxnPipelineTest, SimpleContendedIncrementsOneApplier) {
  RunContendedIncrements(EngineType::kKaminoSimple, 1);
}
TEST(TxnPipelineTest, SimpleContendedIncrementsTwoAppliers) {
  RunContendedIncrements(EngineType::kKaminoSimple, 2);
}
TEST(TxnPipelineTest, SimpleContendedIncrementsFourAppliers) {
  RunContendedIncrements(EngineType::kKaminoSimple, 4);
}
TEST(TxnPipelineTest, DynamicContendedIncrementsFourAppliers) {
  RunContendedIncrements(EngineType::kKaminoDynamic, 4);
}

// Crash while a committed transaction sits frozen in the applier queue:
// recovery must roll it forward into the backup, with multiple shards.
TEST(TxnPipelineTest, CrashDuringApplyRecoversCommitted) {
  CrashableSystem sys = CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20,
                                                0.25, /*applier_threads=*/2);
  uint64_t off = 0;
  Status st = sys.mgr->Run([&](Tx& tx) -> Status {
    Result<uint64_t> a = tx.Alloc(kObjectSize);
    if (!a.ok()) {
      return a.status();
    }
    off = *a;
    Result<void*> p = tx.OpenWrite(off, kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    static_cast<uint64_t*>(*p)[0] = 1;
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok());
  sys.heap->set_root(off);
  sys.mgr->WaitIdle();

  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  engine->PauseApplier(true);

  st = sys.mgr->Run([&](Tx& tx) -> Status {
    Result<void*> p = tx.OpenWrite(off, kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    static_cast<uint64_t*>(*p)[0] = 2;
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok());

  engine->DiscardPendingForCrashTest();
  sys.CrashAndRecover();

  off = sys.heap->root();
  EXPECT_EQ(static_cast<const uint64_t*>(sys.main_pool->At(off))[0], 2u);
  // Rolled forward during recovery: the backup mirror agrees.
  EXPECT_EQ(static_cast<const uint64_t*>(sys.backup_pool->At(off))[0], 2u);
}

// DiscardPendingForCrashTest must fix the in-flight accounting and wake
// WaitIdle callers; without that, the first WaitIdle after an unpause would
// block on transactions that no longer exist.
TEST(TxnPipelineTest, DiscardPendingUnblocksWaitIdle) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, 2);
  std::vector<uint64_t> offs = AllocObjects(s.mgr.get(), 4);

  auto* engine = static_cast<KaminoEngine*>(s.mgr->engine());
  engine->PauseApplier(true);
  for (uint64_t off : offs) {
    Status st = s.mgr->Run([&](Tx& tx) -> Status {
      Result<void*> p = tx.OpenWrite(off, kObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      static_cast<uint64_t*>(*p)[0] = 7;
      return Status::Ok();
    });
    ASSERT_TRUE(st.ok());
  }
  EXPECT_EQ(s.mgr->engine()->stats().applier_queue_depth, 4u);

  engine->DiscardPendingForCrashTest();
  EXPECT_EQ(s.mgr->engine()->stats().applier_queue_depth, 0u);
  engine->PauseApplier(false);

  auto waited = std::async(std::launch::async, [&] { s.mgr->WaitIdle(); });
  ASSERT_EQ(waited.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  // The discarded contexts' locks are intentionally leaked (the real caller
  // crashes the system next); the stack is torn down without reusing them.
}

// Blocked acquirers apply queued commits themselves, but never while the
// appliers are paused: PauseApplier must keep freezing the committed-
// unapplied window. A dependent read times out instead of helping, and
// resumes normally once the appliers are released.
TEST(TxnPipelineTest, PausedApplierFreezesHelpingReaders) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, 1,
                        [](TxManagerOptions& o) { o.lock.timeout_ms = 100; });
  std::vector<uint64_t> offs = AllocObjects(s.mgr.get(), 1);
  const uint64_t off = offs[0];

  auto* engine = static_cast<KaminoEngine*>(s.mgr->engine());
  engine->PauseApplier(true);
  Status st = s.mgr->Run([&](Tx& tx) -> Status {
    Result<void*> p = tx.OpenWrite(off, kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    static_cast<uint64_t*>(*p)[0] = 42;
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(engine->stats().applier_queue_depth, 1u);

  uint64_t seen = 0;
  auto read = [&](Tx& tx) -> Status {
    KAMINO_RETURN_IF_ERROR(tx.ReadLock(off));
    seen = static_cast<const uint64_t*>(s.heap->pool()->At(off))[0];
    return Status::Ok();
  };
  EXPECT_EQ(s.mgr->Run(read).code(), StatusCode::kTxConflict);
  EXPECT_EQ(engine->stats().applier_queue_depth, 1u);
  EXPECT_EQ(engine->stats().helped_apply_txns, 0u);

  engine->PauseApplier(false);
  ASSERT_TRUE(s.mgr->Run(read).ok());
  EXPECT_EQ(seen, 42u);
  s.mgr->WaitIdle();
  EXPECT_EQ(engine->stats().applier_queue_depth, 0u);
}

// A failed intent-log append after EnsureBackupCopy(pin=true) must drop the
// pin: the intent never existed, so Abort will not unpin it, and a leaked
// pin makes the copy unevictable forever.
TEST(TxnPipelineTest, OpenWriteAppendFailureReleasesPin) {
  Stack s = Stack::Make(EngineType::kKaminoDynamic, 1, [](TxManagerOptions& o) {
    o.log.max_records = 2;  // Third record append in one transaction fails.
  });
  std::vector<uint64_t> offs = AllocObjects(s.mgr.get(), 3);
  auto* store = static_cast<DynamicBackupStore*>(s.mgr->backup_store());
  for (uint64_t off : offs) {
    ASSERT_TRUE(store->HasCopy(off));  // Created by the applier roll-forward.
  }

  Result<Tx> tx = s.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tx->OpenWrite(offs[0], kObjectSize).ok());
  ASSERT_TRUE(tx->OpenWrite(offs[1], kObjectSize).ok());
  Result<void*> third = tx->OpenWrite(offs[2], kObjectSize);
  ASSERT_FALSE(third.ok());
  // The pin taken for the failed append must already be gone — only the two
  // successful opens hold pins.
  EXPECT_EQ(store->PinCount(offs[2]), 0u) << "pin leaked by the failed OpenWrite";
  EXPECT_EQ(store->PinCount(offs[0]), 1u);
  EXPECT_EQ(store->PinCount(offs[1]), 1u);
  (void)tx->Abort();
  s.mgr->WaitIdle();

  EXPECT_EQ(store->PinCount(offs[0]), 0u);
  EXPECT_EQ(store->PinCount(offs[1]), 0u);
  EXPECT_EQ(store->PinCount(offs[2]), 0u);
}

// When RestoreToMain fails mid-abort (chain replicas have no local backup),
// the abort must still release the log slot and every write lock — an early
// return here used to wedge all dependent transactions and, with enough
// failed aborts, exhaust the slot pool.
TEST(TxnPipelineTest, FailedAbortReleasesSlotAndLocks) {
  Stack s = Stack::Make(EngineType::kChainReplica, 1, [](TxManagerOptions& o) {
    o.log.num_slots = 2;  // A leaked slot shows up after two failed aborts.
    o.lock.timeout_ms = 500;
  });
  std::vector<uint64_t> offs = AllocObjects(s.mgr.get(), 1);

  for (int i = 0; i < 4; ++i) {
    Result<Tx> tx = s.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    Result<void*> p = tx->OpenWrite(offs[0], kObjectSize);
    ASSERT_TRUE(p.ok());
    static_cast<uint64_t*>(*p)[0] = static_cast<uint64_t>(i);
    Status st = tx->Abort();
    EXPECT_FALSE(st.ok()) << "chain replica rollback is expected to fail";
  }

  // Lock and slot are free again: a normal transaction on the same object
  // must succeed well within the 500 ms lock timeout.
  Status st = s.mgr->Run([&](Tx& tx) -> Status {
    Result<void*> p = tx.OpenWrite(offs[0], kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    static_cast<uint64_t*>(*p)[0] = 99;
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  s.mgr->WaitIdle();
}

}  // namespace
}  // namespace kamino::txn
