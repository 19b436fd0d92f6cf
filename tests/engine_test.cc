// Cross-engine semantics tests: all six engine types behind the same API
// must agree on commit/abort/alloc/free behaviour (the no-logging engine
// is exempt from rollback guarantees).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

using test::CrashableSystem;

class EngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override { sys_ = CrashableSystem::Create(GetParam()); }

  bool rolls_back() const { return GetParam() != EngineType::kNoLogging; }

  uint8_t* MainAt(uint64_t off) {
    return static_cast<uint8_t*>(sys_.main_pool->At(off));
  }

  CrashableSystem sys_;
};

TEST_P(EngineTest, CommitMakesWritesVisible) {
  uint64_t off = 0;
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    Result<uint64_t> a = tx.Alloc(128);
    if (!a.ok()) {
      return a.status();
    }
    off = *a;
    Result<void*> p = tx.OpenWrite(off, 128);
    if (!p.ok()) {
      return p.status();
    }
    std::memset(*p, 0x5A, 128);
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st;
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(off)[0], 0x5A);
  EXPECT_EQ(MainAt(off)[127], 0x5A);
  EXPECT_TRUE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AbortRollsBackWrites) {
  // Commit an initial value, then modify and abort.
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    void* p = tx.OpenWrite(off, 128).value();
                    std::memset(p, 0x11, 128);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    void* p = tx.OpenWrite(off, 128).value();
    std::memset(p, 0x22, 128);
    return Status::Internal("force abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 0x11);
    EXPECT_EQ(MainAt(off)[127], 0x11);
  }
  EXPECT_EQ(sys_.mgr->engine()->stats().aborted, 1u);
}

TEST_P(EngineTest, AbortFreesAllocations) {
  uint64_t off = 0;
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    off = tx.Alloc(256).value();
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, CommittedFreeTakesEffect) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AbortedFreeHasNoEffect) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    KAMINO_RETURN_IF_ERROR(tx.Free(off));
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  EXPECT_TRUE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AllocIsZeroed) {
  uint64_t off = 0;
  // Dirty a slot, free it, re-allocate: the new object must read zero.
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    void* p = tx.OpenWrite(off, 128).value();
                    std::memset(p, 0xFF, 128);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  uint64_t off2 = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off2 = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(off2, off) << "slot should be reused";
  EXPECT_EQ(MainAt(off2)[0], 0);
  EXPECT_EQ(MainAt(off2)[127], 0);
}

TEST_P(EngineTest, MultiObjectTransactionIsAtomic) {
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    a = tx.Alloc(64).value();
                    b = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(a, 64).value(), 1, 64);
                    std::memset(tx.OpenWrite(b, 64).value(), 1, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  // Modify both, abort: both must revert.
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    std::memset(tx.OpenWrite(a, 64).value(), 2, 64);
    std::memset(tx.OpenWrite(b, 64).value(), 2, 64);
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(a)[0], 1);
    EXPECT_EQ(MainAt(b)[0], 1);
  }
}

TEST_P(EngineTest, RepeatedOpenWriteIsIdempotent) {
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    uint64_t off = tx.Alloc(64).value();
                    void* p1 = tx.OpenWrite(off, 64).value();
                    void* p2 = tx.OpenWrite(off, 64).value();
                    EXPECT_EQ(p1, p2);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
}

TEST_P(EngineTest, RootFieldUpdateInTransaction) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* root = static_cast<uint64_t*>(
                        tx.OpenWrite(sys_.heap->root_field_offset(), 8).value());
                    *root = off;
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(sys_.heap->root(), off);

  // Aborted root update reverts.
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    auto* root =
        static_cast<uint64_t*>(tx.OpenWrite(sys_.heap->root_field_offset(), 8).value());
    *root = 0xBAD;
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(sys_.heap->root(), off);
  }
}

TEST_P(EngineTest, ExplicitAbortViaHandle) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(off, 64).value(), 7, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  Result<Tx> tx = sys_.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  std::memset(tx->OpenWrite(off, 64).value(), 9, 64);
  ASSERT_TRUE(tx->Abort().ok());
  EXPECT_FALSE(tx->active());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 7);
  }
}

TEST_P(EngineTest, DroppedHandleAutoAborts) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(off, 64).value(), 7, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  {
    Result<Tx> tx = sys_.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    std::memset(tx->OpenWrite(off, 64).value(), 9, 64);
    // Handle dropped without commit.
  }
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 7);
  }
  EXPECT_EQ(sys_.mgr->engine()->stats().aborted, 1u);
}

TEST_P(EngineTest, ConflictingWritersSerialize) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Status st = sys_.mgr->RunWithRetries([&](Tx& tx) -> Status {
          Result<void*> p = tx.OpenWrite(off, 64);
          if (!p.ok()) {
            return p.status();
          }
          auto* counter = static_cast<uint64_t*>(*p);
          *counter += 1;
          return Status::Ok();
        });
        if (!st.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(MainAt(off)), kThreads * kIters);
}

TEST_P(EngineTest, ReadLockBlocksUntilApplied) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 1;
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  // Writer commits; a dependent reader must see the committed value.
  std::thread writer([&] {
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](Tx& tx) -> Status {
                      auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                      *v = 2;
                      return Status::Ok();
                    })
                    .ok());
  });
  writer.join();
  uint64_t seen = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    KAMINO_RETURN_IF_ERROR(tx.ReadLock(off));
                    seen = *reinterpret_cast<uint64_t*>(MainAt(off));
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(seen, 2u);
  sys_.mgr->WaitIdle();
}

TEST_P(EngineTest, StatsCountCommits) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](Tx& tx) -> Status {
                      uint64_t off = tx.Alloc(64).value();
                      std::memset(tx.OpenWrite(off, 64).value(), 1, 64);
                      return Status::Ok();
                    })
                    .ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(sys_.mgr->engine()->stats().committed, 5u);
}

TEST_P(EngineTest, LargeObjectTransactions) {
  // Spans (above the largest size class) must work transactionally too.
  const uint64_t kBig = 2ull << 20;
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(kBig, /*zero=*/false).value();
                    void* p = tx.OpenWrite(off, kBig).value();
                    std::memset(p, 0x3C, kBig);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(off)[0], 0x3C);
  EXPECT_EQ(MainAt(off)[kBig - 1], 0x3C);
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

// One OpenWriteBatch over every kind of span the write-intent path sorts:
// fresh, already opened, allocated in this transaction, size 0 (the whole
// object) and the same offset twice. Each span's final first byte is its
// tag; the repeated span also carries the second write made through its
// second pointer.
class OpenWriteBatchTest : public EngineTest {
 protected:
  static constexpr uint64_t kSize = 64;

  void SetUp() override {
    EngineTest::SetUp();
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](Tx& tx) -> Status {
                      for (uint64_t* off : {&a_, &b_, &c_}) {
                        Result<uint64_t> o = tx.Alloc(kSize);
                        if (!o.ok()) {
                          return o.status();
                        }
                        *off = *o;
                        std::memset(tx.OpenWrite(*off, kSize).value(), 0x11, kSize);
                      }
                      return Status::Ok();
                    })
                    .ok());
    sys_.mgr->WaitIdle();
  }

  // Opens the mixed batch in `tx`, checks every pointer against
  // Tx::OpenedPointer and writes each span's tag through it. Returns the
  // offset allocated inside the transaction.
  uint64_t OpenAndWriteMixedBatch(Tx& tx) {
    const uint64_t d = tx.Alloc(kSize).value();
    std::memset(tx.OpenWrite(b_, kSize).value(), 0xB0, kSize);
    const WriteSpan spans[] = {{a_, kSize}, {b_, kSize}, {d, kSize}, {c_, 0}, {a_, kSize}};
    void* out[5] = {};
    Status st = tx.OpenWriteBatch(spans, 5, out);
    EXPECT_TRUE(st.ok()) << st;
    if (!st.ok()) {
      return d;
    }
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(out[i], tx.OpenedPointer(spans[i].offset)) << "span " << i;
    }
    const uint8_t tags[] = {0xA1, 0xB1, 0xD1, 0xC1};
    for (size_t i = 0; i < 4; ++i) {
      std::memset(out[i], tags[i], kSize);
    }
    static_cast<uint8_t*>(out[4])[kSize - 1] = 0xA2;
    return d;
  }

  uint64_t a_ = 0;
  uint64_t b_ = 0;
  uint64_t c_ = 0;
};

TEST_P(OpenWriteBatchTest, CommitMakesEverySpanVisible) {
  uint64_t d = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    d = OpenAndWriteMixedBatch(tx);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(a_)[0], 0xA1);
  EXPECT_EQ(MainAt(a_)[kSize - 1], 0xA2);
  EXPECT_EQ(MainAt(b_)[0], 0xB1);
  EXPECT_EQ(MainAt(c_)[kSize - 1], 0xC1);
  EXPECT_EQ(MainAt(d)[0], 0xD1);
  EXPECT_TRUE(sys_.heap->allocator()->IsAllocated(d));
}

TEST_P(OpenWriteBatchTest, AbortRollsBackEverySpan) {
  uint64_t d = 0;
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    d = OpenAndWriteMixedBatch(tx);
    return Status::Internal("force abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    for (uint64_t off : {a_, b_, c_}) {
      EXPECT_EQ(MainAt(off)[0], 0x11);
      EXPECT_EQ(MainAt(off)[kSize - 1], 0x11);
    }
  }
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(d));
}

// The last span fails (size 0 at an offset that starts no allocation) after
// the first two were opened: Abort must leave no slot, write lock or backup
// pin behind.
TEST_P(OpenWriteBatchTest, FailedSpanLeavesNothingHeldAfterAbort) {
  Result<Tx> tx = sys_.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  const WriteSpan spans[] = {{a_, kSize}, {b_, kSize}, {c_ + 8, 0}};
  void* out[3] = {};
  EXPECT_EQ(tx->OpenWriteBatch(spans, 3, out).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(tx->Abort().ok());
  sys_.mgr->WaitIdle();

  EXPECT_TRUE(sys_.mgr->log()->ScanForRecovery().empty()) << "a log slot is still held";
  for (uint64_t off : {a_, b_}) {
    EXPECT_FALSE(sys_.mgr->locks()->IsWriteLocked(off));
  }
  if (GetParam() == EngineType::kKaminoDynamic) {
    auto* store = static_cast<DynamicBackupStore*>(sys_.mgr->backup_store());
    EXPECT_EQ(store->PinCount(a_), 0u);
    EXPECT_EQ(store->PinCount(b_), 0u);
  }
  // A second transaction can lock and write every span.
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& t) -> Status {
                    const WriteSpan again[] = {{a_, kSize}, {b_, kSize}};
                    void* p[2] = {};
                    KAMINO_RETURN_IF_ERROR(t.OpenWriteBatch(again, 2, p));
                    std::memset(p[0], 0x22, kSize);
                    std::memset(p[1], 0x22, kSize);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(a_)[0], 0x22);
  EXPECT_EQ(MainAt(b_)[0], 0x22);
}

std::string EngineParamName(const ::testing::TestParamInfo<EngineType>& info) {
  switch (info.param) {
    case EngineType::kKaminoSimple:
      return "KaminoSimple";
    case EngineType::kKaminoDynamic:
      return "KaminoDynamic";
    case EngineType::kUndoLog:
      return "UndoLog";
    case EngineType::kCow:
      return "Cow";
    case EngineType::kRedoLog:
      return "RedoLog";
    case EngineType::kNoLogging:
      return "NoLogging";
    default:
      return "Unknown";
  }
}

const auto kAllEngines =
    ::testing::Values(EngineType::kKaminoSimple, EngineType::kKaminoDynamic,
                      EngineType::kUndoLog, EngineType::kCow, EngineType::kRedoLog,
                      EngineType::kNoLogging);

INSTANTIATE_TEST_SUITE_P(AllEngines, OpenWriteBatchTest, kAllEngines, EngineParamName);

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest, kAllEngines, EngineParamName);

// --- Engine-specific behaviour ----------------------------------------------

TEST(CowEngineTest, WritesGoToShadowUntilCommit) {
  auto sys = CrashableSystem::Create(EngineType::kCow);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 1;
                    return Status::Ok();
                  })
                  .ok());

  Result<Tx> tx = sys.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  auto* shadow = static_cast<uint64_t*>(tx->OpenWrite(off, 64).value());
  *shadow = 99;
  // Shadow is a different location; the main copy still holds 1.
  EXPECT_NE(reinterpret_cast<uint8_t*>(shadow), sys.main_pool->At(off));
  EXPECT_EQ(*static_cast<uint64_t*>(sys.main_pool->At(off)), 1u);
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(*static_cast<uint64_t*>(sys.main_pool->At(off)), 99u);
}

TEST(KaminoEngineTest, BackupCatchesUpAfterCommit) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoSimple);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 0x1234;
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  EXPECT_EQ(*static_cast<uint64_t*>(sys.backup_pool->At(off)), 0x1234u);
}

TEST(KaminoEngineTest, LockHeldUntilApplied) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoSimple);
  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();

  engine->PauseApplier(true);
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(off, 64).value(), 1, 64);
                    return Status::Ok();
                  })
                  .ok());
  // Commit returned but the applier is frozen: the object stays locked.
  EXPECT_TRUE(sys.mgr->locks()->IsWriteLocked(off));
  engine->PauseApplier(false);
  sys.mgr->WaitIdle();
  EXPECT_FALSE(sys.mgr->locks()->IsWriteLocked(off));
}

TEST(KaminoEngineTest, DynamicMissCountsCopies) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoDynamic);
  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(1024).value();
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  const uint64_t misses_before = engine->store()->stats().ensure_misses;
  // First write after the applier-created copy exists: hit, no copy.
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(off, 1024).value(), 1, 1024);
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  EXPECT_EQ(engine->store()->stats().ensure_misses, misses_before);
}

}  // namespace
}  // namespace kamino::txn
