// ShardedStore: routing invariants, stats isolation, scan merge, restart
// stability, topology enforcement, cross-shard MultiUpdate and partial open.

#include "src/shard/sharded_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/nvm/pool.h"

namespace kamino {
namespace {

using shard::ShardedStore;
using shard::ShardedStoreOptions;

// A sharded store whose pools outlive the store, so tests can tear it down
// and re-open ("restart the process") or corrupt a shard in between.
struct ShardedSystem {
  std::vector<std::unique_ptr<nvm::Pool>> mains;
  std::vector<std::unique_ptr<nvm::Pool>> backups;
  ShardedStoreOptions opts;
  std::unique_ptr<ShardedStore> store;

  static ShardedSystem Create(int num_shards, uint64_t pool_size = 32ull << 20) {
    ShardedSystem sys;
    sys.opts.num_shards = num_shards;
    sys.opts.log_region_size = 4ull << 20;
    sys.opts.lock.timeout_ms = 2000;
    for (int i = 0; i < num_shards; ++i) {
      nvm::PoolOptions popts;
      popts.size = pool_size;
      popts.crash_sim = true;
      popts.site_prefix = "shard" + std::to_string(i);
      sys.mains.push_back(std::move(nvm::Pool::Create(popts).value()));
      sys.backups.push_back(std::move(nvm::Pool::Create(popts).value()));
      sys.opts.external_pools.push_back(
          {sys.mains.back().get(), sys.backups.back().get()});
    }
    sys.store = std::move(ShardedStore::Create(sys.opts).value());
    return sys;
  }

  // Clean restart: quiesce, drop the store, re-open on the same pools.
  void Restart() {
    store->WaitIdle();
    store.reset();
    Result<std::unique_ptr<ShardedStore>> reopened = ShardedStore::Open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    store = std::move(*reopened);
  }
};

uint64_t KeyOnShard(const ShardedStore& store, size_t shard, uint64_t from = 0) {
  for (uint64_t k = from;; ++k) {
    if (store.ShardOf(k) == shard) {
      return k;
    }
  }
}

TEST(ShardedStoreTest, CrudRoutesAcrossAllShards) {
  ShardedSystem sys = ShardedSystem::Create(4);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(sys.store->Insert(k, "v" + std::to_string(k)).ok());
  }
  // splitmix64 routing spreads dense keys over every shard.
  std::set<size_t> hit;
  for (uint64_t k = 0; k < 200; ++k) {
    hit.insert(sys.store->ShardOf(k));
  }
  EXPECT_EQ(hit.size(), 4u);

  for (uint64_t k = 0; k < 200; ++k) {
    Result<std::string> v = sys.store->Read(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  ASSERT_TRUE(sys.store->Update(7, "updated").ok());
  EXPECT_EQ(*sys.store->Read(7), "updated");
  ASSERT_TRUE(sys.store->Delete(8).ok());
  EXPECT_FALSE(sys.store->Read(8).ok());
  EXPECT_FALSE(sys.store->Insert(7, "dup").ok());
  ASSERT_TRUE(sys.store->Upsert(8, "back").ok());
  EXPECT_EQ(*sys.store->Read(8), "back");
}

TEST(ShardedStoreTest, SingleKeyOpsTouchOnlyTheirShard) {
  ShardedSystem sys = ShardedSystem::Create(4);
  const uint64_t key = KeyOnShard(*sys.store, 2);
  std::vector<uint64_t> before;
  for (int i = 0; i < 4; ++i) {
    before.push_back(sys.store->ShardStats(i).committed);
  }
  ASSERT_TRUE(sys.store->Insert(key, "x").ok());
  ASSERT_TRUE(sys.store->Update(key, "y").ok());
  ASSERT_TRUE(sys.store->Read(key).ok());
  for (int i = 0; i < 4; ++i) {
    const uint64_t delta = sys.store->ShardStats(i).committed - before[i];
    if (i == 2) {
      EXPECT_GT(delta, 0u) << "owning shard saw no transactions";
    } else {
      EXPECT_EQ(delta, 0u) << "shard " << i << " touched by another shard's op";
    }
  }
}

TEST(ShardedStoreTest, ScanMergesGloballySorted) {
  ShardedSystem sys = ShardedSystem::Create(4);
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(sys.store->Insert(k * 3, "s" + std::to_string(k * 3)).ok());
  }
  // Scan reads each shard's backup cut, which may lag acknowledged inserts
  // by the apply lag; settle the appliers before asserting presence.
  sys.store->WaitIdle();
  Result<std::vector<std::pair<uint64_t, std::string>>> scan = sys.store->Scan(30, 20);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 20u);
  for (size_t i = 0; i < scan->size(); ++i) {
    EXPECT_EQ((*scan)[i].first, 30 + 3 * i);
    EXPECT_EQ((*scan)[i].second, "s" + std::to_string(30 + 3 * i));
  }
  // Tail truncation: ask past the end.
  Result<std::vector<std::pair<uint64_t, std::string>>> tail = sys.store->Scan(3 * 95, 50);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 5u);
}

// Scan's documented contract: it reads per-shard backup cuts, so it may lag
// acknowledged commits by the apply lag. An insert frozen behind paused
// appliers is acknowledged yet absent; once applied it is present.
TEST(ShardedStoreTest, ScanLagsAcknowledgedInsertsByTheApplyLag) {
  ShardedSystem sys = ShardedSystem::Create(2);
  ASSERT_TRUE(sys.store->Insert(10, "a").ok());
  sys.store->WaitIdle();
  sys.store->PauseAppliers(true);
  ASSERT_TRUE(sys.store->Insert(11, "b").ok());  // Acknowledged, not applied.
  Result<std::vector<std::pair<uint64_t, std::string>>> lagging = sys.store->Scan(0, 10);
  ASSERT_TRUE(lagging.ok()) << lagging.status().message();
  ASSERT_EQ(lagging->size(), 1u);
  EXPECT_EQ((*lagging)[0].first, 10u);

  sys.store->PauseAppliers(false);
  sys.store->WaitIdle();
  Result<std::vector<std::pair<uint64_t, std::string>>> settled = sys.store->Scan(0, 10);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  ASSERT_EQ(settled->size(), 2u);
  EXPECT_EQ((*settled)[1].first, 11u);
  EXPECT_EQ((*settled)[1].second, "b");
}

TEST(ShardedStoreTest, RestartKeepsRoutingAndData) {
  ShardedSystem sys = ShardedSystem::Create(3);
  std::vector<size_t> route_before;
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(sys.store->Insert(k, "r" + std::to_string(k)).ok());
    route_before.push_back(sys.store->ShardOf(k));
  }
  sys.Restart();
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(sys.store->ShardOf(k), route_before[k]) << "routing changed across restart";
    Result<std::string> v = sys.store->Read(k);
    ASSERT_TRUE(v.ok()) << v.status().message();
    EXPECT_EQ(*v, "r" + std::to_string(k));
  }
}

TEST(ShardedStoreTest, RefusesShardCountMismatch) {
  ShardedSystem sys = ShardedSystem::Create(4);
  ASSERT_TRUE(sys.store->Insert(1, "x").ok());
  sys.store->WaitIdle();
  sys.store.reset();

  // Same pools, wrong topology: the persisted anchors say 4 shards.
  ShardedStoreOptions wrong = sys.opts;
  wrong.num_shards = 2;
  wrong.external_pools = {sys.opts.external_pools[0], sys.opts.external_pools[1]};
  Result<std::unique_ptr<ShardedStore>> reopened = ShardedStore::Open(wrong);
  EXPECT_FALSE(reopened.ok());

  // Pools permuted: each anchor records its shard index.
  ShardedStoreOptions swapped = sys.opts;
  std::swap(swapped.external_pools[0], swapped.external_pools[3]);
  reopened = ShardedStore::Open(swapped);
  EXPECT_FALSE(reopened.ok());

  // Unchanged topology still opens.
  reopened = ShardedStore::Open(sys.opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(*(*reopened)->Read(1), "x");
}

TEST(ShardedStoreTest, MultiUpdateSingleShardSkips2pc) {
  ShardedSystem sys = ShardedSystem::Create(4);
  const uint64_t a = KeyOnShard(*sys.store, 1);
  const uint64_t b = KeyOnShard(*sys.store, 1, a + 1);
  ASSERT_TRUE(sys.store->Insert(a, "0").ok());
  ASSERT_TRUE(sys.store->Insert(b, "0").ok());
  ASSERT_TRUE(sys.store->MultiUpdate({{a, "1"}, {b, "1"}}).ok());
  EXPECT_EQ(*sys.store->Read(a), "1");
  EXPECT_EQ(*sys.store->Read(b), "1");
  const ShardedStore::CrossShardStats stats = sys.store->cross_shard_stats();
  EXPECT_EQ(stats.single_shard_multi_updates, 1u);
  EXPECT_EQ(stats.cross_shard_commits, 0u);
}

TEST(ShardedStoreTest, MultiUpdateCrossShardCommitsAtomically) {
  ShardedSystem sys = ShardedSystem::Create(4);
  const uint64_t a = KeyOnShard(*sys.store, 0);
  const uint64_t b = KeyOnShard(*sys.store, 2);
  const uint64_t c = KeyOnShard(*sys.store, 3);
  for (uint64_t k : {a, b, c}) {
    ASSERT_TRUE(sys.store->Insert(k, "init").ok());
  }
  ASSERT_TRUE(sys.store->MultiUpdate({{a, "gen1"}, {b, "gen1"}, {c, "gen1"}}).ok());
  for (uint64_t k : {a, b, c}) {
    EXPECT_EQ(*sys.store->Read(k), "gen1");
  }
  EXPECT_EQ(sys.store->cross_shard_stats().cross_shard_commits, 1u);

  // A missing key aborts the whole batch on every shard.
  Status st = sys.store->MultiUpdate({{a, "gen2"}, {999999, "gen2"}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(*sys.store->Read(a), "gen1");

  // And the data survives a restart (prepared slots fully resolved).
  sys.Restart();
  for (uint64_t k : {a, b, c}) {
    EXPECT_EQ(*sys.store->Read(k), "gen1");
  }
}

TEST(ShardedStoreTest, ConcurrentCrossShardMultiUpdates) {
  ShardedSystem sys = ShardedSystem::Create(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  // Each thread owns a disjoint triple of keys spanning >= 2 shards and
  // atomically writes the same generation string to all three.
  std::vector<std::vector<uint64_t>> keys(kThreads);
  uint64_t next = 0;
  for (int t = 0; t < kThreads; ++t) {
    keys[t].push_back(KeyOnShard(*sys.store, 0, next));
    keys[t].push_back(KeyOnShard(*sys.store, 1, keys[t][0] + 1));
    keys[t].push_back(KeyOnShard(*sys.store, 2, keys[t][1] + 1));
    next = keys[t][2] + 1;
    for (uint64_t k : keys[t]) {
      ASSERT_TRUE(sys.store->Insert(k, "g0").ok());
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kIters; ++i) {
        const std::string gen = "g" + std::to_string(i);
        Status st = sys.store->MultiUpdate(
            {{keys[t][0], gen}, {keys[t][1], gen}, {keys[t][2], gen}});
        ASSERT_TRUE(st.ok()) << st.message();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const std::string want = "g" + std::to_string(kIters);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t k : keys[t]) {
      EXPECT_EQ(*sys.store->Read(k), want);
    }
  }
  EXPECT_GE(sys.store->cross_shard_stats().cross_shard_commits,
            static_cast<uint64_t>(kThreads * kIters));
}

TEST(ShardedStoreTest, SnapshotScanReturnsPerShardEpochVector) {
  ShardedSystem sys = ShardedSystem::Create(3);
  for (uint64_t k = 0; k < 120; ++k) {
    ASSERT_TRUE(sys.store->Insert(k, "v" + std::to_string(k)).ok());
  }
  sys.store->WaitIdle();
  std::vector<uint64_t> epochs;
  Result<std::vector<std::pair<uint64_t, std::string>>> snap =
      sys.store->SnapshotScan(0, 120, &epochs);
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  ASSERT_EQ(epochs.size(), 3u);
  for (uint64_t e : epochs) {
    EXPECT_GT(e, 0u);  // Every shard took writes (splitmix64 routing).
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> main =
      sys.store->Scan(0, 120);
  ASSERT_TRUE(main.ok());
  EXPECT_EQ(*snap, *main);
}

// Scan routes through the per-shard epoch cut when every shard supports it:
// a pair of keys on the SAME shard, always written atomically in one
// transaction, can never show up torn in a concurrent global scan.
TEST(ShardedStoreTest, ScanNeverObservesTornSameShardPair) {
  ShardedSystem sys = ShardedSystem::Create(2);
  constexpr int kPairsPerShard = 8;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  uint64_t next = 0;
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < kPairsPerShard; ++p) {
      const uint64_t a = KeyOnShard(*sys.store, s, next);
      const uint64_t b = KeyOnShard(*sys.store, s, a + 1);
      next = b + 1;
      pairs.emplace_back(a, b);
      ASSERT_TRUE(sys.store->Insert(a, "g0").ok());
      ASSERT_TRUE(sys.store->Insert(b, "g0").ok());
    }
  }
  // Every pair must be in the cut before the first scan (Scan may lag
  // acknowledged inserts by the apply lag); the writer only updates them.
  sys.store->WaitIdle();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t gen = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& [a, b] : pairs) {
        const std::string v = "g" + std::to_string(gen);
        ASSERT_TRUE(sys.store->MultiUpdate({{a, v}, {b, v}}).ok());
      }
      ++gen;
    }
  });
  for (int round = 0; round < 25; ++round) {
    Result<std::vector<std::pair<uint64_t, std::string>>> rows =
        sys.store->Scan(0, 4 * kPairsPerShard);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    std::map<uint64_t, std::string> by_key(rows->begin(), rows->end());
    for (const auto& [a, b] : pairs) {
      ASSERT_TRUE(by_key.count(a) && by_key.count(b));
      EXPECT_EQ(by_key[a], by_key[b]) << "torn pair (" << a << "," << b << ")";
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ShardedStoreTest, PartialOpenSurvivesOneBadShard) {
  ShardedSystem sys = ShardedSystem::Create(3);
  std::vector<uint64_t> keys;
  for (int s = 0; s < 3; ++s) {
    keys.push_back(KeyOnShard(*sys.store, s));
    ASSERT_TRUE(sys.store->Insert(keys.back(), "p" + std::to_string(s)).ok());
  }
  sys.store->WaitIdle();
  sys.store.reset();

  // Smash shard 1's heap superblock magic; its attach must fail.
  nvm::Pool* bad = sys.mains[1].get();
  *static_cast<uint64_t*>(bad->At(0)) = 0xDEADBEEFDEADBEEFull;
  bad->Persist(bad->At(0), sizeof(uint64_t));

  // Strict open fails outright...
  EXPECT_FALSE(ShardedStore::Open(sys.opts).ok());

  // ...partial open serves the healthy shards and fences the broken one.
  ShardedStoreOptions partial = sys.opts;
  partial.allow_partial_open = true;
  Result<std::unique_ptr<ShardedStore>> reopened = ShardedStore::Open(partial);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ShardedStore* store = reopened->get();
  EXPECT_TRUE(store->shard_available(0));
  EXPECT_FALSE(store->shard_available(1));
  EXPECT_TRUE(store->shard_available(2));
  EXPECT_FALSE(store->shard_status(1).ok());

  EXPECT_EQ(*store->Read(keys[0]), "p0");
  EXPECT_EQ(*store->Read(keys[2]), "p2");
  Result<std::string> gone = store->Read(keys[1]);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kUnavailable);
  // Global reads refuse to silently drop a shard.
  EXPECT_FALSE(store->Scan(0, 10).ok());
  // Writes to healthy shards still work.
  EXPECT_TRUE(store->Update(keys[0], "p0b").ok());
}

}  // namespace
}  // namespace kamino
