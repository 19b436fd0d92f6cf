#include "src/targets.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "src/chain/chain.h"
#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/pds/bplus_tree.h"
#include "src/shard/sharded_store.h"
#include "src/txn/tx_manager.h"

namespace perfbench {
namespace {

using kamino::StatusCode;
namespace txn = kamino::txn;

// A 1 KB value is a 1028-byte blob, which the allocator serves from its
// 2 KB size class.
constexpr uint64_t kObjectBytes = 2048;

// TxManager::RunWithRetries' attempt budget.
constexpr int kMaxAttempts = 8;

// TxManager::RunWithRetries with each part in its own span: Begin, the body
// (named `body_name`), then Commit or Abort.
template <typename Body>
Status TracedRun(txn::TxManager* mgr, SpanBuffer* tr, SpanName body_name, Body&& body) {
  Status st = Status::Internal("TracedRun: zero attempts");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Result<txn::Tx> tx = [&] {
      ScopedSpan s(tr, kTxnBegin);
      return mgr->Begin();
    }();
    if (!tx.ok()) {
      return tx.status();
    }
    {
      ScopedSpan s(tr, body_name);
      st = body(*tx);
    }
    if (tx->active()) {
      if (st.ok()) {
        ScopedSpan s(tr, kTxnCommit);
        st = tx->Commit();
      } else {
        ScopedSpan s(tr, kTxnAbort);
        (void)tx->Abort();
      }
    }
    if (st.code() != StatusCode::kTxConflict) {
      return st;
    }
  }
  return st;
}

std::shared_lock<std::shared_mutex> TracedSharedGuard(kamino::pds::BPlusTree* tree,
                                                      SpanBuffer* tr) {
  ScopedSpan s(tr, kPdsTreeGuard);
  return tree->LockShared();
}

// --- KvStore ops: the public call, or its parts when traced ----------------

Status KvRead(kamino::kv::KvStore* store, uint64_t key, std::string* out, SpanBuffer* tr) {
  if (tr == nullptr) {
    Result<std::string> r = store->Read(key);
    if (!r.ok()) {
      return r.status();
    }
    *out = std::move(*r);
    return Status::Ok();
  }
  kamino::pds::BPlusTree* tree = store->tree();
  auto guard = TracedSharedGuard(tree, tr);
  return TracedRun(store->manager(), tr, kPdsGet, [&](txn::Tx& tx) -> Status {
    Result<std::string> v = tree->GetInTx(tx, key);
    if (!v.ok()) {
      return v.status();
    }
    *out = std::move(*v);
    return Status::Ok();
  });
}

Status KvUpdate(kamino::kv::KvStore* store, uint64_t key, std::string_view value,
                SpanBuffer* tr) {
  if (tr == nullptr) {
    return store->Update(key, value);
  }
  kamino::pds::BPlusTree* tree = store->tree();
  {
    auto guard = TracedSharedGuard(tree, tr);
    Status st = TracedRun(store->manager(), tr, kPdsUpdate,
                          [&](txn::Tx& tx) { return tree->UpdateInTx(tx, key, value); });
    if (st.code() != StatusCode::kNotSupported) {
      return st;
    }
  }
  // The blob must grow: BPlusTree::Update's structural path. Values here
  // have a fixed size, so this is never taken.
  return store->Update(key, value);
}

Status KvInsert(kamino::kv::KvStore* store, uint64_t key, std::string_view value,
                SpanBuffer* tr) {
  if (tr == nullptr) {
    return store->Insert(key, value);
  }
  kamino::pds::BPlusTree* tree = store->tree();
  std::unique_lock<std::shared_mutex> guard = [&] {
    ScopedSpan s(tr, kPdsTreeGuard);
    return tree->LockExclusive();
  }();
  return TracedRun(store->manager(), tr, kPdsInsert,
                   [&](txn::Tx& tx) { return tree->InsertInTx(tx, key, value); });
}

Status KvScan(kamino::kv::KvStore* store, uint64_t start, size_t limit, Pairs* out,
              SpanBuffer* tr) {
  if (tr == nullptr) {
    Result<Pairs> r = store->Scan(start, limit);
    if (!r.ok()) {
      return r.status();
    }
    *out = std::move(*r);
    return Status::Ok();
  }
  kamino::pds::BPlusTree* tree = store->tree();
  auto guard = TracedSharedGuard(tree, tr);
  return TracedRun(store->manager(), tr, kPdsScan, [&](txn::Tx& tx) -> Status {
    Result<Pairs> r = tree->ScanInTx(tx, start, limit);
    if (!r.ok()) {
      return r.status();
    }
    *out = std::move(*r);
    tr->AddItems(out->size());
    return Status::Ok();
  });
}

Status KvSnapshotScan(kamino::kv::KvStore* store, uint64_t start, size_t limit, Pairs* out,
                      SpanBuffer* tr) {
  if (tr == nullptr) {
    Result<Pairs> r = store->SnapshotScan(start, limit);
    if (!r.ok()) {
      return r.status();
    }
    *out = std::move(*r);
    return Status::Ok();
  }
  txn::BackupStore* backup = store->manager()->backup_store();
  if (backup == nullptr) {
    return Status::NotSupported("engine has no backup store");
  }
  store->manager()->WaitForRecovery();
  Result<txn::BackupStore::SnapshotView> view = [&] {
    ScopedSpan s(tr, kBackupOpenSnapshot);
    return backup->OpenSnapshot();
  }();
  if (!view.ok()) {
    return view.status();
  }
  Result<Pairs> r = [&] {
    ScopedSpan s(tr, kPdsSnapshotScan);
    Result<Pairs> scanned = store->tree()->SnapshotScan(*view, start, limit);
    if (scanned.ok()) {
      s.AddItems(scanned->size());
    }
    return scanned;
  }();
  {
    ScopedSpan s(tr, kBackupReleaseSnapshot);
    view->Release();
  }
  if (!r.ok()) {
    return r.status();
  }
  *out = std::move(*r);
  return Status::Ok();
}

// --- Counters ----------------------------------------------------------------

std::string Dotted(std::string site) {
  std::replace(site.begin(), site.end(), '/', '.');
  return site;
}

void GaugeMax(Snapshot* s, const std::string& name, double v) {
  auto [it, inserted] = s->gauges.emplace(name, v);
  if (!inserted) {
    it->second = std::max(it->second, v);
  }
}

// Adds one TxManager's layers (main and backup pool, lock table, intent log,
// engine, backup store) into `s`, summing across managers.
void AddManager(txn::TxManager* mgr, Snapshot* s) {
  auto add = [s](const std::string& name, double v) { s->counters[name] += v; };
  kamino::nvm::Pool* main = mgr->heap()->pool();
  const kamino::nvm::PoolStats p = main->stats();
  add("nvm.main.lines", static_cast<double>(p.lines_flushed));
  add("nvm.main.drains", static_cast<double>(p.drain_calls));
  for (const kamino::nvm::PoolSiteStats& site : main->site_stats()) {
    add("nvm.main.site_drains." + Dotted(site.site), static_cast<double>(site.drain_calls));
  }
  if (kamino::nvm::Pool* backup = mgr->backup_pool(); backup != nullptr) {
    const kamino::nvm::PoolStats b = backup->stats();
    add("nvm.backup.lines", static_cast<double>(b.lines_flushed));
  }

  const txn::LockStats l = mgr->locks()->stats();
  add("lock.acquires", static_cast<double>(l.read_acquires + l.write_acquires));
  add("lock.blocked", static_cast<double>(l.blocked_acquires));
  add("lock.timeouts", static_cast<double>(l.timeouts));
  add("lock.block_ns", static_cast<double>(l.total_block_ns));

  const txn::LogStats g = mgr->log()->stats();
  add("log.blocked", static_cast<double>(g.blocked_acquires));
  add("log.blocked_ns", static_cast<double>(g.blocked_wait_ns));
  add("log.group_commits", static_cast<double>(g.group_commit_commits));
  add("log.leader_drains", static_cast<double>(g.group_commit_leader_drains));

  const txn::EngineStats e = mgr->engine()->stats();
  add("engine.committed", static_cast<double>(e.committed));
  add("engine.applied", static_cast<double>(e.applied));
  add("engine.apply_batches", static_cast<double>(e.apply_batches));
  GaugeMax(s, "engine.apply_lag_p50_ns", static_cast<double>(e.apply_lag_p50_ns));
  GaugeMax(s, "engine.apply_lag_p99_ns", static_cast<double>(e.apply_lag_p99_ns));

  if (txn::BackupStore* bs = mgr->backup_store(); bs != nullptr) {
    const txn::BackupStats b = bs->stats();
    add("backup.ensure_hits", static_cast<double>(b.ensure_hits));
    add("backup.ensure_misses", static_cast<double>(b.ensure_misses));
    add("backup.evictions", static_cast<double>(b.evictions));
    add("backup.read_hits", static_cast<double>(b.read_hits));
    add("backup.read_misses", static_cast<double>(b.read_misses));
    add("backup.snapshot_views", static_cast<double>(b.snapshot_views));
    add("backup.cut_wait_ns", static_cast<double>(b.cut_fence_wait_ns));
  }

  const txn::TxManager::Footprint f = mgr->footprint();
  s->gauges["heap.main_bytes"] += static_cast<double>(f.main_bytes);
  s->gauges["heap.backup_bytes"] += static_cast<double>(f.backup_bytes);
}

std::string TxOptionsString(const txn::TxManagerOptions& m) {
  std::ostringstream os;
  os << "engine=" << txn::EngineTypeName(m.engine) << " applier_threads=" << m.applier_threads
     << " log.num_slots=" << m.log.num_slots << " log.slot_size=" << m.log.slot_size
     << " log.epoch_commit=" << m.log.epoch_commit
     << " log.group_commit_window_ns=" << m.log.group_commit_window_ns
     << " lock.timeout_ms=" << m.lock.timeout_ms;
  return os.str();
}

// --- KvStore -------------------------------------------------------------------

class KvTarget final : public Target {
 public:
  static Result<std::unique_ptr<Target>> Make(const TargetConfig& c) {
    auto t = std::unique_ptr<KvTarget>(new KvTarget());
    kamino::heap::HeapOptions h;
    const uint64_t objects = c.nkeys + c.insert_headroom;
    // Objects plus tree nodes (one 512 B node per ~15 keys) and slack.
    h.pool_size = objects * kObjectBytes + objects * 64 + (64ull << 20);
    h.flush_latency_ns = c.cost.flush_ns;
    h.drain_latency_ns = c.cost.drain_ns;
    Result<std::unique_ptr<kamino::heap::Heap>> heap = kamino::heap::Heap::Create(h);
    if (!heap.ok()) {
      return heap.status();
    }
    t->heap_ = std::move(*heap);

    txn::TxManagerOptions m;
    m.engine = c.engine;
    m.backup_flush_latency_ns = c.cost.flush_ns;
    m.backup_drain_latency_ns = c.cost.drain_ns;
    if (c.engine == txn::EngineType::kKaminoDynamic) {
      // TxManagerOptions::alpha is a fraction of the heap's object capacity;
      // convert so the budget is alpha x the loaded data.
      const double capacity =
          static_cast<double>(t->heap_->allocator()->stats().capacity);
      t->budget_bytes_ = c.alpha * static_cast<double>(c.nkeys * kObjectBytes);
      m.alpha = t->budget_bytes_ / capacity;
    }
    Result<std::unique_ptr<txn::TxManager>> mgr = txn::TxManager::Create(t->heap_.get(), m);
    if (!mgr.ok()) {
      return mgr.status();
    }
    t->mgr_ = std::move(*mgr);
    Result<std::unique_ptr<kamino::kv::KvStore>> store =
        kamino::kv::KvStore::Create(t->mgr_.get());
    if (!store.ok()) {
      return store.status();
    }
    t->store_ = std::move(*store);

    std::ostringstream os;
    os << "KvStore " << TxOptionsString(m) << " heap.pool_size=" << h.pool_size
       << " heap.log_region_size=" << h.log_region_size;
    if (c.engine == txn::EngineType::kKaminoDynamic) {
      os << " alpha(of loaded data)=" << c.alpha << " alpha(of heap capacity)=" << m.alpha
         << " backup_budget_bytes=" << static_cast<uint64_t>(t->budget_bytes_)
         << " dynamic_lookup_buckets=" << m.dynamic_lookup_buckets;
    }
    t->options_ = os.str();
    return std::unique_ptr<Target>(std::move(t));
  }

  Status Read(uint64_t key, std::string* out, SpanBuffer* tr) override {
    return KvRead(store_.get(), key, out, tr);
  }
  Status Upsert(uint64_t key, std::string_view value, SpanBuffer*) override {
    return store_->Upsert(key, value);
  }
  Status Update(uint64_t key, std::string_view value, SpanBuffer* tr) override {
    return KvUpdate(store_.get(), key, value, tr);
  }
  Status Insert(uint64_t key, std::string_view value, SpanBuffer* tr) override {
    return KvInsert(store_.get(), key, value, tr);
  }
  Status Scan(uint64_t start, size_t limit, Pairs* out, SpanBuffer* tr) override {
    return KvScan(store_.get(), start, limit, out, tr);
  }
  Status SnapshotScan(uint64_t start, size_t limit, Pairs* out, SpanBuffer* tr) override {
    return KvSnapshotScan(store_.get(), start, limit, out, tr);
  }

  Status Settle() override {
    mgr_->WaitIdle();
    return Status::Ok();
  }
  Snapshot Counters() override {
    Snapshot s;
    AddManager(mgr_.get(), &s);
    return s;
  }
  Status CheckStructure(uint64_t expected_keys) override {
    KAMINO_RETURN_IF_ERROR(store_->tree()->Validate());
    const uint64_t n = store_->tree()->CountSlow();
    if (n != expected_keys) {
      return Status::Corruption("tree holds " + std::to_string(n) + " keys, expected " +
                                std::to_string(expected_keys));
    }
    return Status::Ok();
  }
  uint64_t NvmBytes() override {
    const txn::TxManager::Footprint f = mgr_->footprint();
    return f.main_bytes + f.backup_bytes;
  }
  uint64_t TreeHeight() override { return store_->tree()->Stats().height; }
  std::string Options() const override { return options_; }

 private:
  KvTarget() = default;

  std::unique_ptr<kamino::heap::Heap> heap_;
  std::unique_ptr<txn::TxManager> mgr_;
  std::unique_ptr<kamino::kv::KvStore> store_;
  double budget_bytes_ = 0;
  std::string options_;
};

// --- ShardedStore --------------------------------------------------------------

class ShardTarget final : public Target {
 public:
  static Result<std::unique_ptr<Target>> Make(const TargetConfig& c) {
    auto t = std::unique_ptr<ShardTarget>(new ShardTarget());
    kamino::shard::ShardedStoreOptions o;
    o.num_shards = c.shards;
    o.engine = c.engine;
    o.flush_latency_ns = c.cost.flush_ns;
    o.drain_latency_ns = c.cost.drain_ns;
    o.backup_flush_latency_ns = c.cost.flush_ns;
    o.backup_drain_latency_ns = c.cost.drain_ns;
    Result<std::unique_ptr<kamino::shard::ShardedStore>> store =
        kamino::shard::ShardedStore::Create(o);
    if (!store.ok()) {
      return store.status();
    }
    t->store_ = std::move(*store);
    std::ostringstream os;
    os << "ShardedStore num_shards=" << o.num_shards
       << " engine=" << txn::EngineTypeName(o.engine) << " applier_threads=" << o.applier_threads
       << " log.num_slots=" << o.log.num_slots << " log.slot_size=" << o.log.slot_size
       << " log.epoch_commit=" << o.log.epoch_commit << " lock.timeout_ms=" << o.lock.timeout_ms
       << " pool_size=" << o.pool_size << " log_region_size=" << o.log_region_size;
    t->options_ = os.str();
    return std::unique_ptr<Target>(std::move(t));
  }

  Status Read(uint64_t key, std::string* out, SpanBuffer* tr) override {
    if (tr == nullptr) {
      Result<std::string> r = store_->Read(key);
      if (!r.ok()) {
        return r.status();
      }
      *out = std::move(*r);
      return Status::Ok();
    }
    ScopedSpan single(tr, kShardSingle);
    kamino::kv::KvStore* shard = nullptr;
    KAMINO_RETURN_IF_ERROR(Route(key, tr, &shard));
    return KvRead(shard, key, out, tr);
  }
  Status Upsert(uint64_t key, std::string_view value, SpanBuffer*) override {
    return store_->Upsert(key, value);
  }
  Status Update(uint64_t key, std::string_view value, SpanBuffer* tr) override {
    if (tr == nullptr) {
      return store_->Update(key, value);
    }
    ScopedSpan single(tr, kShardSingle);
    kamino::kv::KvStore* shard = nullptr;
    KAMINO_RETURN_IF_ERROR(Route(key, tr, &shard));
    return KvUpdate(shard, key, value, tr);
  }
  Status MultiUpdate(const Pairs& writes, SpanBuffer* tr) override {
    ScopedSpan multi(tr, kShardMulti);
    return store_->MultiUpdate(writes);
  }

  Status Settle() override {
    store_->WaitIdle();
    return Status::Ok();
  }
  Snapshot Counters() override {
    Snapshot s;
    for (int i = 0; i < store_->num_shards(); ++i) {
      AddManager(store_->shard_manager(static_cast<size_t>(i)), &s);
      s.counters["shard." + std::to_string(i) + ".committed"] =
          static_cast<double>(store_->ShardStats(static_cast<size_t>(i)).committed);
    }
    const kamino::shard::ShardedStore::CrossShardStats x = store_->cross_shard_stats();
    s.counters["shard.cross_commits"] = static_cast<double>(x.cross_shard_commits);
    s.counters["shard.cross_aborts"] = static_cast<double>(x.cross_shard_aborts);
    s.gauges["shard.count"] = static_cast<double>(store_->num_shards());
    return s;
  }
  Status CheckStructure(uint64_t expected_keys) override {
    uint64_t total = 0;
    for (int i = 0; i < store_->num_shards(); ++i) {
      kamino::pds::BPlusTree* tree = store_->shard_store(static_cast<size_t>(i))->tree();
      Status st = tree->Validate();
      if (!st.ok()) {
        return Status::Corruption("shard " + std::to_string(i) + ": " + st.ToString());
      }
      total += tree->CountSlow();
    }
    if (total != expected_keys) {
      return Status::Corruption("shards hold " + std::to_string(total) + " keys, expected " +
                                std::to_string(expected_keys));
    }
    return Status::Ok();
  }
  uint64_t NvmBytes() override {
    uint64_t bytes = 0;
    for (int i = 0; i < store_->num_shards(); ++i) {
      const txn::TxManager::Footprint f =
          store_->shard_manager(static_cast<size_t>(i))->footprint();
      bytes += f.main_bytes + f.backup_bytes;
    }
    return bytes;
  }
  uint64_t TreeHeight() override {
    uint64_t h = 0;
    for (int i = 0; i < store_->num_shards(); ++i) {
      h = std::max(h, store_->shard_store(static_cast<size_t>(i))->tree()->Stats().height);
    }
    return h;
  }
  std::string Options() const override { return options_; }

 private:
  ShardTarget() = default;

  // ShardedStore's single-key routing (ShardOf + availability check).
  Status Route(uint64_t key, SpanBuffer* tr, kamino::kv::KvStore** shard) {
    ScopedSpan s(tr, kShardRoute);
    const size_t i = store_->ShardOf(key);
    if (!store_->shard_available(i)) {
      return Status::Unavailable("shard " + std::to_string(i) + " is unavailable");
    }
    *shard = store_->shard_store(i);
    return Status::Ok();
  }

  std::unique_ptr<kamino::shard::ShardedStore> store_;
  std::string options_;
};

// --- Chain -------------------------------------------------------------------------

class ChainTarget final : public Target {
 public:
  static Result<std::unique_ptr<Target>> Make(const TargetConfig& c) {
    auto t = std::unique_ptr<ChainTarget>(new ChainTarget());
    kamino::chain::ChainOptions o;
    o.kamino = true;
    o.f = c.chain_f;
    o.one_way_latency_us = c.one_way_latency_us;
    o.flush_latency_ns = c.cost.flush_ns;
    Result<std::unique_ptr<kamino::chain::Chain>> chain = kamino::chain::Chain::Create(o);
    if (!chain.ok()) {
      return chain.status();
    }
    t->chain_ = std::move(*chain);
    std::ostringstream os;
    os << "Chain kamino=" << o.kamino << " f=" << o.f
       << " replicas=" << t->chain_->current_view().nodes.size() << " head_alpha=" << o.head_alpha << " one_way_latency_us=" << o.one_way_latency_us
       << " flush_latency_ns=" << o.flush_latency_ns
       << " drain_latency_ns=0 (ChainOptions has no drain knob)"
       << " pool_size=" << o.pool_size << " log_region_size=" << o.log_region_size
       << " client_timeout_ms=" << o.client_timeout_ms
       << " heartbeat_interval_ms=" << o.heartbeat_interval_ms;
    t->options_ = os.str();
    return std::unique_ptr<Target>(std::move(t));
  }

  Status Read(uint64_t key, std::string* out, SpanBuffer* tr) override {
    ScopedSpan s(tr, kChainRead);
    Result<std::string> r = chain_->Read(key);
    if (!r.ok()) {
      return r.status();
    }
    *out = std::move(*r);
    return Status::Ok();
  }
  Status Upsert(uint64_t key, std::string_view value, SpanBuffer* tr) override {
    ScopedSpan s(tr, kChainWrite);
    return chain_->Upsert(key, std::string(value));
  }

  Status Settle() override { return chain_->Quiesce(); }
  Snapshot Counters() override {
    Snapshot s;
    ForEachReplica([&](kamino::chain::Replica* r) { AddManager(r->manager(), &s); });
    const kamino::chain::ChainNetworkStats n = chain_->NetworkStats();
    s.counters["net.sent"] = static_cast<double>(n.net.sent);
    s.counters["chain.retransmits"] = static_cast<double>(n.retransmits);
    s.counters["chain.dedup_dropped"] = static_cast<double>(n.dedup_dropped);
    return s;
  }
  Status CheckStructure(uint64_t expected_keys) override {
    Status out = Status::Ok();
    ForEachReplica([&](kamino::chain::Replica* r) {
      if (!out.ok()) {
        return;
      }
      const std::string who = "replica " + std::to_string(r->node_id()) + ": ";
      Status st = r->tree()->Validate();
      if (!st.ok()) {
        out = Status::Corruption(who + st.ToString());
        return;
      }
      const uint64_t n = r->tree()->CountSlow();
      if (n != expected_keys) {
        out = Status::Corruption(who + "holds " + std::to_string(n) + " keys, expected " +
                                 std::to_string(expected_keys));
      }
    });
    return out;
  }
  Status CheckReplicas(uint64_t key, const std::string& linearizable) override {
    Status out = Status::Ok();
    ForEachReplica([&](kamino::chain::Replica* r) {
      if (!out.ok()) {
        return;
      }
      Result<std::string> v = r->StaleRead(key);
      if (!v.ok()) {
        out = v.status();
      } else if (*v != linearizable) {
        out = Status::Corruption("replica " + std::to_string(r->node_id()) +
                                 " disagrees with Read on key " + std::to_string(key));
      }
    });
    return out;
  }
  uint64_t NvmBytes() override { return chain_->total_nvm_bytes(); }
  uint64_t TreeHeight() override {
    uint64_t h = 0;
    ForEachReplica([&](kamino::chain::Replica* r) { h = std::max(h, r->tree()->Stats().height); });
    return h;
  }
  std::string Options() const override { return options_; }

 private:
  ChainTarget() = default;

  template <typename Fn>
  void ForEachReplica(Fn&& fn) {
    for (uint64_t id : chain_->current_view().nodes) {
      if (kamino::chain::Replica* r = chain_->replica_by_id(id); r != nullptr) {
        fn(r);
      }
    }
  }

  std::unique_ptr<kamino::chain::Chain> chain_;
  std::string options_;
};

}  // namespace

Status Target::Update(uint64_t, std::string_view, SpanBuffer*) {
  return Status::NotSupported("Update");
}
Status Target::Insert(uint64_t, std::string_view, SpanBuffer*) {
  return Status::NotSupported("Insert");
}
Status Target::Scan(uint64_t, size_t, Pairs*, SpanBuffer*) { return Status::NotSupported("Scan"); }
Status Target::SnapshotScan(uint64_t, size_t, Pairs*, SpanBuffer*) {
  return Status::NotSupported("SnapshotScan");
}
Status Target::MultiUpdate(const Pairs&, SpanBuffer*) {
  return Status::NotSupported("MultiUpdate");
}
Status Target::CheckReplicas(uint64_t, const std::string&) { return Status::Ok(); }

Result<std::unique_ptr<Target>> Target::Create(const TargetConfig& config) {
  switch (config.kind) {
    case TargetKind::kKv:
      return KvTarget::Make(config);
    case TargetKind::kShard:
      return ShardTarget::Make(config);
    case TargetKind::kChain:
      return ChainTarget::Make(config);
  }
  return Status::InvalidArgument("unknown target kind");
}

}  // namespace perfbench
