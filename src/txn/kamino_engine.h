// Kamino-Tx atomicity engine (paper §3 "Kamino-Tx-Simple", §4 "-Dynamic").
//
// Transactions edit the main heap *in place*. The only critical-path
// persistence work is the intent log (object addresses — one cache line per
// object) and the final flush of the modified ranges. After the commit
// record is durable the transaction returns; a background Transaction
// Coordinator then copies the modified objects to the backup version and
// only afterwards releases the objects' write locks. Dependent
// transactions — whose read/write set intersects a pending write set — block
// on those locks until main and backup agree (paper's Safety 1 & 2).
//
// The coordinator is sharded: each applier thread owns a private queue
// (mutex + cv) and Commit round-robins committed contexts across them.
// This is safe because write locks are held until apply completes, so any
// two queued transactions have disjoint write sets and their backup applies
// commute — order across shards is irrelevant. See DESIGN.md, "Transaction
// Coordinator pipeline".
//
// Blocked acquirers help: the engine installs a LockManager contention hook,
// so a dependent transaction about to sleep on a lock first pops a batch off
// the applier queues and applies it itself (after sealing the open epoch
// under LogOptions::epoch_commit). The applier threads and the helpers run
// one batch body, ApplyBatch; a helper is just one more applier on that
// shard. Helpers stand down while the appliers are paused or stopping.
//
// Aborts copy the untouched backup values over the main version in the
// aborting thread (aborts are rare; Figure 6). Recovery treats incomplete
// transactions as aborted: committed-but-unapplied transactions are rolled
// forward into the backup, everything else is rolled back from it.
//
// The Simple/Dynamic distinction is entirely inside the BackupStore: a full
// mirror never costs anything at OpenWrite time, while the dynamic (partial)
// store pays one critical-path copy per cold object (paper §4).

#ifndef SRC_TXN_KAMINO_ENGINE_H_
#define SRC_TXN_KAMINO_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/stats/histogram.h"
#include "src/txn/backup_store.h"
#include "src/txn/dirty_map.h"
#include "src/txn/engine_base.h"

namespace kamino::txn {

class KaminoEngine : public EngineBase {
 public:
  // `store` outlives the engine; `dynamic` selects the Dynamic flavour
  // (enables pinning + critical-path copies on cold objects).
  KaminoEngine(heap::Heap* heap, LogManager* log, LockManager* locks, BackupStore* store,
               bool dynamic, int applier_threads = 1, RecoveryOptions recovery = {});
  ~KaminoEngine() override;

  EngineType type() const override {
    return dynamic_ ? EngineType::kKaminoDynamic : EngineType::kKaminoSimple;
  }

  Status Commit(std::unique_ptr<TxContext> ctx) override;
  // Epoch pipeline (LogOptions::epoch_commit, DESIGN.md §8): returns at
  // DRAM-commit with `ack` carrying the epoch durability ticket. The context
  // reaches the applier only through the epoch's durability callback, so the
  // backup never runs ahead of the log. Without epoch_commit this is Commit.
  Status CommitAsync(std::unique_ptr<TxContext> ctx, CommitAck* ack) override;
  // Cross-shard 2PC (DESIGN.md §11): Prepare persists a prepared record in
  // place of the commit record; PersistDecision durably flips the
  // coordinator's own slot to Committed without touching the applier;
  // FinishPrepared resolves a prepared context per the decision — commit
  // follows the normal commit tail (hand to applier), abort follows Abort's
  // backup rollback.
  Status Prepare(TxContext* ctx, uint64_t gtxid, uint64_t coord_shard) override;
  Status PersistDecision(TxContext* ctx) override;
  Status FinishPrepared(std::unique_ptr<TxContext> ctx, bool commit) override;
  // Two-phase recovery (DESIGN.md §10): parallel log replay, then backup
  // reconciliation — inline (offline) or in the background behind dirty-map
  // fences (online). Errors are aggregated, never early-returned: every
  // recovered transaction is resolved on its own, failed ones keep their log
  // slot so a retry (or the next recovery) sees them again.
  Status Recover() override;
  void WaitIdle() override;
  void WaitForRecovery() override;
  uint64_t backup_bytes() const override { return store_->backup_bytes(); }

  // Adds the coordinator-pipeline counters (queue depth, commit->applied lag
  // percentiles, batch/coalescing totals) to the base engine stats.
  EngineStats stats() const override;

  BackupStore* store() { return store_; }

  // --- Crash-test hooks -------------------------------------------------
  // Pausing stops appliers — and helping lock waiters — from dequeuing new
  // work, freezing committed transactions in the "committed but not applied"
  // window so tests can crash there deterministically.
  void PauseApplier(bool paused);
  // Drops all queued (unapplied) contexts, modelling the process dying
  // before the Transaction Coordinator ran. Locks they held are NOT
  // released — callers are about to throw the whole manager away.
  void DiscardPendingForCrashTest();

 protected:
  // Pins the backup copy (a critical-path copy on a dynamic miss) and flushes
  // the address-only intent record.
  Result<Intent> StageWrite(TxContext* ctx, uint64_t offset, uint64_t size) override;
  // Copies the untouched backup value over the main version and unpins it.
  Status RollBackWrite(const Intent& in) override;
  // Blocks until every chunk overlapping [offset, size) is clean. No-op
  // unless an online reconcile is active.
  Status FenceDirtyRange(uint64_t offset, uint64_t size) override;

 private:
  // One applier thread's private work queue. Sharding removes the single
  // dispatch mutex from the commit path and lets appliers drain
  // independently; correctness rests on the disjoint-write-set invariant
  // noted above.
  struct ApplierShard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<TxContext>> queue;
  };

  // Bounds how many releases share one fence; also bounds how long write
  // locks of the first transaction in a batch stay held past its apply, and
  // how much work one helping lock waiter takes on per shard.
  static constexpr size_t kMaxApplyBatch = 32;

  void ApplierLoop(size_t shard_index);
  // Moves up to kMaxApplyBatch contexts from the front of `shard.queue` into
  // `batch`. Caller holds shard.mu.
  static void TakeBatch(ApplierShard& shard, std::vector<std::unique_ptr<TxContext>>* batch);
  // The one apply-batch body, run by applier threads and helping lock
  // waiters alike: backup applies inside the cut gate, one shared slot-release
  // fence, cut-stamp accounting, then lock release and in-flight accounting
  // per transaction. `slots` is a reusable buffer; both vectors are left empty.
  void ApplyBatch(ApplierShard& shard, std::vector<std::unique_ptr<TxContext>>* batch,
                  std::vector<SlotHandle>* slots);
  // The lock-contention hook: seals the open epoch (epoch_commit only), then
  // applies at most one batch from each applier shard on the calling, blocked
  // thread. A no-op while the appliers are paused or stopping.
  void HelpApply();
  // Shared Commit/CommitAsync body; `ack == nullptr` means durable-on-return.
  Status CommitImpl(std::unique_ptr<TxContext> ctx, CommitAck* ack);
  // Round-robins a committed context across the applier shards. In epoch
  // mode this runs inside the epoch's durability callback (on the leader
  // thread); Recover uses it for handed-off transactions. The caller has
  // already counted the context in in_flight_.
  void EnqueueCommitted(std::unique_ptr<TxContext> ctx);
  // Rolls a committed transaction forward into the backup (one batched
  // apply, at most one drain). ApplyBatch then releases the whole batch's
  // slots behind one fence and calls FinishApplied per transaction
  // (deferred-free reservations, write locks, stats). Both run on an applier
  // thread or on a helping lock waiter.
  void ApplyCommitted(TxContext* ctx);
  void FinishApplied(TxContext* ctx);

  // --- Recovery pipeline (DESIGN.md §10) --------------------------------
  // Replays one partition of the recovered transactions (runs on a recovery
  // worker, or inline when workers == 1). Committed transactions are rolled
  // forward inline, or — online — handed back to the applier pool under
  // re-acquired write locks (appended to `handoff`). Failed transactions
  // keep their slot; first error wins, the loop continues.
  Status ReplayPartition(const std::vector<RecoveredTx>& txs,
                         std::vector<std::unique_ptr<TxContext>>* handoff);
  Status RollForwardRecovered(const RecoveredTx& tx);
  Status RollBackRecovered(const RecoveredTx& tx);
  // Rebuilds an applier-ready context for a recovered committed transaction,
  // re-acquiring its write locks. Fails only on lock timeout (the caller
  // falls back to the inline roll-forward).
  Result<std::unique_ptr<TxContext>> BuildHandoff(const RecoveredTx& tx);

  // Arms the dirty map over the allocator region: snapshots the live
  // allocations per chunk, trusts chunks below a persisted resume cursor,
  // and marks object-free chunks clean. Replay must be complete first.
  void BuildDirtyMap();
  // Copies every snapshotted object of `chunk` main -> backup.
  Status ReconcileChunk(uint64_t chunk);
  void ReconcileLoop();
  // Persists the dirty map's contiguous clean frontier into the log header
  // if it advanced past the last persisted value.
  void MaybePersistCursor();
  void FinishReconcile();

  BackupStore* store_;
  bool dynamic_;
  const RecoveryOptions recovery_;

  std::vector<std::unique_ptr<ApplierShard>> shards_;
  std::atomic<uint64_t> next_shard_{0};
  // Committed-but-not-yet-applied transactions (queued + being applied).
  std::atomic<uint64_t> in_flight_{0};
  // Backup-read cut accounting (DESIGN.md §12): transactions whose backup
  // applies are complete AND whose log slots are durably released. Each
  // applier adds its batch after its own ReleaseSlots fence, then publishes
  // the sum as the epoch stamp; seeded from the durable stamp at open.
  std::atomic<uint64_t> cut_released_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  // WaitIdle blocks here; appliers notify after every completed apply.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // Coordinator observability.
  std::atomic<uint64_t> apply_batches_{0};
  std::atomic<uint64_t> coalesced_ranges_{0};
  std::atomic<uint64_t> helped_apply_txns_{0};  // Applied by a blocked acquirer.
  stats::LatencyHistogram apply_lag_;  // Commit-enqueue -> fully applied.

  std::vector<std::thread> appliers_;

  // --- Online-reconcile state -------------------------------------------
  // dirty_map_ and chunk_objects_ are built single-threaded in Recover()
  // before reconcile_active_ is published (release) and before any worker
  // or handed-off context exists; they are read-only afterwards.
  std::unique_ptr<DirtyMap> dirty_map_;
  std::vector<std::vector<ApplyRange>> chunk_objects_;  // Keyed by start chunk.
  std::atomic<bool> reconcile_active_{false};
  std::atomic<bool> reconcile_stop_{false};
  std::vector<std::thread> reconcilers_;
  std::atomic<uint64_t> reconciled_bytes_{0};

  // Cursor persistence is serialized (several reconcilers may race to
  // publish the frontier) and monotone.
  std::mutex cursor_mu_;
  uint64_t last_persisted_cursor_ = 0;

  std::mutex reconcile_done_mu_;
  std::condition_variable reconcile_done_cv_;
  bool reconcile_finished_ = false;  // FinishReconcile runs once.

  // Replay-phase wall times; written before/by the (joined) recovery
  // workers, read-only once Recover() returns.
  uint64_t recovery_replay_ns_ = 0;
  std::vector<uint64_t> recovery_worker_ns_;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_KAMINO_ENGINE_H_
