// The systems under test, behind one interface the load loop drives.
//
// Each Target wraps one public client API — kv::KvStore, shard::ShardedStore
// or chain::Chain — and issues every op through it. With a null SpanBuffer an
// op is exactly the public call. With a SpanBuffer, calls that are thin
// compositions of public calls are issued part by part, one span per part
// (KvStore::Read = tree guard + TxManager::Begin + BPlusTree::GetInTx +
// Tx::Commit, retried on kTxConflict like TxManager::RunWithRetries), and
// calls that cannot be decomposed from outside (ShardedStore::MultiUpdate,
// every Chain call) get one span around the public call.
//
// Counters() reads the layers' public counters into one flat snapshot so the
// load loop can take deltas without knowing which layers a target has.

#ifndef PERFBENCH_SRC_TARGETS_H_
#define PERFBENCH_SRC_TARGETS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/trace.h"
#include "src/txn/engine.h"
#include "src/value.h"

namespace perfbench {

using kamino::Result;
using kamino::Status;
using Pairs = std::vector<std::pair<uint64_t, std::string>>;

// Emulated NVM cost, spinning (a real clwb/sfence stalls the issuing core).
struct CostModel {
  uint32_t flush_ns = 150;  // Per flushed cache line.
  uint32_t drain_ns = 500;  // Per drain (fence).
};

enum class TargetKind { kKv, kShard, kChain };

struct TargetConfig {
  TargetKind kind = TargetKind::kKv;
  kamino::txn::EngineType engine = kamino::txn::EngineType::kKaminoSimple;
  uint64_t nkeys = 0;
  // Kamino-Dynamic backup budget as a fraction of the loaded data (the
  // paper's alpha x dataSize).
  double alpha = 0.2;
  // Fresh keys the main heap must have room for beyond the loaded ones.
  uint64_t insert_headroom = 0;
  int shards = 4;
  int chain_f = 1;
  uint32_t one_way_latency_us = 10;
  CostModel cost;
};

// Layer counters: `counters` are monotonic (reported as deltas),
// `gauges` are read as-is.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
};

class Target {
 public:
  static Result<std::unique_ptr<Target>> Create(const TargetConfig& config);
  virtual ~Target() = default;

  virtual Status Read(uint64_t key, std::string* out, SpanBuffer* tr) = 0;
  virtual Status Upsert(uint64_t key, std::string_view value, SpanBuffer* tr) = 0;
  virtual Status Update(uint64_t key, std::string_view value, SpanBuffer* tr);
  virtual Status Insert(uint64_t key, std::string_view value, SpanBuffer* tr);
  virtual Status Scan(uint64_t start, size_t limit, Pairs* out, SpanBuffer* tr);
  virtual Status SnapshotScan(uint64_t start, size_t limit, Pairs* out, SpanBuffer* tr);
  virtual Status MultiUpdate(const Pairs& writes, SpanBuffer* tr);

  // Waits until the system has no background work left (WaitIdle; Quiesce
  // for the chain).
  virtual Status Settle() = 0;
  virtual Snapshot Counters() = 0;
  // Validate() on every tree; the key count of every tree must equal
  // `expected_keys`.
  virtual Status CheckStructure(uint64_t expected_keys) = 0;
  // Chain only: every replica's stale read of `key` must equal `linearizable`.
  virtual Status CheckReplicas(uint64_t key, const std::string& linearizable);
  // TxManager::footprint() main + backup, summed (Chain::total_nvm_bytes).
  virtual uint64_t NvmBytes() = 0;
  // Largest B+Tree height.
  virtual uint64_t TreeHeight() = 0;
  // One line naming the engine and store options in effect.
  virtual std::string Options() const = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TARGETS_H_
