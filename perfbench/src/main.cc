// The repository benchmark: closed-loop load from one process against the
// public client APIs, with exact per-op latency percentiles, self-checking
// values, post-run invariant checks and an optional traced run that breaks
// the result down by layer. See ../README.md for the workloads, the metrics
// and the predictions they are meant to confirm or refute.
//
// Usage:
//   kamino_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--trace-out <path>] [--inject-fault]
//
// Prints a human-readable report, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding every metric it
// measured. Exits 0 only if every op succeeded and every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/random.h"
#include "src/stats/histogram.h"
#include "src/targets.h"
#include "src/trace.h"
#include "src/value.h"
#include "src/workload/zipfian.h"

namespace perfbench {
namespace {

using kamino::Xoshiro256;
using kamino::stats::NowNanos;

constexpr int kClients = 4;
constexpr int kSetupRepeats = 3;
constexpr size_t kSpanRecordCap = 50'000;  // Raw span records kept per thread.
constexpr size_t kVerifySample = 256;      // Keys re-read after the run.
constexpr size_t kReplicaSample = 64;      // Of those, keys checked on every replica.
// Window of the per-second medians, which a host that starves the process
// of CPU for part of a run moves far less than whole-phase figures.
constexpr uint64_t kWindowNs = 1'000'000'000;

// --- Workloads -------------------------------------------------------------------

enum class OpKind { kRead, kUpdate, kInsert, kUpsert, kScan, kSnapScan, kMulti };

// Op classes, in the order of the root span names (trace.h).
enum OpClass { kClassRead, kClassWrite, kClassMulti, kClassScan, kClassSnapScan, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"read", "write", "multi", "scan", "snapscan"};

OpClass ClassOf(OpKind k) {
  switch (k) {
    case OpKind::kRead:
      return kClassRead;
    case OpKind::kUpdate:
    case OpKind::kInsert:
    case OpKind::kUpsert:
      return kClassWrite;
    case OpKind::kScan:
      return kClassScan;
    case OpKind::kSnapScan:
      return kClassSnapScan;
    case OpKind::kMulti:
      return kClassMulti;
  }
  return kClassRead;
}

struct MixEntry {
  OpKind op;
  double weight;
};

struct Workload {
  const char* name;
  const char* why;
  TargetConfig target;
  bool zipfian;  // Zipfian(0.99) keys; uniform otherwise.
  std::vector<MixEntry> mix;
  size_t scan_len = 50;
  size_t multi_keys = 4;
  // Loader threads. A KvStore load serializes on the exclusive tree guard,
  // so it loads from one thread; shards and chain hops load in parallel.
  int load_threads = 1;
};

std::vector<Workload> AllWorkloads() {
  using kamino::txn::EngineType;
  std::vector<Workload> w;
  {
    Workload k{"kv_hot_rw",
               "hot keys put readers behind writers whose backup apply is pending: lock wait, "
               "intent log, commit flush and applier on the critical path",
               {},
               true,
               {{OpKind::kRead, 0.5}, {OpKind::kUpdate, 0.5}}};
    k.target.kind = TargetKind::kKv;
    k.target.engine = EngineType::kKaminoSimple;
    k.target.nkeys = 20'000;
    w.push_back(k);
  }
  {
    Workload k{"kv_scan_dyn",
               "working set 5x the Dynamic backup budget: writes take the miss-and-copy path, "
               "tree traversal, allocation and backup-cut reads dominate",
               {},
               false,
               {{OpKind::kRead, 0.80},
                {OpKind::kUpdate, 0.05},
                {OpKind::kInsert, 0.05},
                {OpKind::kScan, 0.05},
                {OpKind::kSnapScan, 0.05}}};
    k.target.kind = TargetKind::kKv;
    k.target.engine = EngineType::kKaminoDynamic;
    k.target.nkeys = 5'000;
    k.target.alpha = 0.2;
    // Pool room for fresh keys; untouched pages cost no memory.
    k.target.insert_headroom = 1'000'000;
    w.push_back(k);
  }
  {
    Workload k{"shard_2pc",
               "the only workload through the shard router and cross-shard 2PC; uniform keys "
               "keep lock waits low so prepare/decide persists and appliers dominate",
               {},
               false,
               {{OpKind::kRead, 0.5}, {OpKind::kUpdate, 0.3}, {OpKind::kMulti, 0.2}}};
    k.target.kind = TargetKind::kShard;
    k.target.engine = EngineType::kKaminoSimple;
    k.target.nkeys = 40'000;
    k.target.shards = 4;
    k.load_threads = kClients;
    w.push_back(k);
  }
  {
    Workload k{"chain_rw",
               "the only workload through chain and net: a write costs network hops, not local "
               "commit work",
               {},
               false,
               {{OpKind::kUpsert, 0.5}, {OpKind::kRead, 0.5}}};
    k.target.kind = TargetKind::kChain;
    k.target.nkeys = 10'000;
    k.target.chain_f = 1;
    k.target.one_way_latency_us = 10;
    k.target.cost.drain_ns = 0;  // ChainOptions exposes only the per-line knob.
    k.load_threads = kClients;
    w.push_back(k);
  }
  return w;
}

// --- Op generation ------------------------------------------------------------------

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t key = 0;
  std::string value;
  Pairs multi;
};

// Per-client op stream, a pure function of (seed, client).
class OpGen {
 public:
  OpGen(const Workload& w, const kamino::workload::ScrambledZipfian* zipf, uint64_t seed,
        int client)
      : w_(&w), zipf_(zipf), rng_(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull * (client + 1)),
        client_(client) {
    double total = 0;
    for (const MixEntry& e : w.mix) {
      total += e.weight;
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) {
      c /= total;
    }
  }

  // Fills `op`. Write values are encoded here, outside the timed call.
  void Next(Op* op, WriterBook* book) {
    const double u = rng_.NextDouble();
    size_t i = 0;
    while (i + 1 < cumulative_.size() && u >= cumulative_[i]) {
      ++i;
    }
    op->kind = w_->mix[i].op;
    const uint32_t writer = static_cast<uint32_t>(client_ + 1);
    switch (op->kind) {
      case OpKind::kInsert:
        op->key = w_->target.nkeys + static_cast<uint64_t>(client_) +
                  static_cast<uint64_t>(kClients) * inserts_issued_++;
        op->value = EncodeValue(op->key, writer, book->Issue(writer));
        break;
      case OpKind::kUpdate:
      case OpKind::kUpsert:
        op->key = Key();
        op->value = EncodeValue(op->key, writer, book->Issue(writer));
        break;
      case OpKind::kMulti: {
        std::vector<uint64_t> keys;
        while (keys.size() < w_->multi_keys) {
          const uint64_t k = Key();
          if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
            keys.push_back(k);
          }
        }
        // One global acquisition order, so concurrent multi-key updates
        // cannot deadlock inside a shard.
        std::sort(keys.begin(), keys.end());
        op->multi.clear();
        for (uint64_t k : keys) {
          op->multi.emplace_back(k, EncodeValue(k, writer, book->Issue(writer)));
        }
        break;
      }
      case OpKind::kRead:
      case OpKind::kScan:
      case OpKind::kSnapScan:
        op->key = Key();
        break;
    }
  }

 private:
  uint64_t Key() {
    return zipf_ != nullptr ? zipf_->Next(rng_) : rng_.NextBounded(w_->target.nkeys);
  }

  const Workload* w_;
  const kamino::workload::ScrambledZipfian* zipf_;
  Xoshiro256 rng_;
  int client_;
  std::vector<double> cumulative_;
  uint64_t inserts_issued_ = 0;
};

// --- Checks ---------------------------------------------------------------------------

// A scan result must be strictly ascending from `start` (a loaded key),
// every value must check out, and the loaded keys (never deleted) must
// appear without gaps: the pairs below `nkeys` are exactly start, start+1,
// ... up to the limit. Inserted keys (>= nkeys) can only follow them.
const char* CheckScan(const Pairs& pairs, uint64_t start, size_t limit, uint64_t nkeys,
                      const WriterBook& book) {
  if (pairs.size() > limit) {
    return "scan returned more than its limit";
  }
  const uint64_t loaded_expected = std::min<uint64_t>(limit, nkeys - start);
  uint64_t loaded_seen = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t k = pairs[i].first;
    if (i > 0 && k <= pairs[i - 1].first) {
      return "scan keys not strictly ascending";
    }
    if (k < nkeys) {
      if (k != start + loaded_seen) {
        return "scan skipped a loaded key";
      }
      ++loaded_seen;
    }
    if (const char* bad = CheckValue(pairs[i].second, k, book)) {
      return bad;
    }
  }
  if (loaded_seen != loaded_expected) {
    return "scan returned too few loaded keys";
  }
  return nullptr;
}

// The checker's negative control: a value for the wrong key, a corrupted
// byte and a never-issued sequence number must each be rejected.
bool CheckerSelfTest() {
  WriterBook book(2);
  const uint64_t seq = book.Issue(1);
  const std::string good = EncodeValue(42, 1, seq);
  if (CheckValue(good, 42, book) != nullptr) {
    return false;
  }
  std::string corrupt = good;
  corrupt[500] ^= 0x01;
  const std::string unissued = EncodeValue(42, 1, seq + 1);
  return CheckValue(good, 43, book) != nullptr && CheckValue(corrupt, 42, book) != nullptr &&
         CheckValue(unissued, 42, book) != nullptr;
}

// --- Phases ---------------------------------------------------------------------------

struct Failures {
  std::mutex mu;
  std::vector<std::string> first;  // Guarded by mu; capped.
  void Note(const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    if (first.size() < 10) {
      first.push_back(what);
    }
  }
};

struct PhaseResult {
  double elapsed_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::array<uint64_t, kNumClasses> acked{};
  std::array<std::vector<uint32_t>, kNumClasses> latency_ns;
  // Per sample, the kWindowNs window of the phase it completed in.
  std::array<std::vector<uint16_t>, kNumClasses> window;
  // Acknowledged ops per window; a window is full if it lies wholly inside
  // the phase.
  std::vector<uint64_t> window_acked;
  std::vector<bool> window_full;
  SpanTable spans{};

  uint64_t acked_total() const {
    uint64_t n = 0;
    for (uint64_t a : acked) {
      n += a;
    }
    return n;
  }
  double ops_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(acked_total()) / elapsed_s : 0;
  }
  // Adds another client's share of the same phase (same windows).
  void Merge(const PhaseResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (int c = 0; c < kNumClasses; ++c) {
      acked[c] += o.acked[c];
      latency_ns[c].insert(latency_ns[c].end(), o.latency_ns[c].begin(), o.latency_ns[c].end());
      window[c].insert(window[c].end(), o.window[c].begin(), o.window[c].end());
    }
    window_acked.resize(std::max(window_acked.size(), o.window_acked.size()), 0);
    for (size_t i = 0; i < o.window_acked.size(); ++i) {
      window_acked[i] += o.window_acked[i];
    }
  }

  // Appends a later phase; its windows follow this phase's.
  void Append(const PhaseResult& o) {
    const size_t shift = window_acked.size();
    elapsed_s += o.elapsed_s;
    attempted += o.attempted;
    failed += o.failed;
    for (int c = 0; c < kNumClasses; ++c) {
      acked[c] += o.acked[c];
      latency_ns[c].insert(latency_ns[c].end(), o.latency_ns[c].begin(), o.latency_ns[c].end());
      for (uint16_t w : o.window[c]) {
        window[c].push_back(static_cast<uint16_t>(w + shift));
      }
    }
    window_acked.insert(window_acked.end(), o.window_acked.begin(), o.window_acked.end());
    window_full.insert(window_full.end(), o.window_full.begin(), o.window_full.end());
  }
};

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, Target* target, WriterBook* book, Failures* failures)
      : w_(w), target_(target), book_(book), failures_(failures) {
    if (w.zipfian) {
      zipf_ = std::make_unique<kamino::workload::ScrambledZipfian>(w.target.nkeys, 0.99);
    }
    for (int c = 0; c < kClients; ++c) {
      gens_.emplace_back(w, zipf_.get(), seed, c);
    }
  }

  // Runs all clients for `seconds`. With `traced`, each op runs inside a root
  // span and the targets record their layer spans; the buffers are kept in
  // spans() for writing out.
  PhaseResult Run(double seconds, bool traced) {
    std::vector<PhaseResult> per(kClients);
    std::vector<uint64_t> end_ns(kClients, 0);
    std::vector<std::unique_ptr<SpanBuffer>> bufs;
    if (traced) {
      for (int c = 0; c < kClients; ++c) {
        bufs.push_back(std::make_unique<SpanBuffer>(kSpanRecordCap));
      }
    }
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<uint64_t> start{0};
    std::atomic<uint64_t> deadline{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        SpanBuffer* tr = traced ? bufs[c].get() : nullptr;
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        end_ns[c] = Client(c, start.load(), deadline.load(), tr, &per[c]);
      });
    }
    while (ready.load() < kClients) {
      std::this_thread::yield();
    }
    const uint64_t duration_ns = static_cast<uint64_t>(seconds * 1e9);
    start.store(NowNanos());
    deadline.store(start.load() + duration_ns);
    go.store(true, std::memory_order_release);
    for (auto& t : threads) {
      t.join();
    }
    PhaseResult out;
    for (int c = 0; c < kClients; ++c) {
      out.Merge(per[c]);
    }
    out.elapsed_s =
        static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) - start.load()) /
        1e9;
    for (size_t i = 0; i < out.window_acked.size(); ++i) {
      out.window_full.push_back((i + 1) * kWindowNs <= duration_ns);
    }
    if (traced) {
      for (const auto& b : bufs) {
        for (int r = 0; r < kNumRoots; ++r) {
          for (int n = 0; n < kNumSpanNames; ++n) {
            out.spans[r][n].Add(b->table()[r][n]);
          }
        }
      }
      span_buffers_ = std::move(bufs);
    }
    return out;
  }

  uint64_t inserts_acked() const { return inserts_acked_.load(); }
  std::vector<const SpanBuffer*> spans() const {
    std::vector<const SpanBuffer*> out;
    for (const auto& b : span_buffers_) {
      out.push_back(b.get());
    }
    return out;
  }

 private:
  uint64_t Client(int c, uint64_t start, uint64_t deadline, SpanBuffer* tr, PhaseResult* res) {
    Op op;
    std::string read_out;
    Pairs scan_out;
    uint64_t op_seq = 0;
    // Room for a long phase's samples up front: growing a vector mid-phase
    // copies it on the client's time.
    for (int k = 0; k < kNumClasses; ++k) {
      res->latency_ns[k].reserve(1 << 20);
      res->window[k].reserve(1 << 20);
    }
    while (true) {
      gens_[c].Next(&op, book_);
      const OpClass cls = ClassOf(op.kind);
      const uint64_t op_id = (static_cast<uint64_t>(c) << 48) | op_seq++;
      const uint64_t t0 = NowNanos();
      Status st;
      {
        ScopedSpan root(tr, static_cast<SpanName>(cls), op_id);
        st = Execute(op, tr, &read_out, &scan_out);
      }
      const uint64_t t1 = NowNanos();
      ++res->attempted;
      const char* bad = nullptr;
      if (st.ok()) {
        switch (op.kind) {
          case OpKind::kRead:
            bad = CheckValue(read_out, op.key, *book_);
            break;
          case OpKind::kScan:
          case OpKind::kSnapScan:
            bad = CheckScan(scan_out, op.key, w_.scan_len, w_.target.nkeys, *book_);
            break;
          case OpKind::kInsert:
            inserts_acked_.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            break;
        }
      }
      if (!st.ok() || bad != nullptr) {
        ++res->failed;
        failures_->Note(std::string(kClassNames[cls]) + " key " + std::to_string(op.key) + ": " +
                        (bad != nullptr ? std::string("check failed: ") + bad : st.ToString()));
      } else {
        const uint64_t w = std::min<uint64_t>((t1 - start) / kWindowNs, UINT16_MAX);
        if (res->window_acked.size() <= w) {
          res->window_acked.resize(w + 1, 0);
        }
        ++res->window_acked[w];
        ++res->acked[cls];
        res->latency_ns[cls].push_back(
            static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
        res->window[cls].push_back(static_cast<uint16_t>(w));
      }
      if (t1 >= deadline) {
        return t1;
      }
    }
  }

  Status Execute(const Op& op, SpanBuffer* tr, std::string* read_out, Pairs* scan_out) {
    switch (op.kind) {
      case OpKind::kRead:
        return target_->Read(op.key, read_out, tr);
      case OpKind::kUpdate:
        return target_->Update(op.key, op.value, tr);
      case OpKind::kInsert:
        return target_->Insert(op.key, op.value, tr);
      case OpKind::kUpsert:
        return target_->Upsert(op.key, op.value, tr);
      case OpKind::kScan:
        return target_->Scan(op.key, w_.scan_len, scan_out, tr);
      case OpKind::kSnapScan:
        return target_->SnapshotScan(op.key, w_.scan_len, scan_out, tr);
      case OpKind::kMulti:
        return target_->MultiUpdate(op.multi, tr);
    }
    return Status::Internal("unknown op");
  }

  const Workload& w_;
  Target* target_;
  WriterBook* book_;
  Failures* failures_;
  std::unique_ptr<kamino::workload::ScrambledZipfian> zipf_;
  std::vector<OpGen> gens_;
  std::atomic<uint64_t> inserts_acked_{0};
  std::vector<std::unique_ptr<SpanBuffer>> span_buffers_;
};

// Loads keys [0, nkeys) with `threads` loader threads (writer 0).
Status Load(Target* target, uint64_t nkeys, int threads, WriterBook* book) {
  std::vector<Status> status(threads);
  std::vector<std::thread> loaders;
  for (int c = 0; c < threads; ++c) {
    loaders.emplace_back([&, c] {
      for (uint64_t k = static_cast<uint64_t>(c); k < nkeys; k += threads) {
        Status st = target->Upsert(k, EncodeValue(k, 0, book->Issue(0)), nullptr);
        if (!st.ok()) {
          status[c] = st;
          return;
        }
      }
    });
  }
  for (auto& t : loaders) {
    t.join();
  }
  for (const Status& st : status) {
    KAMINO_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

// --- Metrics ----------------------------------------------------------------------------

struct Percentiles {
  uint64_t n = 0;
  double p50_us = 0;
  double p99_us = 0;
  double pmax = 0;  // Highest percentile with at least ten samples beyond it.
  double pmax_us = 0;
};

Percentiles ExactPercentiles(std::vector<uint32_t> v) {
  Percentiles p;
  p.n = v.size();
  if (v.empty()) {
    return p;
  }
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  auto at_rank = [&](double q) {
    const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
    return static_cast<double>(v[idx]) / 1e3;
  };
  p.p50_us = at_rank(0.50);
  p.p99_us = at_rank(0.99);
  if (v.size() > 10) {
    const size_t idx = v.size() - 11;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
    p.pmax = 100.0 * static_cast<double>(v.size() - 10) / static_cast<double>(v.size());
    p.pmax_us = static_cast<double>(v[idx]) / 1e3;
  }
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over the full windows of the acknowledged-ops rate.
double WindowMedianRate(const PhaseResult& r) {
  std::vector<double> rates;
  for (size_t i = 0; i < r.window_acked.size(); ++i) {
    if (r.window_full[i]) {
      rates.push_back(static_cast<double>(r.window_acked[i]) * 1e9 / kWindowNs);
    }
  }
  return Median(rates);
}

// Median over the full windows of each window's exact p50 of class `cls`.
double WindowMedianP50(const PhaseResult& r, int cls) {
  std::vector<std::vector<uint32_t>> by_window(r.window_acked.size());
  for (size_t i = 0; i < r.latency_ns[cls].size(); ++i) {
    by_window[r.window[cls][i]].push_back(r.latency_ns[cls][i]);
  }
  std::vector<double> p50s;
  for (size_t i = 0; i < by_window.size(); ++i) {
    if (r.window_full[i] && !by_window[i].empty()) {
      p50s.push_back(ExactPercentiles(std::move(by_window[i])).p50_us);
    }
  }
  return Median(p50s);
}

// Process CPU time (user + system) and involuntary context switches so far.
struct CpuUsage {
  double cpu_s = 0;
  long involuntary_switches = 0;

  static CpuUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    CpuUsage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    u.involuntary_switches = ru.ru_nivcsw;
    return u;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count or provenance, for the report only.
};

double Div(double a, double b) { return b > 0 ? a / b : 0; }

double Delta(const Snapshot& before, const Snapshot& after, const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) {
    return 0;
  }
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

double Gauge(const Snapshot& s, const std::string& name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0 : it->second;
}

SpanAgg SumOverRoots(const SpanTable& t, SpanName name) {
  SpanAgg a;
  for (int r = 0; r < kNumRoots; ++r) {
    a.Add(t[r][name]);
  }
  return a;
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Count(uint64_t n) { return "n=" + std::to_string(n); }

struct LayerInputs {
  const Workload* w;
  Snapshot before, after;
  PhaseResult traced;
  double untraced_ops_per_s = 0;
  double settle_ms = 0;
  uint64_t tree_height = 0;
  uint64_t live_keys = 0;
};

// Per-layer metrics of the traced phase. `missing` receives the named
// metrics that have no value on this workload, with the reason.
std::vector<Metric> LayerMetrics(const LayerInputs& in, std::vector<Metric>* missing) {
  std::vector<Metric> m;
  auto d = [&](const std::string& n) { return Delta(in.before, in.after, n); };
  auto absent = [&](const std::string& n, const std::string& unit, const std::string& why) {
    missing->push_back({n, 0, unit, why});
  };
  const PhaseResult& t = in.traced;
  const double writes = static_cast<double>(t.acked[kClassWrite] + t.acked[kClassMulti]);
  const double user_bytes_written =
      static_cast<double>(t.acked[kClassWrite] + in.w->multi_keys * t.acked[kClassMulti]) *
      kValueSize;
  const double ops = static_cast<double>(t.acked_total());
  const std::string per_write = Count(static_cast<uint64_t>(writes)) + " writes";

  m.push_back({"nvm.main_lines_per_write", Div(d("nvm.main.lines"), writes), "lines", per_write});
  m.push_back(
      {"nvm.main_drains_per_write", Div(d("nvm.main.drains"), writes), "drains", per_write});
  const std::string site_prefix = "nvm.main.site_drains.";
  for (const auto& [name, unused] : in.after.counters) {
    if (name.rfind(site_prefix, 0) == 0) {
      m.push_back({"nvm.drains_per_write." + name.substr(site_prefix.size()),
                   Div(d(name), writes), "drains", per_write});
    }
  }
  m.push_back(
      {"nvm.backup_lines_per_write", Div(d("nvm.backup.lines"), writes), "lines", per_write});
  // PoolStats::bytes_persisted counts only on crash-simulating pools, so
  // bytes persisted are taken as flushed lines x the line size.
  m.push_back({"nvm.bytes_persisted_per_user_byte",
               Div((d("nvm.main.lines") + d("nvm.backup.lines")) * kamino::kCacheLineSize,
                   user_bytes_written),
               "ratio", "main + backup lines flushed x 64 B / user bytes written"});

  m.push_back({"txn.lock.blocked_frac", Div(d("lock.blocked"), d("lock.acquires")), "ratio",
               Count(static_cast<uint64_t>(d("lock.acquires"))) + " acquires"});
  m.push_back({"txn.lock.wait_us_per_op", Div(d("lock.block_ns") / 1e3, ops), "us",
               Count(static_cast<uint64_t>(ops)) + " ops"});
  m.push_back({"txn.lock.timeouts", d("lock.timeouts"), "count", ""});

  m.push_back({"txn.log.slot_blocked_frac", Div(d("log.blocked"), writes), "ratio",
               "blocked slot acquisitions / write ops"});
  m.push_back({"txn.log.slot_wait_us_per_write", Div(d("log.blocked_ns") / 1e3, writes), "us",
               per_write});
  m.push_back({"txn.log.commits_per_leader_drain",
               Div(d("log.group_commits"), d("log.leader_drains")), "ratio",
               Count(static_cast<uint64_t>(d("log.leader_drains"))) + " leader drains"});

  m.push_back({"txn.applier.lag_p50_us", Gauge(in.after, "engine.apply_lag_p50_ns") / 1e3, "us",
               "EngineStats, since store creation; max over engines"});
  m.push_back({"txn.applier.lag_p99_us", Gauge(in.after, "engine.apply_lag_p99_ns") / 1e3, "us",
               "EngineStats, since store creation; max over engines"});
  m.push_back({"txn.applier.txns_per_batch", Div(d("engine.applied"), d("engine.apply_batches")),
               "txns", Count(static_cast<uint64_t>(d("engine.apply_batches"))) + " batches"});
  m.push_back({"txn.applier.settle_ms", in.settle_ms, "ms", "WaitIdle/Quiesce after the last op"});

  const double ensures = d("backup.ensure_hits") + d("backup.ensure_misses");
  m.push_back({"txn.backup.ensure_miss_frac", Div(d("backup.ensure_misses"), ensures), "ratio",
               Count(static_cast<uint64_t>(ensures)) + " ensures"});
  m.push_back({"txn.backup.evictions_per_write", Div(d("backup.evictions"), writes), "count",
               per_write});
  const double views = d("backup.snapshot_views");
  if (views > 0) {
    const double reads = d("backup.read_hits") + d("backup.read_misses");
    m.push_back({"txn.backup.read_hit_frac", Div(d("backup.read_hits"), reads), "ratio",
                 Count(static_cast<uint64_t>(reads)) + " object reads"});
    m.push_back({"txn.backup.cut_wait_us_per_view", Div(d("backup.cut_wait_ns") / 1e3, views),
                 "us", Count(static_cast<uint64_t>(views)) + " views"});
  } else {
    absent("txn.backup.read_hit_frac", "ratio", "no snapshot reads in this workload");
    absent("txn.backup.cut_wait_us_per_view", "us", "no snapshot reads in this workload");
  }

  // Span-derived layer times.
  const SpanTable& s = t.spans;
  const SpanAgg begin = SumOverRoots(s, kTxnBegin);
  const SpanAgg commit = s[kOpWrite][kTxnCommit];
  if (begin.count > 0) {
    m.push_back({"txn.begin_us", Div(begin.self_ns / 1e3, begin.count), "us",
                 Count(begin.count) + " spans"});
  } else {
    absent("txn.begin_us", "us", "transactions run inside an undecomposable public call");
  }
  if (commit.count > 0) {
    m.push_back({"txn.commit_us", Div(commit.self_ns / 1e3, commit.count), "us",
                 Count(commit.count) + " write commits"});
  } else {
    absent("txn.commit_us", "us", "transactions run inside an undecomposable public call");
  }
  // LockManager::stats() is global, so lock wait cannot be pinned to one
  // span from outside: it is split over the spans that acquire object locks
  // in proportion to their time.
  double lock_span_ns = 0;
  for (SpanName n : {kPdsGet, kPdsUpdate, kPdsInsert, kPdsScan, kShardMulti}) {
    lock_span_ns += static_cast<double>(SumOverRoots(s, n).total_ns);
  }
  const double wait_share = std::min(1.0, Div(d("lock.block_ns"), lock_span_ns));
  auto self_minus_wait = [&](const char* name, SpanName span) {
    const SpanAgg a = SumOverRoots(s, span);
    if (a.count == 0) {
      absent(name, "us", "no such span on this workload");
      return;
    }
    m.push_back({name, Div(static_cast<double>(a.total_ns) * (1 - wait_share) / 1e3, a.count),
                 "us", Count(a.count) + " spans, lock-wait share " + Fixed(wait_share, 3)});
  };
  self_minus_wait("pds.get_self_us", kPdsGet);
  self_minus_wait("pds.update_self_us", kPdsUpdate);
  auto per_key = [&](const char* name, SpanName span) {
    const SpanAgg a = SumOverRoots(s, span);
    if (a.items == 0) {
      absent(name, "us", "no such span on this workload");
      return;
    }
    m.push_back({name, Div(a.total_ns / 1e3, a.items), "us", Count(a.items) + " keys"});
  };
  per_key("pds.scan_us_per_key", kPdsScan);
  per_key("pds.snapshot_scan_us_per_key", kPdsSnapshotScan);
  m.push_back({"pds.tree_height", static_cast<double>(in.tree_height), "levels", "max over trees"});

  const double live_bytes = static_cast<double>(in.live_keys) * kValueSize;
  m.push_back({"heap.main_bytes_per_user_byte", Div(Gauge(in.after, "heap.main_bytes"), live_bytes),
               "ratio", "TxManager::footprint().main_bytes / live user bytes"});
  m.push_back({"heap.backup_bytes_per_user_byte",
               Div(Gauge(in.after, "heap.backup_bytes"), live_bytes), "ratio",
               "TxManager::footprint().backup_bytes / live user bytes"});

  // Sharding: a single-engine target counts as one shard.
  const double cross = d("shard.cross_commits");
  const double aborts = d("shard.cross_aborts");
  m.push_back({"shard.cross_frac", Div(cross, static_cast<double>(t.acked[kClassMulti])), "ratio",
               Count(t.acked[kClassMulti]) + " multi-key updates"});
  m.push_back({"shard.abort_frac", Div(aborts, cross + aborts), "ratio",
               Count(static_cast<uint64_t>(cross + aborts)) + " 2PC attempts"});
  const int shards = static_cast<int>(Gauge(in.after, "shard.count"));
  double imbalance = 1;
  if (shards > 1) {
    double max = 0;
    double sum = 0;
    for (int i = 0; i < shards; ++i) {
      const double c = d("shard." + std::to_string(i) + ".committed");
      max = std::max(max, c);
      sum += c;
    }
    imbalance = Div(max, sum / shards);
  }
  m.push_back({"shard.commit_imbalance", imbalance, "ratio", "max / mean committed per shard"});
  auto span_mean = [&](const char* name, SpanName span, const char* why_absent) {
    const SpanAgg a = SumOverRoots(s, span);
    if (a.count == 0) {
      absent(name, "us", why_absent);
      return;
    }
    m.push_back({name, Div(a.total_ns / 1e3, a.count), "us", Count(a.count) + " spans"});
  };
  span_mean("shard.multi_us", kShardMulti, "no sharded store in this workload");
  span_mean("shard.single_us", kShardSingle, "no sharded store in this workload");

  m.push_back({"net.msgs_per_write", Div(d("net.sent"), writes), "msgs",
               "all messages (reads included) / write ops"});
  absent("net.bytes_per_write", "bytes", "Chain::NetworkStats() counts messages, not bytes");
  m.push_back({"chain.retransmits_per_op", Div(d("chain.retransmits"), ops), "ratio",
               Count(static_cast<uint64_t>(ops)) + " ops"});
  m.push_back({"chain.dedup_dropped", d("chain.dedup_dropped"), "count", ""});

  m.push_back({"trace.overhead_frac",
               Div(in.untraced_ops_per_s - t.ops_per_s(), in.untraced_ops_per_s), "ratio",
               "untraced " + Fixed(in.untraced_ops_per_s, 0) + " vs traced " +
                   Fixed(t.ops_per_s(), 0) + " ops/s"});
  const SpanAgg write_root = s[kOpWrite][kOpWrite];
  m.push_back({"trace.write_span_coverage", Div(write_root.child_ns, write_root.total_ns),
               "ratio", "share of a write's traced latency inside its layer spans"});
  return m;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-40s %18.6f %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.note.c_str());
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// --- Main --------------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_fault = false;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--inject-fault") {
      a->inject_fault = true;
      continue;
    }
    if ((v = next()) == nullptr) {
      return false;
    }
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kamino_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--trace-out <path>] [--inject-fault]\n");
    return 2;
  }
  const std::vector<Workload> all = AllWorkloads();
  const Workload* wp = nullptr;
  for (const Workload& w : all) {
    if (args.workload == w.name) {
      wp = &w;
    }
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  if (!CheckerSelfTest()) {
    std::fprintf(stderr, "negative control failed: the value checker accepts bad values\n");
    return 3;
  }

  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name, args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("why: %s\n", w.why);
  std::printf("context: nproc=%u build_type=%s compiler=\"%s\" commit=%s seed=%" PRIu64
              " clients=%d loop=closed\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, Compiler(),
              args.commit.c_str(), args.seed, kClients);
  std::printf("cost model: %u ns per flushed line, %u ns per drain, spinning, on main and backup "
              "pools%s\n",
              w.target.cost.flush_ns, w.target.cost.drain_ns,
              w.target.kind == TargetKind::kChain
                  ? " (drains are free: Chain exposes only the per-line knob)"
                  : "");
  std::printf("data: %" PRIu64 " keys, %zu-byte values, %s keys; mix:", w.target.nkeys,
              kValueSize, w.zipfian ? "zipfian(0.99)" : "uniform");
  for (const MixEntry& e : w.mix) {
    static const char* kOpNames[] = {"Read",   "Update",       "Insert",     "Upsert",
                                     "Scan",   "SnapshotScan", "MultiUpdate"};
    std::printf(" %s=%g", kOpNames[static_cast<int>(e.op)], e.weight);
  }
  std::printf(" (scan length %zu, multi-update keys %zu; fresh inserts take keys above the "
              "loaded range)\n",
              w.scan_len, w.multi_keys);

  // Set-up, repeated; the last one is kept. setup_s is their median.
  const int setups = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Target> target;
  std::unique_ptr<WriterBook> book;
  for (int i = 0; i < setups; ++i) {
    target.reset();
    book = std::make_unique<WriterBook>(kClients + 1);
    const uint64_t t0 = NowNanos();
    Result<std::unique_ptr<Target>> created = Target::Create(w.target);
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", created.status().ToString().c_str());
      return 1;
    }
    target = std::move(*created);
    Status st = Load(target.get(), w.target.nkeys, w.load_threads, book.get());
    if (st.ok()) {
      st = target->Settle();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  std::printf("options: %s\n", target->Options().c_str());
  std::vector<double> sorted_setup = setup_s;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const double setup_median = sorted_setup[sorted_setup.size() / 2];
  std::printf("setup: median %.4f s over %d set-ups (", setup_median, setups);
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : " ", setup_s[i]);
  }
  std::printf(")\n");

  Failures failures;
  Runner runner(w, args.seed, target.get(), book.get(), &failures);

  // Untimed warm-up in two halves, to show how far the first ops are from
  // steady state.
  const double warm = std::clamp(args.seconds * 0.2, 0.5, 2.0);
  PhaseResult warm1 = runner.Run(warm / 2, false);
  PhaseResult warm2 = runner.Run(warm / 2, false);

  PhaseResult measured;
  LayerInputs layer;
  layer.w = &w;
  const CpuUsage cpu_before = CpuUsage::Now();
  const uint64_t measured_t0 = NowNanos();
  if (!args.trace) {
    measured = runner.Run(args.seconds, false);
  } else {
    // Untraced, traced, untraced: the traced middle is compared with the
    // untraced halves around it, so linear drift cancels out of the overhead.
    measured = runner.Run(args.seconds / 4, false);
    layer.before = target->Counters();
    layer.traced = runner.Run(args.seconds / 2, true);
    layer.after = target->Counters();
    measured.Append(runner.Run(args.seconds / 4, false));
  }
  const double measured_wall_s = static_cast<double>(NowNanos() - measured_t0) / 1e9;
  const CpuUsage cpu_after = CpuUsage::Now();
  const uint64_t settle_t0 = NowNanos();
  Status settled = target->Settle();
  const double settle_ms = static_cast<double>(NowNanos() - settle_t0) / 1e6;
  std::printf("warm-up: %.2f s, first half %.0f ops/s, second half %.0f ops/s; measured %.0f "
              "ops/s (first half of warm-up %+.1f%% from measured)\n",
              warm, warm1.ops_per_s(), warm2.ops_per_s(), measured.ops_per_s(),
              100 * Div(warm1.ops_per_s() - measured.ops_per_s(), measured.ops_per_s()));
  // A run that got fewer cores than it asked for was slowed by the host, not
  // by the program: CPU time per op stays put while ops/s drops.
  const double cpu_s = cpu_after.cpu_s - cpu_before.cpu_s;
  std::printf("cpu: %.2f CPU-s in %.2f s wall (%.2f of %u cores busy), %.2f us CPU per op, "
              "%ld involuntary context switches\n",
              cpu_s, measured_wall_s, Div(cpu_s, measured_wall_s),
              std::thread::hardware_concurrency(),
              Div(cpu_s * 1e6,
                  static_cast<double>(measured.acked_total() + layer.traced.acked_total())),
              cpu_after.involuntary_switches - cpu_before.involuntary_switches);

  if (args.inject_fault) {
    // Negative control, planted after the last client op so that no client
    // write can repair it: key 0 (always re-read below) now holds a value
    // written for key 1.
    Status st = target->Upsert(0, EncodeValue(1, 0, book->Issue(0)), nullptr);
    if (st.ok()) {
      st = target->Settle();
    }
    std::printf("fault injected: key 0 holds a value for key 1 (%s)\n", st.ToString().c_str());
  }

  // Post-run checks.
  uint64_t check_failures = 0;
  auto violation = [&](const std::string& what) {
    ++check_failures;
    failures.Note("post-run check: " + what);
  };
  if (!settled.ok()) {
    violation("settle: " + settled.ToString());
  }
  const uint64_t live_keys = w.target.nkeys + runner.inserts_acked();
  if (Status st = target->CheckStructure(live_keys); !st.ok()) {
    violation(st.ToString());
  }
  Xoshiro256 rng(args.seed ^ 0x5EEDC0DEull);
  for (size_t i = 0; i < kVerifySample; ++i) {
    const uint64_t key = i == 0 ? 0 : rng.NextBounded(w.target.nkeys);
    std::string v;
    Status st = target->Read(key, &v, nullptr);
    if (!st.ok()) {
      violation("read key " + std::to_string(key) + ": " + st.ToString());
    } else if (const char* bad = CheckValue(v, key, *book)) {
      violation("read key " + std::to_string(key) + ": " + bad);
    } else if (i < kReplicaSample) {
      if (Status r = target->CheckReplicas(key, v); !r.ok()) {
        violation(r.ToString());
      }
    }
  }

  const uint64_t attempted = warm1.attempted + warm2.attempted + measured.attempted +
                             layer.traced.attempted + kVerifySample;
  const uint64_t failed =
      warm1.failed + warm2.failed + measured.failed + layer.traced.failed + check_failures;
  const bool correct = failed == 0;

  // End-to-end metrics (untraced ops only).
  std::vector<Metric> e2e;
  e2e.push_back({"ops_per_s", measured.ops_per_s(), "ops/s",
                 Count(measured.acked_total()) + " ops in " + Fixed(measured.elapsed_s, 3) + " s"});
  e2e.push_back({"ops_per_s_1s_median", WindowMedianRate(measured), "ops/s",
                 "median over 1-s windows"});
  for (int c = 0; c < kNumClasses; ++c) {
    if (measured.latency_ns[c].empty()) {
      continue;
    }
    const Percentiles p = ExactPercentiles(measured.latency_ns[c]);
    const std::string n = Count(p.n);
    const std::string tail = "p" + Fixed(p.pmax, 4) + "=" + Fixed(p.pmax_us, 3) + " us";
    e2e.push_back({std::string(kClassNames[c]) + "_p50_us", p.p50_us, "us", n});
    e2e.push_back({std::string(kClassNames[c]) + "_p99_us", p.p99_us, "us", n + ", " + tail});
    e2e.push_back({std::string(kClassNames[c]) + "_p50_us_1s_median", WindowMedianP50(measured, c),
                   "us", "median over 1-s windows of each window's p50"});
  }
  e2e.push_back({"failed_frac", Div(static_cast<double>(failed), static_cast<double>(attempted)),
                 "ratio", std::to_string(failed) + " of " + std::to_string(attempted)});
  e2e.push_back({"setup_s", setup_median, "s", "median of " + std::to_string(setups)});
  e2e.push_back({"nvm_bytes_per_user_byte",
                 Div(static_cast<double>(target->NvmBytes()),
                     static_cast<double>(live_keys) * kValueSize),
                 "ratio", std::to_string(live_keys) + " live keys"});
  std::printf("end-to-end (tracing off):\n");
  for (const Metric& m : e2e) {
    PrintMetric(m);
  }

  std::vector<Metric> all_metrics = e2e;
  if (args.trace) {
    layer.untraced_ops_per_s = measured.ops_per_s();
    layer.settle_ms = settle_ms;
    layer.tree_height = target->TreeHeight();
    layer.live_keys = live_keys;
    std::vector<Metric> missing;
    std::vector<Metric> lm = LayerMetrics(layer, &missing);
    std::printf("per-layer (traced run, %.2f s, %" PRIu64 " ops):\n", layer.traced.elapsed_s,
                layer.traced.acked_total());
    for (const Metric& m : lm) {
      PrintMetric(m);
    }
    for (const Metric& m : missing) {
      std::printf("  %-40s %18s %-7s %s\n", m.name.c_str(), "n/a", m.unit.c_str(),
                  m.note.c_str());
    }
    // Where a write's traced latency goes.
    const SpanTable& s = layer.traced.spans;
    const SpanAgg& root = s[kOpWrite][kOpWrite];
    if (root.count > 0) {
      std::printf("traced write breakdown (mean us per write, nested spans included, %" PRIu64
                  " writes): total %.3f",
                  root.count, Div(root.total_ns / 1e3, root.count));
      for (int n = kNumRoots; n < kNumSpanNames; ++n) {
        const SpanAgg& a = s[kOpWrite][n];
        if (a.count > 0) {
          std::printf(", %s %.3f", SpanNameString(static_cast<SpanName>(n)),
                      Div(a.total_ns / 1e3, root.count));
        }
      }
      std::printf("; spans cover %.1f%% of it\n", 100 * Div(root.child_ns, root.total_ns));
      // The commit prediction: persist cost ~ drains x drain cost + lines x
      // line cost (main pool, on the client's critical path).
      const double writes =
          static_cast<double>(layer.traced.acked[kClassWrite] + layer.traced.acked[kClassMulti]);
      const double drains = Div(Delta(layer.before, layer.after, "nvm.main.drains"), writes);
      const double lines = Div(Delta(layer.before, layer.after, "nvm.main.lines"), writes);
      std::printf("emulated NVM stall per write (main pools): %.3f us = %.2f drains x %u ns + "
                  "%.2f lines x %u ns\n",
                  (drains * w.target.cost.drain_ns + lines * w.target.cost.flush_ns) / 1e3,
                  drains, w.target.cost.drain_ns, lines, w.target.cost.flush_ns);
    }
    if (!args.trace_out.empty()) {
      const bool ok = WriteSpans(args.trace_out, runner.spans());
      std::printf("spans: %s %s\n", ok ? "written to" : "FAILED to write", args.trace_out.c_str());
    }
    all_metrics.insert(all_metrics.end(), lm.begin(), lm.end());
  }

  std::printf("correctness: %s (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              correct ? "ok" : "VIOLATED", failed, attempted);
  for (const std::string& f : failures.first) {
    std::printf("  failure: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, JsonMetrics(all_metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
