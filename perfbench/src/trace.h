// Spans recorded by the benchmark around its calls into each layer.
//
// Each client thread owns one SpanBuffer. A span has a name, a start, an
// end, a parent (the enclosing open span of the same thread) and the id of
// the client op it belongs to. Closing a span folds it into per-(root op,
// name) aggregates — count, total, self time (total minus the time its
// direct children cover) and an item count — and, up to a fixed cap, keeps
// the raw record so the spans can be written out when the run ends.
// A null SpanBuffer* turns every ScopedSpan into a no-op (the untraced run).

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/stats/histogram.h"

namespace perfbench {

enum SpanName : uint8_t {
  // Roots: one per client op, named by its op class.
  kOpRead,
  kOpWrite,
  kOpMulti,
  kOpScan,
  kOpSnapScan,
  kNumRoots,
  // Layer boundaries.
  kPdsTreeGuard = kNumRoots,
  kTxnBegin,
  kPdsGet,
  kPdsUpdate,
  kPdsInsert,
  kPdsScan,
  kTxnCommit,
  kTxnAbort,
  kBackupOpenSnapshot,
  kPdsSnapshotScan,
  kBackupReleaseSnapshot,
  kShardRoute,
  kShardSingle,
  kShardMulti,
  kChainWrite,
  kChainRead,
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

struct SpanAgg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t child_ns = 0;  // Time covered by direct children.
  uint64_t items = 0;     // Keys returned, for scan spans.

  void Add(const SpanAgg& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    child_ns += o.child_ns;
    items += o.items;
  }
};

// Aggregates indexed [root][name].
using SpanTable = std::array<std::array<SpanAgg, kNumSpanNames>, kNumRoots>;

struct SpanRecord {
  uint64_t op_id;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  // Index into the same thread's records; kNoParent for roots.
  uint8_t name;
};
inline constexpr uint32_t kNoParent = ~uint32_t{0};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t record_cap) { records_.reserve(record_cap); }

  void Open(SpanName name, uint64_t op_id) {
    Frame& f = stack_[depth_++];
    f.name = name;
    f.start_ns = kamino::stats::NowNanos();
    f.child_ns = 0;
    f.items = 0;
    f.record = kNoParent;
    if (depth_ == 1) {
      root_ = name;
      op_id_ = op_id;
    }
    if (records_.size() < records_.capacity()) {
      const uint32_t parent = depth_ > 1 ? stack_[depth_ - 2].record : kNoParent;
      f.record = static_cast<uint32_t>(records_.size());
      records_.push_back({op_id_, f.start_ns, 0, parent, static_cast<uint8_t>(name)});
    }
  }

  void AddItems(uint64_t n) { stack_[depth_ - 1].items += n; }

  void Close() {
    const uint64_t end = kamino::stats::NowNanos();
    Frame& f = stack_[--depth_];
    const uint64_t dur = end - f.start_ns;
    SpanAgg& a = table_[root_][f.name];
    a.count += 1;
    a.total_ns += dur;
    a.child_ns += f.child_ns;
    a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    a.items += f.items;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    }
    if (f.record != kNoParent) {
      records_[f.record].end_ns = end;
    }
  }

  const SpanTable& table() const { return table_; }
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  struct Frame {
    SpanName name;
    uint64_t start_ns;
    uint64_t child_ns;
    uint64_t items;
    uint32_t record;
  };
  std::array<Frame, 8> stack_{};
  int depth_ = 0;
  SpanName root_ = kOpRead;
  uint64_t op_id_ = 0;
  SpanTable table_{};
  std::vector<SpanRecord> records_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, SpanName name, uint64_t op_id = 0) : buf_(buf) {
    if (buf_ != nullptr) {
      buf_->Open(name, op_id);
    }
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      buf_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddItems(uint64_t n) {
    if (buf_ != nullptr) {
      buf_->AddItems(n);
    }
  }

 private:
  SpanBuffer* buf_;
};

// Writes every kept record of `buffers` as tab-separated lines:
// thread, index, parent, op_id, name, start_ns, end_ns. Returns false on I/O
// failure.
bool WriteSpans(const std::string& path, const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
