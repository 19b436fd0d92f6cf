#include "src/trace.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  // In SpanName order.
  static constexpr const char* kNames[kNumSpanNames] = {
      "op.read",
      "op.write",
      "op.multi",
      "op.scan",
      "op.snapscan",
      "pds.tree_guard",
      "txn.begin",
      "pds.get",
      "pds.update",
      "pds.insert",
      "pds.scan",
      "txn.commit",
      "txn.abort",
      "txn.backup.open_snapshot",
      "pds.snapshot_scan",
      "txn.backup.release_snapshot",
      "shard.route",
      "shard.single",
      "shard.multi",
      "chain.write",
      "chain.read",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

bool WriteSpans(const std::string& path, const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread\tindex\tparent\top_id\tname\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<SpanRecord>& recs = buffers[t]->records();
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      const long long parent = r.parent == kNoParent ? -1 : static_cast<long long>(r.parent);
      std::fprintf(f, "%zu\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\n", t, i, parent,
                   static_cast<unsigned long long>(r.op_id),
                   SpanNameString(static_cast<SpanName>(r.name)),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
