#include "src/txn/engine_base.h"

namespace kamino::txn {

Result<void*> EngineBase::OpenWrite(TxContext* ctx, uint64_t offset, uint64_t size) {
  const WriteSpan span{offset, size};
  void* p = nullptr;
  KAMINO_RETURN_IF_ERROR(OpenWriteBatch(ctx, &span, 1, &p));
  return p;
}

Status EngineBase::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                  void** out) {
  bool appended = false;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    if (ctx->open_ranges.count(offset) != 0) {
      continue;  // Already open (possibly via Alloc or an earlier span).
    }
    Result<uint64_t> size = ResolveSize(offset, spans[i].size);
    if (!size.ok()) {
      return size.status();
    }
    KAMINO_RETURN_IF_ERROR(FenceDirtyRange(offset, *size));
    KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
    // Declaring write intent = taking the object lock (paper §3). If the
    // object is pending (a prior transaction's backup sync is outstanding)
    // this blocks — the dependent-transaction wait.
    KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
    Result<Intent> intent = StageWrite(ctx, offset, *size);
    if (!intent.ok()) {
      return intent.status();
    }
    RecordIntent(ctx, *intent);
    appended = true;
  }
  if (appended) {
    log_->DrainAppends();
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = OpenedPointer(ctx, spans[i].offset);
  }
  return Status::Ok();
}

Result<uint64_t> EngineBase::Alloc(TxContext* ctx, uint64_t size) {
  KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
  Result<alloc::Reservation> resv = heap_->allocator()->PrepareAlloc(size);
  if (!resv.ok()) {
    return resv.status();
  }
  // The fence comes first: a background reconcile reading the new object's
  // chunk while the caller stores through the returned offset would race on
  // the main heap. Then the lock (trivially uncontended — the object is not
  // yet reachable), and the intent is durable *before* any persistent
  // allocator metadata changes, so recovery can always compensate.
  Status st = FenceDirtyRange(resv->offset, resv->size);
  if (st.ok()) {
    st = LockWrite(ctx, resv->offset);
  }
  if (st.ok()) {
    st = log_->AppendRecord(ctx->slot, IntentKind::kAlloc, resv->offset, resv->size);
  }
  if (!st.ok()) {
    heap_->allocator()->CancelAlloc(*resv);
    return st;
  }
  heap_->allocator()->CommitAlloc(*resv);
  RecordIntent(ctx, Intent{IntentKind::kAlloc, resv->offset, resv->size, 0});
  return resv->offset;
}

Status EngineBase::Free(TxContext* ctx, uint64_t offset) {
  KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
  Result<uint64_t> size = ResolveSize(offset, 0);
  if (!size.ok()) {
    return size.status();
  }
  KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
  // drain=false: the free is deferred to post-commit, so the record only
  // matters if the transaction commits — and the commit-point drain (or any
  // earlier append's drain) makes it durable by then. A lost kFree record
  // means a never-performed free, never corruption (DESIGN.md §8).
  KAMINO_RETURN_IF_ERROR(log_->AppendRecord(ctx->slot, IntentKind::kFree, offset, *size, 0,
                                            /*drain=*/false));
  ctx->intents.push_back(Intent{IntentKind::kFree, offset, *size, 0});
  return Status::Ok();
}

Status EngineBase::FinishCommit(TxContext* ctx) {
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRawKeepReserved(in.offset));
    }
  }
  log_->ReleaseSlot(ctx->slot);
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      heap_->allocator()->ReleaseReservation(in.offset);
    }
  }
  ReleaseWriteLocks(ctx);
  committed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status EngineBase::Abort(TxContext* ctx) {
  // A transaction without a slot (read-only, or the no-logging engine) has
  // no record to mark and no slot to release.
  const bool logged = ctx->slot.valid();
  if (logged) {
    log_->SetState(ctx->slot, TxState::kAborted);
  }
  nvm::PersistSiteScope site("engine/abort-rollback");
  // An early return here would leak the slot and the write locks, wedging
  // every dependent transaction.
  Status result = Status::Ok();
  for (auto it = ctx->intents.rbegin(); it != ctx->intents.rend(); ++it) {
    Status st = Status::Ok();
    if (it->kind == IntentKind::kAlloc) {
      st = heap_->allocator()->FreeRaw(it->offset);
    } else if (it->kind != IntentKind::kFree) {
      st = RollBackWrite(*it);
    }
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  if (logged) {
    log_->ReleaseSlot(ctx->slot);
  }
  ReleaseWriteLocks(ctx);
  aborted_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace kamino::txn
