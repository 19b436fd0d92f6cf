#include "src/txn/cow_engine.h"

#include <cstring>

namespace kamino::txn {

Status CowEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                 void** out) {
  // Two phases so the existing crash-ordering invariant (shadow record
  // durable before any persistent allocator metadata changes) holds for the
  // whole batch with a single drain: first reserve + flush every record,
  // drain once, then commit the allocations and populate the shadows.
  struct PendingSpan {
    size_t span_index;
    alloc::Reservation resv;
    uint64_t size;
  };
  std::vector<PendingSpan> pending;
  pending.reserve(count);
  auto cancel_pending = [&] {
    for (const PendingSpan& p : pending) {
      heap_->allocator()->CancelAlloc(p.resv);
    }
  };
  auto is_pending = [&](uint64_t offset) {
    for (const PendingSpan& p : pending) {
      if (spans[p.span_index].offset == offset) {
        return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    // A repeat of an earlier span in this batch must not get a second
    // shadow: installing that untouched copy at commit would undo the edits.
    if (ctx->open_ranges.count(offset) != 0 || is_pending(offset)) {
      continue;
    }
    Result<uint64_t> resolved = ResolveSize(offset, spans[i].size);
    if (!resolved.ok()) {
      cancel_pending();
      return resolved.status();
    }
    const uint64_t size = *resolved;
    Status st = EnsureSlot(ctx);
    if (st.ok()) {
      st = LockWrite(ctx, offset);
    }
    if (!st.ok()) {
      cancel_pending();
      return st;
    }
    Result<alloc::Reservation> resv = heap_->allocator()->PrepareAlloc(size);
    if (!resv.ok()) {
      cancel_pending();
      return resv.status();
    }
    st = log_->AppendRecord(ctx->slot, IntentKind::kCowWrite, offset, size, resv->offset,
                            /*drain=*/false);
    if (!st.ok()) {
      heap_->allocator()->CancelAlloc(*resv);
      cancel_pending();
      return st;
    }
    pending.push_back(PendingSpan{i, *resv, size});
  }
  if (!pending.empty()) {
    log_->DrainAppends();
  }
  for (const PendingSpan& p : pending) {
    heap_->allocator()->CommitAlloc(p.resv);
    const uint64_t offset = spans[p.span_index].offset;
    std::memcpy(pool()->At(p.resv.offset), pool()->At(offset), p.size);
    RecordIntent(ctx, Intent{IntentKind::kCowWrite, offset, p.size, p.resv.offset});
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = OpenedPointer(ctx, spans[i].offset);
  }
  return Status::Ok();
}

Status CowEngine::Commit(std::unique_ptr<TxContext> ctx) {
  if (CommitReadOnly(ctx.get())) {
    return Status::Ok();
  }
  // 1. Persist the shadows and any objects allocated in this transaction.
  {
    nvm::PersistSiteScope site("cow/persist-shadows");
    bool flushed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kCowWrite) {
        pool()->Flush(pool()->At(in.aux), in.size);
        flushed = true;
      } else if (in.kind == IntentKind::kAlloc) {
        pool()->Flush(pool()->At(in.offset), in.size);
        flushed = true;
      }
    }
    if (flushed) {
      pool()->Drain();
    }
  }
  // 2. Durable commit point.
  log_->SetState(ctx->slot, TxState::kCommitted);
  // 3. Install shadows over the originals (redo; replayed by recovery if we
  //    crash mid-install).
  {
    nvm::PersistSiteScope site("cow/install");
    bool installed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kCowWrite) {
        std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
        pool()->Flush(pool()->At(in.offset), in.size);
        installed = true;
      }
    }
    if (installed) {
      pool()->Drain();
    }
  }
  // 4. Cleanup: delete the shadows, then the deferred frees and release.
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kCowWrite) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
    }
  }
  return FinishCommit(ctx.get());
}

Status CowEngine::RollBackWrite(const Intent& in) {
  return heap_->allocator()->FreeRaw(in.aux);  // The original was never touched.
}

Status CowEngine::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  std::vector<RecoveredTx> txs = log_->ScanForRecovery();
  for (const RecoveredTx& tx : txs) {
    SlotHandle handle = log_->HandleForRecovered(tx);
    if (tx.state == TxState::kCommitted) {
      // Redo the install from the durable shadows, then clean up.
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kCowWrite) {
          std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
          pool()->Persist(pool()->At(in.offset), in.size);
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
        } else if (in.kind == IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kCowWrite) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
        } else if (in.kind == IntentKind::kAlloc) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_back_.fetch_add(1, std::memory_order_relaxed);
    }
    log_->ReleaseSlot(handle);
  }
  return Status::Ok();
}

}  // namespace kamino::txn
