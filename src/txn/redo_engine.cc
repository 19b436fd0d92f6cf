#include "src/txn/redo_engine.h"

#include <cstring>

namespace kamino::txn {

Result<Intent> RedoLogEngine::StageWrite(TxContext* ctx, uint64_t offset, uint64_t size) {
  // Critical-path staging copy inside the log slot (no heap allocation, but
  // still a copy — the cost profile the paper's §2 attributes to NVM-Log).
  // The staged values only matter once the commit record is durable, and
  // the commit path drains them before that, so the copy itself is not
  // flushed here.
  Result<uint64_t> staging = log_->ReservePayload(ctx->slot, size);
  if (!staging.ok()) {
    return staging.status();
  }
  std::memcpy(pool()->At(*staging), pool()->At(offset), size);
  KAMINO_RETURN_IF_ERROR(log_->AppendRecord(ctx->slot, IntentKind::kRedoWrite, offset, size,
                                            *staging, /*drain=*/false));
  return Intent{IntentKind::kRedoWrite, offset, size, *staging};
}

Status RedoLogEngine::Commit(std::unique_ptr<TxContext> ctx) {
  if (CommitReadOnly(ctx.get())) {
    return Status::Ok();
  }
  // 1. Persist the staged new values + objects allocated in this txn.
  {
    nvm::PersistSiteScope site("redo/stage-commit");
    bool flushed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kRedoWrite) {
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
  // 3. Redo: install the staged values over the originals (replayed by
  //    recovery if we crash mid-install).
  {
    nvm::PersistSiteScope site("redo/install");
    bool installed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kRedoWrite) {
        std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
        pool()->Flush(pool()->At(in.offset), in.size);
        installed = true;
      }
    }
    if (installed) {
      pool()->Drain();
    }
  }
  // 4. Deferred frees, then release.
  return FinishCommit(ctx.get());
}

Status RedoLogEngine::RollBackWrite(const Intent& in) {
  (void)in;  // The main heap was never touched.
  return Status::Ok();
}

Status RedoLogEngine::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  std::vector<RecoveredTx> txs = log_->ScanForRecovery();
  for (const RecoveredTx& tx : txs) {
    SlotHandle handle = log_->HandleForRecovered(tx);
    if (tx.state == TxState::kCommitted) {
      // Replay the redo step from the durable staging copies.
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kRedoWrite) {
          std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
          pool()->Persist(pool()->At(in.offset), in.size);
        } else if (in.kind == IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kAlloc) {
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
