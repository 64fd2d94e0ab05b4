#include "ckpt/durability_pipeline.hpp"

#include "util/check.hpp"

namespace rdtgc::ckpt {

DurabilityPipeline::DurabilityPipeline(DurabilityPolicy policy,
                                       StorageBackend& medium)
    : policy_(policy), medium_(medium), window_(policy.every_k_ops) {
  RDTGC_EXPECTS(policy_.mode == DurabilityMode::kGroupCommit);
  RDTGC_EXPECTS(policy_.every_k_ops >= 1);
}

DurabilityPipeline::Op& DurabilityPipeline::record(Op::Kind kind,
                                                   CheckpointIndex index) {
  // A full window drains on the op that fills it, so only ops recorded
  // behind a refused drain land past the reserved slots.
  if (recorded_ == window_.size()) window_.emplace_back();
  Op& op = window_[recorded_++];
  op.kind = kind;
  op.index = index;
  ++status_.acked_ops;
  return op;
}

void DurabilityPipeline::commit_if_due(bool is_put) {
  if (recorded_ - applied_ >= policy_.every_k_ops ||
      (is_put && policy_.every_checkpoint))
    commit();
}

void DurabilityPipeline::record_put(CheckpointIndex index,
                                    const causality::DependencyVector& dv,
                                    SimTime stored_at, std::uint64_t bytes) {
  Op& op = record(Op::Kind::kPut, index);
  op.stored_at = stored_at;
  op.bytes = bytes;
  op.dv = dv;
  status_.acked_index = index;
  commit_if_due(/*is_put=*/true);
}

void DurabilityPipeline::record_collect(CheckpointIndex index) {
  record(Op::Kind::kCollect, index);
  commit_if_due(/*is_put=*/false);
}

void DurabilityPipeline::record_discard(CheckpointIndex ri) {
  record(Op::Kind::kDiscardAfter, ri);
  // A rollback truncates the acknowledged lineage; the acked index follows
  // it down so the lag figures stay meaningful across restarts.
  status_.acked_index = ri;
  commit_if_due(/*is_put=*/false);
}

void DurabilityPipeline::commit() {
  if (applied_ == recorded_) return;
  // Apply in acknowledgment order.  The synced figures follow each op
  // exactly as the record_* calls moved the acked ones, so a drained window
  // reads acked == synced whatever op it ended on (a collect leaves the put
  // high-water alone on both sides).  A medium write that throws leaves the
  // medium as it was before that op (storage_backend.hpp), so applied_
  // stops at the refused op and the next drain resumes there.
  for (; applied_ < recorded_; ++applied_) {
    const Op& op = window_[applied_];
    switch (op.kind) {
      case Op::Kind::kPut:
        medium_.put(op.index, op.dv, op.stored_at, op.bytes);
        status_.synced_index = op.index;
        break;
      case Op::Kind::kCollect:
        medium_.collect(op.index);
        break;
      case Op::Kind::kDiscardAfter:
        medium_.discard_after(op.index);
        status_.synced_index = op.index;  // the lineage truncated to ri
        break;
    }
    ++status_.synced_ops;
  }
  applied_ = recorded_ = 0;
  // One durability point for the whole window.  If it throws, the medium
  // stays dirty and its next flush syncs it.
  medium_.commit();
  ++commits_;
}

void DurabilityPipeline::reset_after_recover(CheckpointIndex last_index) {
  RDTGC_EXPECTS(applied_ == recorded_);  // recover() runs before any mutation
  status_ = DurabilityStatus{0, 0, last_index, last_index};
}

}  // namespace rdtgc::ckpt
