#include "ckpt/sharded_checkpoint_store.hpp"

#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

ShardedCheckpointStore::ShardedCheckpointStore(ProcessId owner,
                                               std::size_t shard_count,
                                               StoreConcurrency concurrency,
                                               const StorageConfig& storage)
    : store_(owner) {
  RDTGC_EXPECTS(shard_count == kDefaultShardCount);
  RDTGC_EXPECTS(concurrency == StoreConcurrency::kUnsynchronized);
  medium_ = make_backend(storage, owner);
  if (medium_ == nullptr) return;
  pending_recover_ = storage.open_mode == OpenMode::kAttach;
  if (storage.durability.mode != DurabilityMode::kSync)
    pipeline_ =
        std::make_unique<DurabilityPipeline>(storage.durability, *medium_);
}

bool ShardedCheckpointStore::writes_through() const {
  RDTGC_EXPECTS(!pending_recover_);
  return pipeline_ == nullptr;
}

// Mutation order with a medium: validate against the read store, write the
// medium (kSync), then change the read store — a medium write that throws
// leaves both as they were.  Under a pipeline the read store changes first
// and the op is recorded for the next group commit.

void ShardedCheckpointStore::put(StoredCheckpoint checkpoint) {
  if (medium_ == nullptr) return store_.put(std::move(checkpoint));
  put(checkpoint.index, checkpoint.dv, checkpoint.stored_at, checkpoint.bytes);
}

void ShardedCheckpointStore::put(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  if (medium_ != nullptr) {
    RDTGC_EXPECTS(index >= 0);
    RDTGC_EXPECTS(count() == 0 || index > last_index());
    if (writes_through()) medium_->put(index, dv, stored_at, bytes);
  }
  store_.put(index, dv, stored_at, bytes);
  if (pipeline_ != nullptr) pipeline_->record_put(index, dv, stored_at, bytes);
}

void ShardedCheckpointStore::collect(CheckpointIndex index) {
  if (medium_ != nullptr) {
    RDTGC_EXPECTS(contains(index));
    if (writes_through()) medium_->collect(index);
  }
  store_.collect(index);
  if (pipeline_ != nullptr) pipeline_->record_collect(index);
}

std::size_t ShardedCheckpointStore::discard_after(CheckpointIndex ri) {
  if (medium_ != nullptr && writes_through()) medium_->discard_after(ri);
  const std::size_t discarded = store_.discard_after(ri);
  if (pipeline_ != nullptr) pipeline_->record_discard(ri);
  return discarded;
}

std::size_t ShardedCheckpointStore::recover() {
  if (!pending_recover_) return count();
  medium_->recover(store_);
  pending_recover_ = false;
  if (pipeline_ != nullptr)
    pipeline_->reset_after_recover(count() > 0 ? last_index() : kNoCheckpoint);
  return count();
}

void ShardedCheckpointStore::flush() {
  // Drain the pipeline first so every acknowledged mutation reaches the
  // medium before its flush below.
  if (pipeline_ != nullptr) pipeline_->commit();
  if (medium_ != nullptr) medium_->flush();
}

DurabilityStatus ShardedCheckpointStore::durability() const {
  if (pipeline_ != nullptr) return pipeline_->status();
  DurabilityStatus status;
  // No pipeline: every mutation is already durable when acknowledged.
  const Stats& s = stats();
  status.acked_ops = s.stored + s.collected + s.discarded;
  status.synced_ops = status.acked_ops;
  status.acked_index = count() > 0 ? last_index() : kNoCheckpoint;
  status.synced_index = status.acked_index;
  return status;
}

}  // namespace rdtgc::ckpt
