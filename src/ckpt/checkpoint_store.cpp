#include "ckpt/checkpoint_store.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

std::size_t CheckpointStore::position(CheckpointIndex index) const {
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return indices_.size();
  return static_cast<std::size_t>(it - indices_.begin());
}

void CheckpointStore::put(StoredCheckpoint checkpoint) {
  RDTGC_EXPECTS(checkpoint.index >= 0);
  RDTGC_EXPECTS(indices_.empty() || checkpoint.index > indices_.back());
  bytes_ += checkpoint.bytes;
  indices_.push_back(checkpoint.index);
  checkpoints_.push_back(std::move(checkpoint));
  stats_.note_put(indices_.size(), bytes_);
}

bool CheckpointStore::contains(CheckpointIndex index) const {
  return position(index) != indices_.size();
}

const StoredCheckpoint& CheckpointStore::get(CheckpointIndex index) const {
  const std::size_t pos = position(index);
  RDTGC_EXPECTS(pos != indices_.size());
  return checkpoints_[pos];
}

void CheckpointStore::put(CheckpointIndex index,
                          const causality::DependencyVector& dv,
                          SimTime stored_at, std::uint64_t bytes) {
  StoredCheckpoint checkpoint;
  if (!spare_.empty()) {
    checkpoint = std::move(spare_.back());
    spare_.pop_back();
  }
  checkpoint.index = index;
  checkpoint.dv = dv;  // same-size copy assignment reuses the recycled buffer
  checkpoint.stored_at = stored_at;
  checkpoint.bytes = bytes;
  put(std::move(checkpoint));
}

void CheckpointStore::collect(CheckpointIndex index) {
  const std::size_t pos = position(index);
  RDTGC_EXPECTS(pos != indices_.size());
  bytes_ -= checkpoints_[pos].bytes;
  spare_.push_back(std::move(checkpoints_[pos]));  // recycle the DV buffer
  indices_.erase(indices_.begin() + static_cast<std::ptrdiff_t>(pos));
  checkpoints_.erase(checkpoints_.begin() + static_cast<std::ptrdiff_t>(pos));
  ++stats_.collected;
}

std::size_t CheckpointStore::discard_after(CheckpointIndex ri) {
  const auto it = std::upper_bound(indices_.begin(), indices_.end(), ri);
  const auto pos = static_cast<std::size_t>(it - indices_.begin());
  const std::size_t discarded = indices_.size() - pos;
  for (std::size_t k = pos; k < checkpoints_.size(); ++k)
    bytes_ -= checkpoints_[k].bytes;
  indices_.resize(pos);
  checkpoints_.resize(pos);
  stats_.discarded += discarded;
  return discarded;
}

CheckpointIndex CheckpointStore::last_index() const {
  RDTGC_EXPECTS(!indices_.empty());
  return indices_.back();
}

}  // namespace rdtgc::ckpt
