// Per-process stable-storage model for checkpoints (§2.2).
//
// Tracks what is currently stored, distinguishes garbage-collection
// eliminations from rollback discards (they mean different things in the
// evaluation), and maintains the peak-occupancy statistics the paper's
// bounds are stated against (n per process steady, n+1 transient, §4.5).
//
// Storage layout: two parallel flat vectors ordered by strictly ascending
// checkpoint index — the index column doubles as the stored_indices() view,
// and every lookup is a binary search over a contiguous array.  With RDT-LGC
// at most n+1 checkpoints are live, so erase shifts are tiny and the
// GC-elimination path never allocates.
//
// This is the read store of every process: ShardedCheckpointStore
// (sharded_checkpoint_store.hpp) holds exactly one, and it is the only
// in-memory copy of each checkpoint and the only read path, whatever
// medium (storage_backend.hpp) persists the mutations underneath.  The
// media replay into one of these on recover().  Tests also use it on its
// own as the reference the whole stack is compared against.
#pragma once

#include <cstdint>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class CheckpointStore {
 public:
  explicit CheckpointStore(ProcessId owner) : owner_(owner) {}

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const { return owner_; }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free: push_back only,
  /// no heap traffic once the vectors reached steady-state capacity.
  void put(StoredCheckpoint checkpoint);

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into a buffer recycled by collect() (the spare stack), so
  /// steady-state checkpoint-and-collect churn never touches the heap.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes);

  /// Membership test; one binary search.  Never allocates.
  bool contains(CheckpointIndex index) const;
  /// Reference into the flat store — invalidated by the next mutation
  /// (put/collect/discard_after); copy before interleaving.  Never
  /// allocates; throws ContractViolation when absent.
  const StoredCheckpoint& get(CheckpointIndex index) const;

  /// View of the stored DV (into this store's owning vector).  Never
  /// allocates; invalidated by the next mutation.
  causality::DvView dv_view(CheckpointIndex index) const {
    return get(index).dv.view();
  }

  /// Garbage-collection elimination of an obsolete checkpoint; its DV
  /// buffer goes onto the spare stack.  Allocation-free once the stack
  /// reached its peak.
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free (suffix
  /// resize only).
  std::size_t discard_after(CheckpointIndex ri);

  /// Currently stored indices, ascending.  O(1): a live view of the store's
  /// flat index, invalidated by the next mutation — snapshot (copy) before
  /// interleaving with put/collect/discard_after.
  const std::vector<CheckpointIndex>& stored_indices() const {
    return indices_;
  }

  /// Highest stored index; store is never empty after the initial checkpoint.
  /// O(1), never allocates; throws ContractViolation on an empty store.
  CheckpointIndex last_index() const;

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const { return indices_.size(); }
  /// Bytes currently held.  O(1), never allocates.
  std::uint64_t bytes() const { return bytes_; }

  using Stats = StoreStats;
  /// Lifetime counters (see StoreStats fields).  O(1), never allocates.
  const Stats& stats() const { return stats_; }

  /// Overwrite the lifetime counters.  ONLY for medium recovery (a medium
  /// replays its live set into this store and then restores the persisted
  /// counters, whose history — peaks included — a live-set replay cannot
  /// reconstruct).
  void restore_stats(const Stats& stats) { stats_ = stats; }

 private:
  /// Position of `index` in the flat arrays, or count() if absent.
  std::size_t position(CheckpointIndex index) const;

  ProcessId owner_;
  std::vector<CheckpointIndex> indices_;       // sorted ascending
  std::vector<StoredCheckpoint> checkpoints_;  // parallel to indices_
  /// Dead checkpoints recycled by collect(), popped by the copy-in put(),
  /// which reuses their DV buffers so the steady-state churn is
  /// allocation-free even when one delivery releases several checkpoints.
  /// Every shell was live once, so the stack never outgrows the store's
  /// peak count (n+1 under RDT-LGC).
  std::vector<StoredCheckpoint> spare_;
  std::uint64_t bytes_ = 0;
  Stats stats_;
};

}  // namespace rdtgc::ckpt
