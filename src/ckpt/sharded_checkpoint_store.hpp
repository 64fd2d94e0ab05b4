// The per-process stable-storage model: one read store over at most one
// medium.
//
// Every process keeps one flat CheckpointStore (checkpoint_store.hpp): the
// only in-memory copy of each checkpoint and the only read path — get,
// dv_view, stored_indices, stats all answer from it.  RDT-LGC keeps at most
// n+1 checkpoints live (§4.5), so its erase shifts stay tiny and the
// steady-state put/collect churn never allocates.
//
// Persistence.  StorageConfig (storage_backend.hpp) picks the medium once,
// at construction: none (in-memory), an mmap'd segment, or an append-only
// log, in one file at StorageConfig::stripe_file(owner, 0) inside
// StorageConfig::directory.  The medium is write-only: it records each
// mutation and persists the store's lifetime counters in its header, and
// recover() replays it into the read store when the process reopens its
// file (OpenMode::kAttach) — the entry point
// recovery::recovery_line_from_storage() builds a full restart-from-disk
// on.  Under the default kSync policy every mutation is validated against
// the read store, written to the medium, and only then applied to the read
// store, so a medium write that throws util::IoError (e.g. ENOSPC) leaves
// both exactly as they were.  flush() is the msync/fsync durability point.
//
// Group commit.  With a persistent medium and the kGroupCommit
// StorageConfig::durability policy the store splits acknowledged state from
// durable state: the read store is the ACKNOWLEDGED state and runs ahead,
// the medium holds the DURABLE state, and a ckpt::DurabilityPipeline
// records each acknowledged mutation and replays whole windows into the
// medium as group commits — one fsync (log) or msync (mmap) per window
// instead of per operation (durability_pipeline.hpp has the full design:
// scheduling, crash semantics, media errors).  Dropping a pipelined
// store without flush() models a crash: the un-drained window is discarded
// and recovery lands on the last commit's consistent prefix of the
// acknowledged history.  durability() exposes the acked-vs-synced lag that
// metrics::DurabilityLag samples.
//
// Threading: one thread mutates and reads a store (one simulation is one
// thread, and so is a worker process), and its group commits run on that
// thread inside the mutating call or flush().
//
// The class keeps its name and its four-argument constructor for existing
// callers; the constructor accepts only one stripe and the unsynchronized
// mode.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/durability_pipeline.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

/// Threading mode of a ShardedCheckpointStore: a store is single-threaded.
enum class StoreConcurrency {
  kUnsynchronized,
};

class ShardedCheckpointStore {
 public:
  /// The only stripe count the constructor accepts.
  static constexpr std::size_t kDefaultShardCount = 1;

  /// `shard_count` must be kDefaultShardCount and `concurrency`
  /// kUnsynchronized.  `storage` selects the medium (default: none); with
  /// OpenMode::kAttach the store opens the existing medium and recover()
  /// must run before any mutation.  Throws util::IoError when the medium
  /// cannot be opened.
  explicit ShardedCheckpointStore(
      ProcessId owner, std::size_t shard_count = kDefaultShardCount,
      StoreConcurrency concurrency = StoreConcurrency::kUnsynchronized,
      const StorageConfig& storage = StorageConfig());

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const { return store_.owner(); }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free.
  void put(StoredCheckpoint checkpoint);

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into a buffer recycled by collect(), so steady-state
  /// checkpoint-and-collect churn never touches the heap.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes);

  /// Membership test; one binary search.  Never allocates.
  bool contains(CheckpointIndex index) const { return store_.contains(index); }

  /// Reference into the read store — invalidated by the next mutation
  /// (put/collect/discard_after); copy before interleaving.  Never
  /// allocates; throws ContractViolation when absent.
  const StoredCheckpoint& get(CheckpointIndex index) const {
    return store_.get(index);
  }

  /// Non-owning view of the stored dependency vector.  Invalidated by the
  /// next mutation.
  causality::DvView dv_view(CheckpointIndex index) const {
    return store_.dv_view(index);
  }

  /// Garbage-collection elimination of an obsolete checkpoint.
  /// Allocation-free.
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free.
  std::size_t discard_after(CheckpointIndex ri);

  /// Currently stored indices, ascending.  O(1): a live view, invalidated
  /// by the next mutation — snapshot (copy) before interleaving with
  /// put/collect/discard_after.
  const std::vector<CheckpointIndex>& stored_indices() const {
    return store_.stored_indices();
  }

  /// Highest stored index; store is never empty after the initial
  /// checkpoint.  O(1), never allocates; throws ContractViolation on an
  /// empty store.
  CheckpointIndex last_index() const { return store_.last_index(); }

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const { return store_.count(); }
  /// Bytes held.  O(1), never allocates.
  std::uint64_t bytes() const { return store_.bytes(); }

  /// Lifetime counters (see StoreStats).  O(1), never allocates.
  using Stats = StoreStats;
  const Stats& stats() const { return store_.stats(); }

  // ---- Persistence (see the header comment) ----

  /// Rebuild the read store from the medium — checkpoints, DVs and the
  /// counters its header persisted.  Required (once) after constructing
  /// with OpenMode::kAttach, a no-op on a live store.  Returns the number
  /// of live checkpoints.  May allocate (recovery is off every hot path).
  std::size_t recover();

  /// Durability point: sync the medium (msync/fsync).  Under kGroupCommit,
  /// first drains the pipeline so every acknowledged mutation is durable on
  /// return.  No-op for in-memory storage.
  void flush();

  /// The medium, or nullptr for in-memory storage (introspection for
  /// tests and benches: media counters, fsyncs()/msyncs()).
  const StorageBackend* medium() const { return medium_.get(); }

  // ---- Group commit (see the header comment) ----

  /// Whether a DurabilityPipeline is active (persistent medium under
  /// kGroupCommit).  O(1), never allocates.
  bool pipelined() const { return pipeline_ != nullptr; }

  /// The pipeline, or nullptr in kSync / in-memory mode.
  DurabilityPipeline* pipeline() { return pipeline_.get(); }
  const DurabilityPipeline* pipeline() const { return pipeline_.get(); }

  /// Acked-vs-synced snapshot.  Without a pipeline the lag is identically
  /// zero (indices report last_index()).
  DurabilityStatus durability() const;

 private:
  /// Medium mode: rejects mutations before recover(); true when the
  /// mutation is written to the medium before the read store (kSync).
  bool writes_through() const;

  CheckpointStore store_;
  std::unique_ptr<StorageBackend> medium_;
  bool pending_recover_ = false;
  /// Group-commit pipeline (persistent medium under kGroupCommit only).
  /// Declared after medium_, which it drains into, so it is destroyed
  /// first.
  std::unique_ptr<DurabilityPipeline> pipeline_;
};

}  // namespace rdtgc::ckpt
