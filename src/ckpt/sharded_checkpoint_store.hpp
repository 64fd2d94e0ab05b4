// Index-striped sharding of the per-process stable-storage model.
//
// The flat CheckpointStore keeps every live checkpoint in one pair of
// parallel vectors, so every collector mutation — asynchronous RDT-LGC
// eliminations, synchronous rounds, timed sweeps — serializes on the same
// contiguous array and the same spare-buffer recycler.  This store splits
// the index space into a power-of-two number of stripes (default 8), each
// stripe a self-contained CheckpointStore with its own flat index/payload
// vectors, its own cached stored_indices() view, and its own recycled
// spare-DV buffer, so the expensive per-mutation work — erase shifts,
// binary searches, spare-buffer reuse — of independent collectors lands on
// disjoint stripes and disjoint cache lines.
//
// Stripe function: shard = index & (shard_count - 1), i.e. the LOW bits of
// the checkpoint index.  The tradeoff against contiguous index ranges:
//  * Under RDT-LGC the live set is a sliding window of the most recent ≤ n
//    indices (§4.5), so low-bit striping round-robins consecutive
//    checkpoints across every shard — the live window is spread evenly and
//    concurrent collectors working near the window's head land on distinct
//    shards.  A contiguous-range split would concentrate the entire live
//    window inside one stripe and re-serialize everything on it.
//  * The cost is that the globally-ordered view interleaves all shards; we
//    pay for it once per mutation batch with a lazily rebuilt merged cache
//    (see stored_indices()) instead of on every put/collect.
//
// Concurrency.  The store has two construction-time modes:
//  * StoreConcurrency::kUnsynchronized (the default) is byte-for-byte the
//    single-threaded store: no locks exist, no atomic RMW instructions run,
//    and every allocation contract below holds exactly.  This is what every
//    sim::Simulator-driven Node uses — one simulation is one thread.
//  * StoreConcurrency::kStriped arms one util::SpinLock per stripe (padded
//    to its own cache line) plus a merged-cache lock.  Mutations take only
//    the owning stripe's lock, so collectors on distinct stripes proceed in
//    parallel; global count()/bytes() become relaxed atomic updates and the
//    lifetime Stats are maintained under a dedicated spinlock.  The striped
//    mode keeps the per-operation allocation contracts (locks never
//    allocate), with one relaxation: the cross-shard strict-increase
//    precondition of put() is NOT checked (verifying it would need every
//    stripe's lock); each stripe still enforces strict increase over its own
//    indices.  See tests/concurrency_test.cpp for the supported interleavings.
//
// Thread-safety summary in kStriped mode (kUnsynchronized is single-thread
// only, as before):
//  * put / collect / contains — safe from any number of threads; operations
//    on the same stripe serialize on its lock.
//  * get / shard / stats / last_index / discard_after — require external
//    quiescence (no concurrent mutators): they return references into, or
//    read multi-word state of, storage a concurrent mutation may move.
//  * stored_indices() — safe against concurrent stored_indices() callers
//    (the lazily-merged cache rebuild is guarded; this was a const-method
//    data race before); the returned reference is still invalidated by the
//    next mutation, so under concurrent mutation use
//    snapshot_stored_indices(), which copies out under the cache lock.
//
// Per-shard recycler invariant: a collect() recycles the dead checkpoint's
// DV buffer into the *owning shard's* spare, and a copy-in put() consumes
// the spare of the shard the new index maps to.  Steady-state churn under
// RDT-LGC stores index k (shard k & mask) and eliminates an index a fixed
// distance behind (same stripe sequence), so after one warm-up lap across
// the stripes every shard's spare is primed and the cycle never allocates —
// the contract tests/hot_path_test.cpp enforces per shard, in both modes.
//
// Persistence.  Each stripe is a ckpt::StorageBackend chosen once at
// construction (StorageConfig): the in-memory flat store (the default and
// the zero-allocation reference), an mmap'd segment file, or a
// log-structured append-only log (storage_backend.hpp has the trait and
// backend overview).  The stripe files are per (owner, stripe) inside
// StorageConfig::directory; a store-global meta segment
// (StorageConfig::meta_file) carries the cross-shard lifetime counters,
// whose peaks are peaks of the GLOBAL occupancy and therefore cannot be
// reconstructed from per-stripe state alone.  The meta header is
// write-through (updated under the stats guard on every mutation), so an
// unclean drop loses only the durability point, not the counters.
// Reopening: construct with OpenMode::kAttach over the same directory and
// call recover(), which rebuilds every stripe's in-memory index from its
// medium and restores the global counters — the entry point
// recovery::recovery_line_from_storage() builds a full restart-from-disk
// on.  A useful property of the media: within one stripe, live records
// appear in ascending index order (puts are strictly increasing within a
// lineage, and a rollback kills the whole suffix above its restore point
// before any index is reused), so recovery replays straight into the flat
// mirror without sorting.
//
// Asynchronous durability.  With a persistent backend and a non-kSync
// StorageConfig::durability policy the store splits acknowledged state from
// durable state: the flat in-memory stripes come back as the ACKNOWLEDGED
// mirror (every read and every zero-alloc hot-path contract is served by
// them, exactly as in in-memory mode), the persistent stripe backends hold
// the DURABLE state, and a ckpt::DurabilityPipeline records each
// acknowledged mutation and replays whole windows into the backends as
// group commits — one fsync (log) or msync (mmap) per stripe per window instead of per operation (durability_pipeline.hpp has
// the full design: scheduling, locking discipline, crash semantics).
// Dropping a pipelined store without flush() models a crash: the un-drained
// window is discarded and recovery lands on the last commit's consistent
// prefix of the acknowledged history.  durability() exposes the
// acked-vs-synced lag that metrics::DurabilityLag samples.
//
// Public interface and contracts are otherwise identical to CheckpointStore
// (the flat store remains as the single-stripe reference implementation; the
// backends are property-tested against it in tests/store_test.cpp and
// tests/backend_test.cpp), plus shard introspection used by tests, benches,
// and the architecture docs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/durability_pipeline.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/mapped_file.hpp"
#include "util/spinlock.hpp"

namespace rdtgc::ckpt {

/// Whether a ShardedCheckpointStore arms its per-stripe locks.
enum class StoreConcurrency {
  kUnsynchronized,  ///< single-threaded: no locks, no atomic RMW (default)
  kStriped,         ///< per-stripe spinlocks; see the header comment
};

class ShardedCheckpointStore {
 public:
  /// Default stripe count; power of two so shard_of() is a mask, sized so a
  /// handful of concurrent collectors rarely collide (ROADMAP: sharded
  /// store as the prerequisite for multi-threaded simulation).
  static constexpr std::size_t kDefaultShardCount = 8;

  /// `shard_count` must be a power of two (>= 1); one stripe degenerates to
  /// the flat store.  Allocates the stripes (and, in kStriped mode, one
  /// cache-line-padded lock per stripe); everything after construction
  /// follows the per-method allocation contracts below.  `storage` selects
  /// the per-stripe persistence backend (default: in-memory, whose per-op
  /// contracts are exactly the flat store's); with OpenMode::kAttach the
  /// store opens existing media and recover() must run before any mutation.
  explicit ShardedCheckpointStore(
      ProcessId owner, std::size_t shard_count = kDefaultShardCount,
      StoreConcurrency concurrency = StoreConcurrency::kUnsynchronized,
      const StorageConfig& storage = StorageConfig());

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const { return owner_; }

  /// Active concurrency mode.  O(1), never allocates.
  StoreConcurrency concurrency() const { return concurrency_; }

  /// Storage configuration the stripes were built with.
  const StorageConfig& storage() const { return storage_; }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free once the owning
  /// shard's vectors reached steady-state capacity.  kStriped: checks the
  /// strict increase only within the owning stripe (see header comment).
  void put(StoredCheckpoint checkpoint);

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into the owning shard's spare buffer (recycled by that shard's
  /// most recent collect()), so steady-state checkpoint-and-collect churn
  /// never touches the heap once every stripe's spare is primed.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes);

  /// Membership test; one binary search inside the owning shard (under its
  /// stripe lock in kStriped mode).  Never allocates.
  bool contains(CheckpointIndex index) const;

  /// Reference into the owning shard's in-memory index — invalidated by the
  /// next mutation (put/collect/discard_after); copy before interleaving.
  /// Never allocates.  kStriped: requires quiescence (the reference escapes
  /// the stripe lock).
  const StoredCheckpoint& get(CheckpointIndex index) const;

  /// Non-owning view of the stored dependency vector, through the owning
  /// shard's backend (the mmap backend serves it straight from the mapped
  /// file).  Invalidated by the next mutation.  kStriped: requires
  /// quiescence.
  causality::DvView dv_view(CheckpointIndex index) const;

  /// Garbage-collection elimination of an obsolete checkpoint.  Shard-local:
  /// erase-shifts and the recycled spare stay inside the owning stripe (and
  /// under its lock in kStriped mode).  Allocation-free.
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4), applied to each shard's suffix.  Returns how many were
  /// discarded.  Allocation-free.  kStriped: takes the stripe locks one at
  /// a time, so the discard is atomic per stripe but not globally — rollback
  /// runs with the process quiesced, exactly as in the paper's model.
  std::size_t discard_after(CheckpointIndex ri);

  /// Currently stored indices, ascending across ALL shards — the coherent
  /// global view.  Lazily rebuilt from the per-shard indices after a
  /// mutation, then cached: repeated reads are O(1) and allocation-free
  /// once the cache capacity is warm.  The reference is invalidated by the
  /// next mutation — snapshot (copy) before interleaving with
  /// put/collect/discard_after.  kStriped: concurrent stored_indices()
  /// callers are safe (the rebuild is guarded); holding the reference across
  /// a concurrent mutation is not — use snapshot_stored_indices() there.
  const std::vector<CheckpointIndex>& stored_indices() const;

  /// Copy the merged ascending index view into `out` (cleared first) under
  /// the cache lock: safe to call while other threads mutate the store.
  /// Each stripe is read under its lock, so the snapshot is per-stripe
  /// atomic; cross-stripe coherence requires quiescence, as with any
  /// concurrent container scan.  Allocation-free once `out` has capacity.
  void snapshot_stored_indices(std::vector<CheckpointIndex>& out) const;

  /// Highest stored index across shards; store is never empty after the
  /// initial checkpoint.  O(shard_count), never allocates.  kStriped:
  /// requires quiescence.
  CheckpointIndex last_index() const;

  /// Live checkpoints across all shards.  O(1), never allocates.  kStriped:
  /// a relaxed atomic read — exact once mutators are quiescent.
  std::size_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Bytes held across all shards.  O(1), never allocates.  kStriped: a
  /// relaxed atomic read — exact once mutators are quiescent.
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Global counters, aggregated across shards exactly as the flat store
  /// counts them (peaks are peaks of the global occupancy, not sums of
  /// per-shard peaks).  O(1), never allocates.  kStriped: requires
  /// quiescence (multi-word snapshot).
  using Stats = StoreStats;
  const Stats& stats() const { return stats_; }

  // ---- Persistence (see the header comment) ----

  /// Rebuild every stripe's in-memory index from its persistent medium and
  /// restore the global counters from the meta segment.  Required (once)
  /// after constructing with OpenMode::kAttach, a no-op on a live store.
  /// Returns the number of live checkpoints.  Requires quiescence; may
  /// allocate (recovery is off every hot path).
  std::size_t recover();

  /// Durability point: flush every stripe's medium and the meta segment
  /// (msync/fsync).  Under a non-kSync policy, first drains the pipeline so
  /// every acknowledged mutation is durable on return.  No-op for in-memory
  /// storage.  Requires quiescence.
  void flush();

  // ---- Asynchronous durability (see the header comment) ----

  /// Whether a DurabilityPipeline is active (persistent backend with a
  /// non-kSync policy).  O(1), never allocates.
  bool pipelined() const { return pipeline_ != nullptr; }

  /// The pipeline, or nullptr in kSync / in-memory mode.
  DurabilityPipeline* pipeline() { return pipeline_.get(); }
  const DurabilityPipeline* pipeline() const { return pipeline_.get(); }

  /// Acked-vs-synced snapshot.  Without a pipeline the lag is identically
  /// zero (indices report last_index()).  Safe against a background drain.
  DurabilityStatus durability() const;

  /// Read-only view of stripe `s`'s DURABLE backend: the persistent medium
  /// in pipelined mode (shard(s) returns the acknowledged mirror there),
  /// shard(s) otherwise.  kStriped: requires quiescence.
  const StorageBackend& durable_shard(std::size_t s) const {
    return pipeline_ != nullptr
               ? static_cast<const StorageBackend&>(*backend_shards_[s])
               : shard(s);
  }

  // ---- Shard introspection (tests, benches, docs) ----

  /// Number of stripes.  O(1), never allocates.
  std::size_t shard_count() const { return mask_ + 1; }
  /// Stripe an index maps to: low bits, index & (shard_count - 1).
  std::size_t shard_of(CheckpointIndex index) const {
    return static_cast<std::size_t>(index) & mask_;
  }
  /// Read-only view of one stripe (its backend: per-shard stats, live
  /// stored_indices(), backend-specific introspection via kind()).  Never
  /// allocates.  kStriped: requires quiescence.
  const StorageBackend& shard(std::size_t s) const {
    return flat_shards_.empty()
               ? static_cast<const StorageBackend&>(*backend_shards_[s])
               : flat_shards_[s];
  }

 private:
  /// One stripe lock on its own cache line, so collectors spinning on
  /// neighbouring stripes do not false-share.
  struct alignas(64) StripeLock {
    util::SpinLock lock;
  };

  /// RAII guard that is a no-op in kUnsynchronized mode (lock == nullptr):
  /// the single-threaded path pays one predictable branch, no RMW.
  class MaybeGuard {
   public:
    explicit MaybeGuard(util::SpinLock* lock) : lock_(lock) {
      if (lock_ != nullptr) lock_->lock();
    }
    ~MaybeGuard() {
      if (lock_ != nullptr) lock_->unlock();
    }
    MaybeGuard(const MaybeGuard&) = delete;
    MaybeGuard& operator=(const MaybeGuard&) = delete;

   private:
    util::SpinLock* lock_;
  };

  bool striped() const {
    return concurrency_ == StoreConcurrency::kStriped;
  }
  util::SpinLock* stripe_lock(std::size_t s) const {
    return stripe_locks_ ? &stripe_locks_[s].lock : nullptr;
  }

  /// Relaxed add that is a plain load+store single-threaded and an atomic
  /// RMW in striped mode (the RMW is the only thing that must not tear).
  template <typename T>
  void bump(std::atomic<T>& counter, T delta) {
    if (striped()) {
      counter.fetch_add(delta, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + delta,
                    std::memory_order_relaxed);
    }
  }

  /// Global bookkeeping shared by both put overloads, after the shard
  /// accepted the checkpoint.
  void note_put(std::uint64_t bytes);
  /// Copy stats_ into the mapped meta header (caller holds the stats guard
  /// in striped mode; no-op without a meta segment).
  void sync_meta();
  /// Rebuild `merged_` from the per-shard views (caller holds merged_lock_
  /// in striped mode).
  void rebuild_merged() const;
  /// Shared dirty-check/rebuild protocol of stored_indices() and
  /// snapshot_stored_indices(); caller holds merged_lock_ in striped mode.
  void refresh_merged_locked() const;

  struct MetaHeader;
  MetaHeader* meta_header();
  const MetaHeader* meta_header() const;

  /// Backend of stripe `s` through the trait (cold paths; the hot paths
  /// branch on flat_shards_ directly so the in-memory calls devirtualize).
  StorageBackend& backend_at(std::size_t s) {
    return flat_shards_.empty()
               ? static_cast<StorageBackend&>(*backend_shards_[s])
               : flat_shards_[s];
  }
  const StorageBackend& backend_at(std::size_t s) const { return shard(s); }

  ProcessId owner_;
  StoreConcurrency concurrency_;
  StorageConfig storage_;
  std::size_t mask_;  // shard_count - 1
  /// In-memory mode: the stripes themselves, contiguous — the exact
  /// pre-trait memory layout, so the default configuration's churn path
  /// pays one predictable branch and zero extra indirection (CheckpointStore
  /// is final; calls on the vector elements devirtualize and inline).
  /// Empty when a persistent backend is selected.
  std::vector<CheckpointStore> flat_shards_;
  /// Persistent modes: one backend per stripe.  Empty in in-memory mode.
  std::vector<std::unique_ptr<StorageBackend>> backend_shards_;
  /// One padded lock per stripe; null in kUnsynchronized mode.
  std::unique_ptr<StripeLock[]> stripe_locks_;
  /// Store-global meta segment (persistent kinds only): lifetime counters.
  std::unique_ptr<util::MappedFile> meta_;
  bool meta_pending_recover_ = false;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> bytes_{0};
  /// Lifetime counters; mutated under stats_lock_ in striped mode so the
  /// peak updates (read-max-write over count_/bytes_) stay coherent.
  Stats stats_;
  mutable util::SpinLock stats_lock_;
  /// Cached ascending merge of every shard's indices; rebuilt lazily.  The
  /// dirty flag is atomic and the rebuild runs under merged_lock_ in striped
  /// mode — stored_indices() used to be const-but-racy, now it is guarded.
  mutable std::vector<CheckpointIndex> merged_;
  mutable std::atomic<bool> merged_dirty_{true};
  mutable util::SpinLock merged_lock_;
  /// Group-commit/background-writer pipeline (non-kSync persistent mode
  /// only).  LAST member: destroyed first, so the writer thread is joined
  /// before the stripe backends it drains into go away.
  std::unique_ptr<DurabilityPipeline> pipeline_;
};

}  // namespace rdtgc::ckpt
