// Asynchronous durability for a sharded checkpoint store: group commit and
// an optional background writer, so the zero-alloc protocol hot path never
// blocks on media.
//
// The paper's model assumes checkpoints reach stable storage; the kSync
// backends charge that cost to the protocol hot path (write-through mapped
// pages — the log's tail and the mmap segment — with fsync/msync inline).  Under a
// non-kSync DurabilityPolicy the owning ShardedCheckpointStore splits the
// two roles:
//
//   * the ACKNOWLEDGED state lives in the store's flat in-memory stripes —
//     the same zero-allocation CheckpointStore path as the in-memory
//     backend — and serves every read and every protocol decision;
//   * the DURABLE state lives in the persistent stripe backends, which no
//     longer see mutations directly.  Each acknowledged mutation is
//     recorded in this pipeline's bounded ring (preallocated slots, DV
//     payload buffers reused across wraps — steady-state enqueue is
//     allocation-free), and a GROUP COMMIT replays a whole window of
//     recorded ops, in acknowledgment order, into the stripe backends:
//     each touched stripe is bracketed by begin_batch()/end_batch(true),
//     so each backend pays one durability point per window — one fsync
//     (log) or msync (mmap) — many per-op durability points coalesced
//     into one.
//
// Commit scheduling: kGroupCommit drains inline on the operation that
// fills the window (every_k_ops; optionally every put with
// every_checkpoint), so the caller's thread pays the amortized media cost.
// kBackground drains on a dedicated writer thread that claims windows from
// the ring (every_k_ops bounds a pass) and the hot path NEVER syncs;
// producers only spin when the bounded ring is full (backpressure).
//
// Locking discipline (all leaf-level util::SpinLocks, fixed order):
//   ring_lock_  — guards the ring indices and slot publication.  Held for
//                 nanoseconds: slot fill on enqueue, index reads/advance on
//                 claim/free.  May be taken while the store holds a stripe
//                 lock (stripe -> ring order, never the reverse).
//   drain_lock_ — serializes whole drains (writer passes, inline commits,
//                 flush()).  I/O happens under drain_lock_ but NEVER under
//                 ring_lock_, so producers keep enqueueing while a commit
//                 writes media.
//
// Crash semantics (the contract tests/durability_test.cpp certifies
// against the Theorem-1 oracle): the recorded-op sequence is the
// acknowledged history, and every commit applies a PREFIX of it, in order,
// then syncs.  Dropping the store without flush() models the crash — the
// un-drained window is discarded (the destructor stops the writer after
// its in-flight pass; it does not drain), so recovery lands on the state
// after some prefix of the acknowledged operations: never a reordering,
// never a gap.  The store-global meta counters are published at commit
// time from a replica maintained in drain order (not from the acknowledged
// counters), so recovered stats always match the recovered prefix.  As
// with the mmap backend's in-place compaction, a commit is not atomic
// against an OS crash mid-drain; the model — here and in the tests — is
// dropping the object between operations.
//
// Observability: acknowledged-vs-synced op counts and checkpoint indices
// are maintained as atomics, snapshot by status() — the durability-lag
// figure metrics::DurabilityLag samples and the sweep summaries aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/spinlock.hpp"

namespace rdtgc::ckpt {

/// One snapshot of the acknowledged-vs-durable gap.  In kSync mode (no
/// pipeline) the gap is identically zero.
struct DurabilityStatus {
  std::uint64_t acked_ops = 0;   ///< mutations acknowledged to the caller
  std::uint64_t synced_ops = 0;  ///< mutations durable on the media
  /// Highest checkpoint index acknowledged / made durable (kNoCheckpoint
  /// before the first put).  Not monotonic across rollbacks.
  CheckpointIndex acked_index = kNoCheckpoint;
  CheckpointIndex synced_index = kNoCheckpoint;

  std::uint64_t lag_ops() const { return acked_ops - synced_ops; }
};

class DurabilityPipeline {
 public:
  /// `stripes` are the persistent backends the drains write into (owned by
  /// the store, which destroys this pipeline first); `mask` is the store's
  /// shard mask; `publish_meta` stores the durable-replica counters into
  /// the store's mapped meta header at each commit.  Policy mode must not
  /// be kSync.  Starts the writer thread in kBackground mode.
  DurabilityPipeline(DurabilityPolicy policy,
                     std::vector<std::unique_ptr<StorageBackend>>& stripes,
                     std::size_t mask,
                     std::function<void(const StoreStats&)> publish_meta);

  /// Stops the writer after its in-flight pass and DISCARDS whatever is
  /// still enqueued — dropping the store without flush() models a crash.
  ~DurabilityPipeline();

  DurabilityPipeline(const DurabilityPipeline&) = delete;
  DurabilityPipeline& operator=(const DurabilityPipeline&) = delete;

  // ---- Recording (called by the store, under the owning stripe's lock
  // in striped mode so the per-stripe replay order matches the mirror).
  // Each returns true when the policy calls for an inline group commit;
  // the caller invokes commit() AFTER releasing its stripe lock.  Spins
  // when the bounded ring is full (kBackground backpressure); steady-state
  // allocation-free once every slot's DV buffer is sized. ----

  bool record_put(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  bool record_collect(CheckpointIndex index, std::uint64_t freed);
  bool record_discard(CheckpointIndex ri, std::size_t discarded,
                      std::uint64_t freed);

  /// Drain every currently recorded op as one group commit (inline mode;
  /// harmless no-op when another thread's drain already took them).
  void commit();

  /// Quiesce: drain everything recorded so far and return with the media
  /// durable and (kBackground) the writer idle.  Requires the caller's
  /// mutators to be quiescent, like every store-level flush.
  void flush();

  /// Reset the pipeline after the owning store recovered from media: the
  /// durable replica adopts the recovered counters/occupancy and the lag
  /// collapses to zero.
  void reset_after_recover(CheckpointIndex last_index, const StoreStats& stats,
                           std::size_t count, std::uint64_t bytes);

  /// Acked-vs-synced snapshot; safe to call concurrently with a
  /// background drain.
  DurabilityStatus status() const;

  const DurabilityPolicy& policy() const { return policy_; }

  /// Group commits completed (drain passes that applied at least one op).
  std::uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    enum class Kind : std::uint8_t { kPut, kCollect, kDiscardAfter };
    Kind kind = Kind::kPut;
    CheckpointIndex index = 0;
    SimTime stored_at = 0;
    /// kPut: checkpoint payload bytes.  kCollect/kDiscardAfter: bytes the
    /// operation freed (captured at acknowledgment time so the drain can
    /// maintain the durable stats replica without consulting the mirror).
    std::uint64_t bytes = 0;
    std::size_t discarded = 0;  ///< kDiscardAfter: checkpoints dropped
    /// kPut: the DV payload, copied into a buffer reused across ring
    /// wraps (sized on first use; allocation-free thereafter).
    std::vector<IntervalIndex> dv;
    std::size_t dv_size = 0;
  };

  /// Reserve the next slot (spinning while the ring is full), fill it via
  /// the slot fields, publish it, and report whether the group-commit
  /// trigger fired.  Runs entirely under ring_lock_.
  template <typename FillFn>
  bool enqueue(Slot::Kind kind, bool is_put, FillFn&& fill);

  /// One serialized drain pass: claim up to `max_ops` recorded ops, apply
  /// them in order to the stripe backends inside batch brackets, publish
  /// the durable meta, free the slots.  Returns how many ops it applied.
  std::size_t drain_some(std::size_t max_ops);

  void writer_main();

  DurabilityPolicy policy_;
  std::vector<std::unique_ptr<StorageBackend>>& stripes_;
  std::size_t shard_mask_;
  std::function<void(const StoreStats&)> publish_meta_;

  // Bounded ring: capacity is a power of two; head_/tail_ are free-running
  // sequence numbers (occupancy = head_ - tail_).  Slots in [tail_, head_)
  // belong to the drain side; producers reuse a slot only after tail_
  // passed it.  All three guarded by ring_lock_.
  std::vector<Slot> ring_;
  std::size_t ring_mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  mutable util::SpinLock ring_lock_;

  /// Serializes drains; I/O runs under it (leaf-ness is preserved: drains
  /// take ring_lock_ only in the claim/free windows, never across I/O).
  util::SpinLock drain_lock_;

  // ---- Drain-side state (touched only under drain_lock_) ----
  /// Durable-state stats replica, advanced in drain order; published to
  /// the meta header at each commit so recovered counters always match the
  /// recovered prefix.
  StoreStats durable_stats_;
  std::size_t durable_count_ = 0;
  std::uint64_t durable_bytes_ = 0;
  /// Reusable DV for replaying puts into the backends (copy-in target).
  causality::DependencyVector scratch_dv_;
  /// Per-stripe "touched in this drain" marks (begin_batch bookkeeping).
  std::vector<std::uint8_t> touched_;

  // ---- Lag counters (atomics: probe reads race a background drain) ----
  std::atomic<std::uint64_t> acked_ops_{0};
  std::atomic<std::uint64_t> synced_ops_{0};
  std::atomic<CheckpointIndex> acked_index_{kNoCheckpoint};
  std::atomic<CheckpointIndex> synced_index_{kNoCheckpoint};
  std::atomic<std::uint64_t> commits_{0};

  // ---- Background writer ----
  std::atomic<bool> stop_{false};
  std::thread writer_;
};

}  // namespace rdtgc::ckpt
