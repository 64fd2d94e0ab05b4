// Group commit for a checkpoint store, so a window of acknowledged
// mutations reaches the medium with one durability point instead of one
// per op.
//
// The paper's model assumes checkpoints reach stable storage; under kSync
// the store charges that cost to the protocol hot path (write-through
// mapped pages — the log's tail and the mmap segment — with fsync/msync at
// flush()).  Under kGroupCommit the owning ShardedCheckpointStore splits
// the two roles:
//
//   * the ACKNOWLEDGED state is the store's read store (a flat
//     CheckpointStore, the same zero-allocation path as in-memory storage),
//     which serves every read and every protocol decision;
//   * the DURABLE state is the store's one medium, which no longer sees
//     mutations directly.  Each acknowledged mutation is recorded in this
//     pipeline's window of ops (every_k_ops slots reserved at construction,
//     DV buffers reused across windows — a steady-state record is
//     allocation-free), and a GROUP COMMIT replays the window, in
//     acknowledgment order, into the medium and ends on one
//     StorageBackend::commit() — one fsync (log) or msync (mmap) per window
//     instead of one per op.
//
// Commit scheduling: the mutation that fills the window drains it
// (every_k_ops; with every_checkpoint, every put too), and so does the
// store's flush(); the caller pays the amortized media cost.  The pipeline
// runs on its store's one thread.
//
// Crash semantics (the contract tests/durability_test.cpp certifies
// against the Theorem-1 oracle): the recorded-op sequence is the
// acknowledged history, and every commit applies a PREFIX of it, in order,
// then syncs.  Dropping the store without flush() models the crash — the
// open window is discarded — so recovery lands on the state after some
// prefix of the acknowledged operations: never a reordering, never a gap.
// The medium counts what it is given, so the counters its header persists
// always match the recovered prefix.  As with the mmap segment's in-place
// compaction, a commit is not atomic against an OS crash mid-drain; the
// model — here and in the tests — is dropping the object between
// operations.
//
// Media errors: a medium write that throws (util::IoError, e.g. ENOSPC)
// leaves the medium as it was before that op, so a drain that throws
// mid-window has handed the ops it already applied to the medium and
// rethrows to the mutating caller or to flush().  The read store keeps the
// acknowledged op.  The ops from the refused one on stay in the window, in
// order, and the next drain resumes at the refused op, so each op reaches
// the medium exactly once.  While the medium keeps refusing, the window
// grows past its reserved slots (the only path that allocates), and every
// mutation that fills it throws IoError with its op acknowledged; none
// waits.
//
// Observability: status() reports acknowledged-vs-synced op counts and
// checkpoint indices — the durability-lag figure metrics::DurabilityLag
// samples and the sweep summaries aggregate.
#pragma once

#include <cstdint>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"

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
  /// `medium` is the store's persistent medium the drains write into
  /// (owned by the store, which destroys this pipeline first).  Policy
  /// mode must be kGroupCommit.  Destroying the pipeline DISCARDS the open
  /// window — dropping the store without flush() models a crash.
  DurabilityPipeline(DurabilityPolicy policy, StorageBackend& medium);

  DurabilityPipeline(const DurabilityPipeline&) = delete;
  DurabilityPipeline& operator=(const DurabilityPipeline&) = delete;

  // ---- Recording (called by the store after its read store accepted the
  // mutation).  Each drains the window with commit() when the policy calls
  // for it, and rethrows what that drain throws.  Allocation-free once
  // every reserved slot's DV buffer is sized, unless the medium refused a
  // drain. ----

  void record_put(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  void record_collect(CheckpointIndex index);
  void record_discard(CheckpointIndex ri);

  /// Drain every recorded op into the medium as one group commit; on
  /// return the medium holds the whole acknowledged history durably.  A
  /// no-op when nothing is recorded.
  void commit();

  /// Reset the pipeline after the owning store recovered from its medium:
  /// the lag collapses to zero at `last_index`.
  void reset_after_recover(CheckpointIndex last_index);

  /// Acked-vs-synced snapshot.
  DurabilityStatus status() const { return status_; }

  /// Group commits completed (drains that applied at least one op).
  std::uint64_t commits() const { return commits_; }

 private:
  struct Op {
    enum class Kind : std::uint8_t { kPut, kCollect, kDiscardAfter };
    Kind kind = Kind::kPut;
    CheckpointIndex index = 0;
    SimTime stored_at = 0;    ///< kPut only
    std::uint64_t bytes = 0;  ///< kPut only
    /// kPut only.  The slot keeps the buffer across windows, so copying a
    /// DV of the width it last held does not allocate.
    causality::DependencyVector dv;
  };

  /// Append an op of `kind` on `index` to the window and return it for
  /// the caller to fill in.
  Op& record(Op::Kind kind, CheckpointIndex index);

  /// commit() when the open window reached every_k_ops, or, for a put,
  /// when the policy commits at every checkpoint.
  void commit_if_due(bool is_put);

  DurabilityPolicy policy_;
  StorageBackend& medium_;

  /// Recorded ops [applied_, recorded_) are acknowledged but not yet on the
  /// medium; ops before applied_ are, and their slots free up once the
  /// whole window drained.
  std::vector<Op> window_;
  std::size_t applied_ = 0;
  std::size_t recorded_ = 0;

  DurabilityStatus status_;
  std::uint64_t commits_ = 0;
};

}  // namespace rdtgc::ckpt
