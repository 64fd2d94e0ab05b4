// Checkpoint-and-Communication-Pattern (CCP) recorder.
//
// The paper (§2.2) defines a CCP as the set of checkpoints taken by all
// processes in a consistent cut plus the dependency relation created by the
// exchanged messages (excluding lost and in-transit messages).  This recorder
// is one ckpt::Node observer (ccp/observer.hpp) — its record_* methods are
// the hooks — and materializes the CCP of a simulation so the offline
// analyses (causal closure, zigzag closure, recovery lines, the Theorem-1
// obsolete oracle) can run against ground truth.  Fleet workers run without
// it: replaying the parent's event log (transport/replay.hpp) certifies them.
//
// Rollbacks: when a process rolls back to checkpoint RI, every event after
// c^RI on that process is undone.  The recorder marks those checkpoints and
// message endpoints dead; analyses consider only the live CCP.  Checkpoint
// indices above RI are then reused by the re-execution, exactly as in the
// paper's model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ccp/observer.hpp"
#include "sim/message.hpp"

namespace rdtgc::ccp {

/// One recorded (live) checkpoint.  The DV stored with it lives in the
/// recorder's per-process history arena — read it through
/// CcpRecorder::checkpoint_dv(process, index); it satisfies
/// dv[process] == index.
struct CheckpointInfo {
  ProcessId process = -1;
  CheckpointIndex index = 0;
  CheckpointKind kind = CheckpointKind::kBasic;
  /// Per-process event serial (monotonic, never reused across rollbacks).
  std::uint64_t serial = 0;
  /// Global recording sequence number (a linearization of the execution).
  std::uint64_t gseq = 0;
};

/// One recorded message (live or not).
struct MessageInfo {
  sim::MessageId id = 0;
  ProcessId src = -1;
  ProcessId dst = -1;
  IntervalIndex send_interval = 0;
  IntervalIndex recv_interval = -1;  // valid iff delivered
  std::uint64_t send_serial = 0;
  std::uint64_t recv_serial = 0;
  std::uint64_t send_gseq = 0;
  std::uint64_t recv_gseq = 0;
  bool delivered = false;
  bool send_alive = true;  ///< send event not undone by a rollback
  bool recv_alive = true;  ///< receive event not undone by a rollback

  /// A message is part of the live CCP iff it was delivered and neither
  /// endpoint has been rolled back.
  bool live() const { return delivered && send_alive && recv_alive; }
};

/// Append-only arena of fixed-width dependency-vector rows (one per
/// recorded checkpoint), laid out in equal-size chunks.
///
/// Why chunks and not one growing vector: a recording run appends one row
/// per checkpoint forever, and a geometrically grown flat buffer re-copies
/// the ENTIRE history on every doubling — measurably (2x+) slower per
/// checkpoint at large n than the per-checkpoint heap vectors it was meant
/// to replace.  Chunks never move once allocated: an append is exactly one
/// n-entry copy into the current chunk, a chunk allocation amortizes across
/// rows_per_chunk() appends (zero after reserve()), and truncation keeps
/// the chunks for the re-execution to refill.  Rows never span chunks, so
/// row(r) is a contiguous n-entry view.
class DvArena {
 public:
  /// `width` = entries per row (the process count); rows_per_chunk is sized
  /// for ~16 KiB chunks, minimum 8 rows.
  explicit DvArena(std::size_t width);

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return width_; }
  std::size_t rows_per_chunk() const { return rows_per_chunk_; }

  /// Append one row (row.size() == width()).  Allocates only when a fresh
  /// chunk is needed and no retained spare exists.
  void push(std::span<const IntervalIndex> row);

  /// Row r as a DV view; valid until truncate() below r.
  causality::DvView row(std::size_t r) const;

  /// Keep the first `rows` rows; retained chunks keep their storage.
  void truncate(std::size_t rows);

  /// Pre-allocate chunks for `rows` rows.
  void reserve(std::size_t rows);

 private:
  std::size_t width_;
  std::size_t rows_per_chunk_;
  std::size_t rows_ = 0;
  std::vector<std::unique_ptr<IntervalIndex[]>> chunks_;
};

class CcpRecorder : public NodeObserver {
 public:
  explicit CcpRecorder(std::size_t n);

  std::size_t process_count() const { return volatile_dv_.size(); }

  /// Pre-size every process's checkpoint list and DV arena for `checkpoints`
  /// recorded checkpoints, so a run of known length records with zero heap
  /// traffic (tests/hot_path_test.cpp enforces this).  Recording beyond the
  /// reservation stays correct — growth is amortized O(1) either way.
  void reserve(std::size_t checkpoints);

  // ---- Recording API (the NodeObserver hooks, plus direct drivers) ----

  /// Allocate a fresh message id (dense, 1-based).
  sim::MessageId new_message_id();

  /// Register p's live dependency vector (the middleware's own DV, whose
  /// address is stable for the node's lifetime): volatile_dv(p) then reads
  /// through it, with no size-n copy per event.  Rejected if p already has
  /// a registered view.
  void record_start(ProcessId p,
                    const causality::DependencyVector& live) override;

  /// Record checkpoint c_p^idx with the DV stored alongside it.
  /// Preconditions: idx is the next index for p, and dv[p] == idx.
  void record_checkpoint(ProcessId p, CheckpointIndex idx,
                         const causality::DependencyVector& dv,
                         CheckpointKind kind) override;

  /// Record the send of m and fill m.send_serial.  A bare message
  /// (m.id == 0) gets a fresh id from new_message_id(); a preset id must
  /// come from it too.
  void record_send(sim::Message& m) override;

  /// Record delivery of m at its destination in `recv_interval`.
  void record_receive(const sim::Message& m,
                      IntervalIndex recv_interval) override;

  /// Keep the volatile dependency vector DV(v_p) current (paper Eq. 3 uses
  /// it); called after every DV change by drivers that hold no stable DV.
  /// Rejected once record_start() has registered a live view for p.
  void set_volatile_dv(ProcessId p, const causality::DependencyVector& dv);

  /// Record that p rolled back to checkpoint `ri`: checkpoints with index
  /// > ri die, as do message endpoints after c_p^ri.
  void record_rollback(ProcessId p, CheckpointIndex ri) override;

  /// Record that p's process died and re-attached to its media at
  /// checkpoint `ri` (see ckpt::Node's OpenMode::kAttach path).  The
  /// volatile interval dies with the process: everything after c_p^ri is
  /// undone exactly as in record_rollback, while the surviving rows stay in
  /// place so the Theorem-1 oracle keeps certifying the GLOBAL recovery line
  /// across the restart.  `live` replaces the dead Node's registered view.
  /// Certification: every recovered DV must equal its recorded row
  /// bit-for-bit.  A recorder that never saw p's lineage rejects the call
  /// (ContractViolation).  Counted in stats().restarts, not
  /// stats().rollbacks.
  void record_restart(ProcessId p, CheckpointIndex ri,
                      const causality::DependencyVector& live,
                      std::span<const RecoveredCheckpoint> recovered) override;

  // ---- Live-CCP queries ----

  /// Live checkpoints of p, ascending by index; position == index.
  const std::vector<CheckpointInfo>& checkpoints(ProcessId p) const;

  const CheckpointInfo& checkpoint(ProcessId p, CheckpointIndex idx) const;

  /// DV stored with live checkpoint c_p^idx: a view into p's history arena,
  /// invalidated by the next record_checkpoint/record_rollback for p.
  causality::DvView checkpoint_dv(ProcessId p, CheckpointIndex idx) const;

  /// Index of p's last stable checkpoint (paper: last_s(p)); >= 0 always.
  CheckpointIndex last_stable(ProcessId p) const;

  /// DV(v_p), the volatile dependency vector.
  const causality::DependencyVector& volatile_dv(ProcessId p) const;

  /// DV of the *general* checkpoint c_p^γ (Eq. 1): the stored DV for
  /// γ <= last_stable(p), the volatile DV for γ == last_stable(p)+1.
  /// Returned as a view (arena row or volatile entries) — valid until the
  /// next recording event for p.
  causality::DvView general_checkpoint_dv(ProcessId p,
                                          CheckpointIndex gamma) const;

  /// All recorded messages (including lost/dead ones), by id order.
  const std::vector<MessageInfo>& messages() const { return messages_; }

  /// True iff no live receive has a dead send (an "orphan"); consistent
  /// recovery lines guarantee this, so analyses may assume it.
  bool audit_no_orphans() const;

  struct Stats {
    std::uint64_t checkpoints_recorded = 0;
    std::uint64_t checkpoints_rolled_back = 0;
    std::uint64_t messages_rolled_back = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t restarts = 0;  ///< record_restart calls (process deaths)
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Shared undo of record_rollback/record_restart: kill checkpoints above
  /// `ri` and every message endpoint after c_p^ri.
  void undo_after(ProcessId p, CheckpointIndex ri);

  std::uint64_t next_gseq_ = 1;
  std::vector<std::vector<CheckpointInfo>> checkpoints_;  // [p] live, by index
  /// Per-process history arenas: the DV of c_p^idx is row idx of
  /// dv_arena_[p] (checkpoint position == index, so the row offset needs no
  /// directory); rollback truncates the rows above ri together with
  /// checkpoints_[p].  Replaces one heap vector per recorded checkpoint —
  /// steady-state recording is O(1)-allocation, zero after reserve().
  std::vector<DvArena> dv_arena_;                         // [p]
  std::vector<causality::DependencyVector> volatile_dv_;  // [p]
  /// Live DV views registered by record_start (null = use the copy).
  std::vector<const causality::DependencyVector*> attached_dv_;  // [p]
  std::vector<std::uint64_t> next_serial_;                // [p]
  std::vector<MessageInfo> messages_;                     // by id-1
  Stats stats_;
};

}  // namespace rdtgc::ccp
