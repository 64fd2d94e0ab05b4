// What the fleet parent derives from its workers' frames, without sockets.
//
// FleetMirror keeps, per worker, the DV rows the frames reveal — one per
// stable checkpoint, dense by index and cut at re-attach and rollback
// exactly as the recorder cuts its rows — plus the volatile DV, and the
// completed deliveries a kill could still orphan.  It answers the two
// questions a kill asks: how many live receives cite a send that died
// with the killed incarnation's volatile interval (the orphan rule), and
// which recovery line and LI vector Lemma 1 gives for a faulty set.
//
// Its inputs have the shape of the event log's records: attach, send,
// delivery, checkpoint, rollback, unclean kill.  ProcFleet feeds it each
// frame before logging the frame; a test can feed it a recorded log.  An
// input that carries a DV is checked first — width against process_count,
// lineage index against the rows, then Equation 3 (a process's own DV
// entry is its current interval, one past its last checkpoint) — and a
// refused input changes nothing and leaves the reason, naming the frame
// kind, in error().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"

namespace rdtgc::transport {

/// A completed delivery: the send/receive pair the CCP now contains.
struct Delivery {
  ProcessId src = -1;
  std::uint32_t src_incarnation = 0;
  std::uint64_t seq = 0;
  IntervalIndex send_interval = 0;
  ProcessId dst = -1;
  IntervalIndex recv_interval = 0;
};

class FleetMirror {
 public:
  explicit FleetMirror(std::size_t process_count);

  // ---- Inputs: false = refused, see error() ----

  /// p's Hello: it joined at `incarnation` holding stable checkpoint
  /// `last_index`.  A fresh worker holds s^0 only; a re-attached one a
  /// checkpoint the rows hold, or after an unclean kill at most one more
  /// per delivery the kill dropped.  Missing rows are padded from `dv`.
  bool attach(ProcessId p, std::uint32_t incarnation,
              CheckpointIndex last_index, std::span<const IntervalIndex> dv);
  /// p sent a message from `send_interval` carrying `dv`.  Checks only.
  bool send(ProcessId p, IntervalIndex send_interval,
            std::span<const IntervalIndex> dv);
  /// d.dst received d, after a forced checkpoint if `forced`; `dv_after`
  /// is its DV after the receive.
  bool deliver(const Delivery& d, bool forced,
               std::span<const IntervalIndex> dv_after);
  bool checkpoint(ProcessId p, CheckpointIndex index,
                  std::span<const IntervalIndex> dv);
  /// p acked a session holding stable checkpoint `last_index` and DV `dv`;
  /// a session never moves a lineage forward.
  bool rolled_back(ProcessId p, CheckpointIndex last_index,
                   std::span<const IntervalIndex> dv);
  /// p died undrained, losing `dropped` deliveries, each of which may have
  /// forced a checkpoint the rows never saw.
  void unclean_kill(ProcessId p, std::uint64_t dropped);
  /// Refuse unless `dv`, from a frame of `kind` sent by p, is
  /// process_count wide.
  bool check_width(const char* kind, ProcessId p,
                   std::span<const IntervalIndex> dv);

  // ---- The orphan rule and its three prunes ----

  /// Live receives of messages p sent in incarnation `killed_incarnation`
  /// past its last stable checkpoint: what p's re-attach orphaned.
  std::uint64_t orphans(ProcessId p, std::uint32_t killed_incarnation) const;
  /// After p re-attached with no session to run: forget the deliveries
  /// whose send or receive died with its volatile interval (interval
  /// numbers repeat across incarnations, so they would read as orphans at
  /// p's next kill).
  void forget_after_attach(ProcessId p);
  /// After a session restored `line`: forget the deliveries with an
  /// endpoint past it.  (A sender's checkpoint at or past a send interval
  /// retires its records as the checkpoint arrives.)
  void end_session(std::span<const CheckpointIndex> line);

  // ---- Lemma 1 ----

  /// The recovery line for `faulty` (entry last+1 = volatile state kept)
  /// and its LI vector (line[j]+1 where j restores a stable checkpoint,
  /// line[j] where it keeps its volatile state).
  void plan(const std::vector<ProcessId>& faulty,
            std::vector<CheckpointIndex>& line,
            std::vector<IntervalIndex>& li) const;

  CheckpointIndex last_stable(ProcessId p) const;
  /// DV of p's general checkpoint k (k = last+1: the volatile state).
  causality::DvView general_checkpoint_dv(ProcessId p,
                                          CheckpointIndex k) const;
  std::size_t delivered_records() const { return delivered_.size(); }
  /// Why the last refused input was refused.
  const std::string& error() const { return error_; }

 private:
  struct Process {
    std::vector<std::vector<IntervalIndex>> rows;  ///< by checkpoint index
    std::vector<IntervalIndex> current;            ///< the volatile DV
    std::uint64_t unlogged = 0;  ///< checkpoints an unclean kill may hide
    CheckpointIndex last() const {
      return static_cast<CheckpointIndex>(rows.size()) - 1;
    }
  };

  /// Refuse with "<kind> frame from p<p> <claim> <got><against> <want><tail>".
  [[gnu::cold, gnu::noinline]] bool refuse(const char* kind, ProcessId p,
                                           const char* claim,
                                           std::int64_t got,
                                           const char* against,
                                           std::int64_t want,
                                           const char* tail = "");
  /// Equation 3: p's own entry of `dv` (width checked) must be `interval`.
  bool check_own_entry(const char* kind, ProcessId p,
                       std::span<const IntervalIndex> dv,
                       IntervalIndex interval);
  /// Forget the deliveries of p's sends that its last checkpoint made safe.
  void prune_below_checkpoint(ProcessId p);
  /// p's position in procs_, range-checked.
  std::size_t slot(ProcessId p) const;

  std::vector<Process> procs_;
  std::vector<Delivery> delivered_;  ///< what a kill could still orphan
  std::string error_;
};

}  // namespace rdtgc::transport
