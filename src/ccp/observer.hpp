// The seam through which a ckpt::Node reports its events.
//
// RDT-LGC needs only what a process holds: its dependency vector and its UC
// table (Algorithms 1-2).  What watches a run from outside attaches here;
// the CCP recorder (ccp/recorder.hpp), which certifies Theorem 1 offline, is
// one observer.  Every hook is a no-op by default and the Node calls each
// one unconditionally.  A fleet worker passes a plain NodeObserver, so it
// keeps no per-event state.
#pragma once

#include <span>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "sim/message.hpp"

namespace rdtgc::ccp {

enum class CheckpointKind { kInitial, kBasic, kForced };

/// One checkpoint a restarted process found on its media.
struct RecoveredCheckpoint {
  CheckpointIndex index = 0;
  causality::DvView dv;
};

class NodeObserver {
 public:
  virtual ~NodeObserver() = default;

  /// Fresh start, before s^0: `live` is p's DV, at a stable address.
  virtual void record_start(ProcessId /*p*/,
                            const causality::DependencyVector& /*live*/) {}
  /// After the protocol's on_send, before the transport takes m.  An
  /// observer that names messages sets m.id (0 on a bare message) and
  /// m.send_serial.
  virtual void record_send(sim::Message& /*m*/) {}
  /// After any forced checkpoint, before the DV merge.
  virtual void record_receive(const sim::Message& /*m*/,
                              IntervalIndex /*recv_interval*/) {}
  /// After the store put of c_p^idx, before the collector's hook.
  virtual void record_checkpoint(ProcessId /*p*/, CheckpointIndex /*idx*/,
                                 const causality::DependencyVector& /*dv*/,
                                 CheckpointKind /*kind*/) {}
  /// Before the store discards the checkpoints above `ri`.
  virtual void record_rollback(ProcessId /*p*/, CheckpointIndex /*ri*/) {}
  /// At an attach, after p's DV was restored from its media: `ri` is the
  /// highest index the media kept, `live` the new DV (stable address), and
  /// `recovered` every checkpoint kept, with its DV as read back.
  virtual void record_restart(
      ProcessId /*p*/, CheckpointIndex /*ri*/,
      const causality::DependencyVector& /*live*/,
      std::span<const RecoveredCheckpoint> /*recovered*/) {}
};

}  // namespace rdtgc::ccp
