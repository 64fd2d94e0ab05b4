// Lemma 1's recovery line by Equation 2 (c_f^last precedes c iff
// last_f < DV(c)[f]): the one scan production code runs, shared by
// transport::FleetMirror::plan (over the fleet parent's DV rows, volatile
// state included) and recovery_line_from_storage (over reopened stores,
// every process faulty).  ccp::recovery_line_lemma1 stays the oracle's own
// copy, against which the replay certifies the fleet's plans.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"

namespace rdtgc::ckpt {
class ShardedCheckpointStore;
}  // namespace rdtgc::ckpt

namespace rdtgc::recovery {

/// Lemma 1 over one process's `count` candidate checkpoints, listed newest
/// first (`dv_at(i)` is the DV of the i-th, a causality::DvView): the
/// position of the first that no faulty process's last stable checkpoint
/// precedes by Equation 2, or `count` when each one is preceded.  `last[f]`
/// is process f's last stable checkpoint index and `faulty[f]` marks F.
template <class DvAt>
std::size_t first_unpreceded(std::size_t count, DvAt&& dv_at,
                             std::span<const CheckpointIndex> last,
                             const std::vector<bool>& faulty) {
  for (std::size_t i = 0; i < count; ++i) {
    const causality::DvView dv = dv_at(i);
    bool preceded = false;
    for (std::size_t f = 0; f < last.size() && !preceded; ++f) {
      preceded =
          faulty[f] && dv.precedes_this(static_cast<ProcessId>(f), last[f]);
    }
    if (!preceded) return i;
  }
  return count;
}

/// Recovery line of a FULL restart from stable storage alone (§2.4 taken to
/// its limit: every process failed, no volatile state, no recorder — only
/// what the persistent checkpoint-store backends wrote to disk survives).
///
/// `stores` holds one reopened store per process (constructed with
/// OpenMode::kAttach over the original directory, then recover()ed — see
/// ckpt/sharded_checkpoint_store.hpp).  The line is Lemma 1 specialized to
/// F = all processes, evaluated over the STORED dependency vectors through
/// the stores' dv_view: per process the latest stored checkpoint not
/// causally preceded by any peer's last stored checkpoint.  Theorem 1
/// guarantees the line's members were never collected, so an entry always
/// exists; RD-trackability makes the result exact.  Throws
/// ContractViolation on an empty store (a process with no recovered
/// checkpoint cannot restart).
std::vector<CheckpointIndex> recovery_line_from_storage(
    const std::vector<const ckpt::ShardedCheckpointStore*>& stores);

}  // namespace rdtgc::recovery
