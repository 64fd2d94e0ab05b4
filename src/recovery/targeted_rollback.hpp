// Targeted rollback: restart the computation from a consistent global
// checkpoint containing a *chosen* set of local checkpoints.
//
// This is the application §1 of the paper motivates for RDT ("the RDT
// property eases the determination of minimum and maximum consistent global
// checkpoints containing a given set of local checkpoints, and allows
// decentralized solutions ... software error recovery, causal distributed
// breakpoints, deadlock recovery"): e.g. roll back past the point where a
// software error was activated, rather than to the latest line.
//
// The target line is computed with Wang's max/min algorithms over the
// recorded CCP (valid under RDT); the rollback itself is a RecoveryManager
// session for that line: freeze, drop in-transit messages, roll every
// process to its line member, propagate LI, run Algorithm 3.
#pragma once

#include <optional>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rdtgc::recovery {

enum class TargetExtreme {
  kMaximum,  ///< lose as little work as possible (max consistent line)
  kMinimum,  ///< roll as far back as consistency allows (min consistent line)
};

struct TargetedRollbackOutcome {
  std::vector<CheckpointIndex> line;
  std::uint64_t checkpoints_discarded = 0;
};

class TargetedRollback {
 public:
  TargetedRollback(sim::Simulator& simulator, sim::Network& network,
                   ccp::CcpRecorder& recorder, std::vector<ckpt::Node*> nodes);

  /// Roll the system back to the extreme consistent global checkpoint
  /// containing `targets` (process -> stable checkpoint index).  Targets
  /// must name *stored* checkpoints.  Returns std::nullopt — with no side
  /// effects — when no consistent global checkpoint contains the targets.
  std::optional<TargetedRollbackOutcome> rollback_to(
      const ccp::TargetSet& targets, TargetExtreme extreme);

 private:
  ccp::CcpRecorder& recorder_;
  std::vector<ckpt::Node*> nodes_;
  RecoveryManager manager_;
};

}  // namespace rdtgc::recovery
