// Centralized rollback-recovery manager (§2.4 of the paper): on failure it
// stops the execution of all processes, computes the recovery line R_F,
// propagates it, and resumes.
//
// Two recovery-line algorithms are provided:
//  * kLemma1 — the paper's Lemma 1 (causal precedence over dependency
//    vectors); correct exactly when the CCP is RD-trackable.
//  * kRGraph — generic rollback propagation on the R-graph (Wang et al.
//    [21]); correct for any CCP, used for non-RDT runs (Figure 2's domino
//    demonstration) and as a cross-check oracle for Lemma 1.
//
// Two information models for Algorithm 3 at the processes (§4.3):
//  * global information — each process receives the LI vector
//    (LI[j] = last_s(j)+1 in the cut defined by R_F);
//  * causal only       — no LI; rolled-back processes run the DV variant,
//    surviving processes just continue.
//
// In-transit messages are dropped when a session starts: the paper's CCP
// excludes lost and in-transit messages, and channels are lossy anyway.
// Stale in-flight timestamps referencing rolled-back intervals must never be
// delivered into the new lineage.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "causality/types.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rdtgc::recovery {

enum class LineAlgorithm { kLemma1, kRGraph };

struct RecoveryOutcome {
  /// The recovery line (entry last_s(p)+1 = volatile state kept).
  std::vector<CheckpointIndex> line;
  /// Processes that had to restore a stable checkpoint.
  std::vector<ProcessId> rolled_back;
  /// Stable checkpoints discarded by the rollbacks (lost work).
  std::uint64_t checkpoints_discarded = 0;
  /// General checkpoints rolled back, the paper's Definition 5 metric:
  /// Σ_p (last_general(p) - line[p]).
  std::uint64_t general_checkpoints_rolled_back = 0;
};

/// Restart-safe process accessor (harness::System::node_provider): resolves
/// the CURRENT Node of p, surviving warm restarts that replace the object.
using NodeProvider = std::function<ckpt::Node&(ProcessId)>;

class RecoveryManager {
 public:
  struct Config {
    LineAlgorithm line_algorithm = LineAlgorithm::kLemma1;
    bool global_information = true;  ///< propagate LI (vs causal-only)
  };

  RecoveryManager(sim::Simulator& simulator, sim::Network& network,
                  ccp::CcpRecorder& recorder, std::vector<ckpt::Node*> nodes,
                  Config config);

  /// Restart-safe variant: sessions resolve processes through `nodes`
  /// instead of holding borrowed pointers that a restart would dangle.  The
  /// process count comes from the recorder.
  RecoveryManager(sim::Simulator& simulator, sim::Network& network,
                  ccp::CcpRecorder& recorder, NodeProvider nodes,
                  Config config);

  /// Run a recovery session for the given faulty set, now:
  /// run(plan(faulty)).
  RecoveryOutcome recover(const std::vector<ProcessId>& faulty);

  /// A computed-but-not-applied session: a recovery line and its LI vector.
  /// `plan()` and `session_for()` are pure (they read the recorder only);
  /// `apply_to()` executes the session at one process.  The split exists
  /// for the wire-driven sessions: the fleet parent broadcasts a plan and
  /// applies it per-process as RolledBack acks arrive, and the replay
  /// oracle mirrors exactly that incremental order — run() is apply_to(p)
  /// for every p under a paused network.
  struct SessionPlan {
    std::vector<CheckpointIndex> line;
    std::vector<IntervalIndex> li;
  };

  /// The session for the faulty set: its recovery line by the configured
  /// algorithm, then session_for(line).
  SessionPlan plan(const std::vector<ProcessId>& faulty) const;

  /// The session that restores `line` (entry last_s(p)+1 = volatile state
  /// kept), with LI derived from the recorder: LI[j] = last_s(j)+1 in the
  /// cut the line defines.
  SessionPlan session_for(std::vector<CheckpointIndex> line) const;

  /// Execute `session` everywhere, now: stop the world, drop in-transit
  /// messages, apply it to every process, resume.
  RecoveryOutcome run(const SessionPlan& session);

  struct ApplyResult {
    bool rolled = false;  ///< restored a stable checkpoint (vs peer recovery)
    std::uint64_t checkpoints_discarded = 0;
    std::uint64_t general_checkpoints_rolled_back = 0;
  };

  /// Execute the planned session at process p (targeted rollback when the
  /// line names a stable checkpoint, peer recovery otherwise).  Applying the
  /// same plan to the same process twice is NOT idempotent at this layer —
  /// idempotence across session restarts holds because a re-planned session
  /// computes the same line for an already-rolled-back process, whose branch
  /// then degenerates to a no-op rollback to its current position.
  ApplyResult apply_to(const SessionPlan& plan, ProcessId p);

  struct Stats {
    std::uint64_t sessions = 0;
    std::uint64_t checkpoints_discarded = 0;
    std::uint64_t general_checkpoints_rolled_back = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  ckpt::Node& node_at(ProcessId p);

  sim::Simulator& simulator_;
  sim::Network& network_;
  ccp::CcpRecorder& recorder_;
  std::vector<ckpt::Node*> nodes_;  ///< empty when provider_ is set
  NodeProvider provider_;           ///< null for the borrowed-pointer ctor
  Config config_;
  Stats stats_;
};

}  // namespace rdtgc::recovery
