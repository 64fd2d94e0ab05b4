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

/// Recovery line of a FULL restart from stable storage alone (§2.4 taken to
/// its limit: every process failed, no volatile state, no recorder — only
/// what the persistent checkpoint-store backends wrote to disk survives).
///
/// `stores` holds one reopened store per process (constructed with
/// OpenMode::kAttach over the original directory, then recover()ed — see
/// ckpt/sharded_checkpoint_store.hpp).  The line is Lemma 1 specialized to
/// F = all processes, evaluated over the STORED dependency vectors through
/// the stores' dv_view (Equation 2: c_a^α → c_b^β ⇔ α < DV(c_b^β)[a]):
/// per process the latest stored checkpoint not causally preceded by any
/// peer's last stored checkpoint.  Theorem 1 guarantees the line's members
/// were never collected, so an entry always exists; RD-trackability makes
/// the result exact.  Throws ContractViolation on an empty store (a process
/// with no recovered checkpoint cannot restart).
std::vector<CheckpointIndex> recovery_line_from_storage(
    const std::vector<const ckpt::ShardedCheckpointStore*>& stores);

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

  /// Run a recovery session for the given faulty set, now.
  RecoveryOutcome recover(const std::vector<ProcessId>& faulty);

  /// A computed-but-not-applied session: the Lemma-1 line, its LI vector,
  /// and the faulty set it was computed for.  `plan()` is pure (reads the
  /// recorder only); `apply_to()` executes the session at one process.  The
  /// split exists for the wire-driven sessions: the fleet parent broadcasts
  /// a plan and applies it per-process as RolledBack acks arrive, and the
  /// replay oracle mirrors exactly that incremental order — recover() is
  /// plan() + apply_to(p) for every p under a paused network.
  struct SessionPlan {
    std::vector<CheckpointIndex> line;
    std::vector<IntervalIndex> li;
    std::vector<bool> faulty_mask;
  };

  SessionPlan plan(const std::vector<ProcessId>& faulty) const;

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
