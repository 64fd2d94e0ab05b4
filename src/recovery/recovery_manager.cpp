#include "recovery/recovery_manager.hpp"

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ccp/zigzag.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace rdtgc::recovery {

RecoveryManager::RecoveryManager(sim::Simulator& simulator,
                                 sim::Network& network,
                                 ccp::CcpRecorder& recorder,
                                 std::vector<ckpt::Node*> nodes, Config config)
    : simulator_(simulator),
      network_(network),
      recorder_(recorder),
      nodes_(std::move(nodes)),
      config_(config) {
  RDTGC_EXPECTS(!nodes_.empty());
  RDTGC_EXPECTS(nodes_.size() == recorder_.process_count());
  for (const ckpt::Node* node : nodes_) RDTGC_EXPECTS(node != nullptr);
}

RecoveryManager::RecoveryManager(sim::Simulator& simulator,
                                 sim::Network& network,
                                 ccp::CcpRecorder& recorder,
                                 NodeProvider nodes, Config config)
    : simulator_(simulator),
      network_(network),
      recorder_(recorder),
      provider_(std::move(nodes)),
      config_(config) {
  RDTGC_EXPECTS(provider_ != nullptr);
}

ckpt::Node& RecoveryManager::node_at(ProcessId p) {
  return provider_ ? provider_(p) : *nodes_[static_cast<std::size_t>(p)];
}

RecoveryManager::SessionPlan RecoveryManager::plan(
    const std::vector<ProcessId>& faulty) const {
  RDTGC_EXPECTS(!faulty.empty());
  const std::size_t n = recorder_.process_count();
  std::vector<bool> faulty_mask(n, false);
  for (const ProcessId f : faulty) {
    RDTGC_EXPECTS(f >= 0 && static_cast<std::size_t>(f) < n);
    faulty_mask[static_cast<std::size_t>(f)] = true;
  }

  std::vector<CheckpointIndex> line;
  if (config_.line_algorithm == LineAlgorithm::kLemma1) {
    const ccp::DvPrecedence causal(recorder_);
    line = ccp::recovery_line_lemma1(recorder_, causal, faulty_mask);
  } else {
    const ccp::ZigzagAnalysis zigzag(recorder_);
    line = zigzag.recovery_line(faulty_mask);
  }
  // Faulty processes can never keep their volatile state (Lemma 1).
  for (const ProcessId f : faulty) {
    RDTGC_ASSERT(line[static_cast<std::size_t>(f)] <=
                 recorder_.last_stable(f));
  }
  return session_for(std::move(line));
}

RecoveryManager::SessionPlan RecoveryManager::session_for(
    std::vector<CheckpointIndex> line) const {
  const std::size_t n = recorder_.process_count();
  RDTGC_EXPECTS(line.size() == n);
  SessionPlan plan;
  plan.line = std::move(line);
  // LI[j] = last_s(j) + 1 in the cut defined by the line: a rolled-back
  // process restores s^{line[j]} (making it the last stable checkpoint); a
  // surviving process keeps its volatile state, so line[j] already equals
  // last_s(j)+1.
  plan.li.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const CheckpointIndex last = recorder_.last_stable(static_cast<ProcessId>(j));
    plan.li[j] = plan.line[j] <= last ? plan.line[j] + 1 : plan.line[j];
  }
  return plan;
}

RecoveryManager::ApplyResult RecoveryManager::apply_to(const SessionPlan& plan,
                                                       ProcessId p) {
  const auto idx = static_cast<std::size_t>(p);
  RDTGC_EXPECTS(idx < plan.line.size());
  ckpt::Node& node = node_at(p);
  const CheckpointIndex last = recorder_.last_stable(p);
  ApplyResult result;
  // Definition 5 metric: general checkpoints rolled back (the volatile
  // state counts as c^{last+1}).
  result.general_checkpoints_rolled_back +=
      static_cast<std::uint64_t>((last + 1) - plan.line[idx]);
  if (plan.line[idx] <= last) {
    // The line must name a checkpoint that is actually recoverable; the
    // GC safety results guarantee it was never collected.
    RDTGC_ASSERT(node.store().contains(plan.line[idx]));
    const std::uint64_t before = node.store().stats().discarded;
    node.rollback_to(plan.line[idx],
                     config_.global_information
                         ? std::optional<std::vector<IntervalIndex>>(plan.li)
                         : std::nullopt);
    result.checkpoints_discarded += node.store().stats().discarded - before;
    result.rolled = true;
  } else if (config_.global_information) {
    node.peer_recovery(plan.li);
  }
  return result;
}

RecoveryOutcome RecoveryManager::recover(const std::vector<ProcessId>& faulty) {
  return run(plan(faulty));
}

RecoveryOutcome RecoveryManager::run(const SessionPlan& session) {
  ++stats_.sessions;
  // Stop the world; in-transit messages are excluded from the CCP.
  network_.pause();
  network_.drop_in_flight();

  RecoveryOutcome outcome;
  outcome.line = session.line;
  for (std::size_t p = 0; p < session.line.size(); ++p) {
    const ApplyResult applied = apply_to(session, static_cast<ProcessId>(p));
    outcome.checkpoints_discarded += applied.checkpoints_discarded;
    outcome.general_checkpoints_rolled_back +=
        applied.general_checkpoints_rolled_back;
    if (applied.rolled) outcome.rolled_back.push_back(static_cast<ProcessId>(p));
  }

  stats_.checkpoints_discarded += outcome.checkpoints_discarded;
  stats_.general_checkpoints_rolled_back +=
      outcome.general_checkpoints_rolled_back;

  network_.resume();
  RDTGC_INFO("recovery session at t=" << simulator_.now() << ": "
             << outcome.rolled_back.size() << " processes rolled back");
  return outcome;
}

}  // namespace rdtgc::recovery
