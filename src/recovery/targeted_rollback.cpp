#include "recovery/targeted_rollback.hpp"

#include "ccp/precedence.hpp"
#include "util/check.hpp"

namespace rdtgc::recovery {

TargetedRollback::TargetedRollback(sim::Simulator& simulator,
                                   sim::Network& network,
                                   ccp::CcpRecorder& recorder,
                                   std::vector<ckpt::Node*> nodes)
    : recorder_(recorder),
      nodes_(nodes),
      manager_(simulator, network, recorder, std::move(nodes),
               RecoveryManager::Config{}) {}

std::optional<TargetedRollbackOutcome> TargetedRollback::rollback_to(
    const ccp::TargetSet& targets, TargetExtreme extreme) {
  RDTGC_EXPECTS(!targets.empty());
  const std::size_t n = nodes_.size();
  for (const auto& [p, g] : targets) {
    RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < n);
    // The target must be recoverable, i.e. actually in stable storage.
    RDTGC_EXPECTS(g >= 0 && g <= recorder_.last_stable(p));
    RDTGC_EXPECTS(nodes_[static_cast<std::size_t>(p)]->store().contains(g));
  }

  const ccp::DvPrecedence causal(recorder_);
  auto line = extreme == TargetExtreme::kMaximum
                  ? ccp::max_consistent_containing(recorder_, causal, targets)
                  : ccp::min_consistent_containing(recorder_, causal, targets);
  if (!line) return std::nullopt;

  // The computed line can include stable checkpoints already collected as
  // obsolete (a *past* line is not a future recovery line).  Restarting
  // there is impossible; treat it like inconsistency and refuse.
  for (std::size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<ProcessId>(p);
    if ((*line)[p] <= recorder_.last_stable(pid) &&
        !nodes_[p]->store().contains((*line)[p]))
      return std::nullopt;
  }

  const RecoveryOutcome outcome =
      manager_.run(manager_.session_for(std::move(*line)));
  return TargetedRollbackOutcome{outcome.line, outcome.checkpoints_discarded};
}

}  // namespace rdtgc::recovery
