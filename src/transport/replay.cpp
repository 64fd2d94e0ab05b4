#include "transport/replay.hpp"

#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "causality/dependency_vector.hpp"
#include "recovery/recovery_manager.hpp"
#include "util/check.hpp"

namespace rdtgc::transport {

namespace {

bool dv_matches(std::span<const IntervalIndex> got,
                const std::vector<IntervalIndex>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t j = 0; j < want.size(); ++j)
    if (got[j] != want[j]) return false;
  return true;
}

std::string dv_string(std::span<const IntervalIndex> dv) {
  std::ostringstream os;
  os << '(';
  for (std::size_t j = 0; j < dv.size(); ++j)
    os << (j ? "," : "") << dv[j];
  os << ')';
  return os.str();
}

/// Identity of an in-flight message in the real run, mapped to the replay
/// system's manual-mailbox message id.
struct MsgKey {
  ProcessId src;
  std::uint32_t incarnation;
  std::uint64_t seq;
  auto operator<=>(const MsgKey&) const = default;
};

struct Pending {
  sim::MessageId id = 0;
  ProcessId dst = -1;
  IntervalIndex send_interval = 0;
};

/// A completed delivery with both endpoints still live — the replay-side
/// mirror of the fleet's orphan bookkeeping.  When a re-attach rolls the
/// sender behind a recorded send interval, the delivery is orphaned and
/// only a recovery session can repair it; a log that ends without one is
/// refused with a message naming the orphaning event.
struct Delivered {
  ProcessId src = -1;
  std::uint32_t src_incarnation = 0;
  std::uint64_t seq = 0;
  IntervalIndex send_interval = 0;
  ProcessId dst = -1;
  IntervalIndex recv_interval = 0;
};

class Replayer {
 public:
  Replayer(const std::vector<Event>& events, const ReplayConfig& config)
      : events_(events), config_(config) {}

  ReplayResult run() {
    ReplayResult result;
    RDTGC_EXPECTS(config_.process_count >= 2);
    RDTGC_EXPECTS(config_.backend != ckpt::StorageBackendKind::kInMemory);
    RDTGC_EXPECTS(!config_.scratch_dir.empty());
    std::filesystem::create_directories(config_.scratch_dir);

    harness::SystemConfig sc;
    sc.process_count = config_.process_count;
    sc.protocol = config_.protocol;
    sc.gc = harness::GcChoice::kRdtLgc;
    sc.network.manual = true;
    sc.node.checkpoint_bytes = config_.checkpoint_bytes;
    sc.node.storage.kind = config_.backend;
    sc.node.storage.directory = config_.scratch_dir;
    system_ = std::make_unique<harness::System>(sc);
    // Same line algorithm / information model as the fleet's wire sessions:
    // Lemma 1 with the LI vector propagated (global information).
    manager_ = std::make_unique<recovery::RecoveryManager>(
        system_->simulator(), system_->network(), system_->recorder(),
        system_->node_provider(), recovery::RecoveryManager::Config{});

    bool ok = true;
    try {
      for (index_ = 0; index_ < events_.size(); ++index_) {
        if (!step(events_[index_])) {
          ok = false;
          break;
        }
        if (stopped_at_) break;  // clean-prefix boundary reached
      }
    } catch (const std::exception& e) {
      // A contract violation inside the replayed stack IS a divergence
      // (e.g. delivering a message the replay already purged).
      ok = fail(std::string("replay threw: ") + e.what());
    }
    result.ok = ok;
    result.error = error_;
    result.events_replayed = stopped_at_ ? *stopped_at_ : index_;
    result.stopped_at = stopped_at_;
    result.stop_reason = stop_reason_;
    result.system = std::move(system_);
    return result;
  }

 private:
  bool fail(const std::string& what) {
    std::ostringstream os;
    os << "event " << index_;
    if (index_ < events_.size())
      os << " (" << event_to_line(events_[index_]) << ")";
    os << ": " << what;
    error_ = os.str();
    return false;
  }

  bool check_dv(const ckpt::Node& node, const std::vector<IntervalIndex>& want,
                const char* what) {
    if (dv_matches(node.dv().entries(), want)) return true;
    return fail(std::string(what) + ": replay dv " +
                dv_string(node.dv().entries()) + " != logged dv " +
                dv_string({want.data(), want.size()}));
  }

  bool step(const Event& e) {
    switch (e.kind) {
      case EventKind::kAttach:
        return step_attach(e);
      case EventKind::kSend:
        return step_send(e);
      case EventKind::kDeliver:
        return step_deliver(e);
      case EventKind::kCheckpoint:
        return step_checkpoint(e);
      case EventKind::kKill:
        return step_kill(e);
      case EventKind::kUncleanKill:
        // An undrained SIGKILL may have lost frames in kernel buffers
        // unlogged: everything before this position was certified, nothing
        // at or after it can be.  Stop with ok=true and report the boundary.
        stopped_at_ = index_;
        stop_reason_ = "unclean kill of process " + std::to_string(e.p) +
                       " at event " + std::to_string(e.seq) +
                       ": certified the clean prefix only";
        return true;
      case EventKind::kDrop:
        return step_drop(e);
      case EventKind::kState:
        return step_state(e);
      case EventKind::kRecoveryStart:
        return step_recovery_start(e);
      case EventKind::kRolledBack:
        return step_rolled_back(e);
    }
    return fail("unknown event kind");
  }

  bool step_attach(const Event& e) {
    if (e.p < 0 || static_cast<std::size_t>(e.p) >= config_.process_count)
      return fail("attach of an unknown process");
    ckpt::Node* node = nullptr;
    if (e.incarnation == 0) {
      // The fresh spawn: System constructed the node already; just certify
      // the Hello digest against the cold-start state.
      node = &system_->node(e.p);
    } else {
      // The real process re-attached from its media; replay the warm
      // restart (disconnect + kAttach over the replay system's own media).
      node = &system_->restart_node(e.p);
    }
    if (node->last_checkpoint_index() != e.index)
      return fail("attach: replay last index " +
                  std::to_string(node->last_checkpoint_index()) +
                  " != logged " + std::to_string(e.index));
    if (!check_dv(*node, e.dv, "attach")) return false;
    if (e.incarnation > 0) {
      // The fleet's orphan scan: a surviving delivery whose send interval
      // died with the killed incarnation's volatile state.  If one exists
      // the log MUST contain a recovery session next — remember the event
      // so a session-less log is refused by name at certification time.
      bool orphaned = false;
      for (const Delivered& r : delivered_) {
        if (r.src == e.p && r.src_incarnation < e.incarnation &&
            r.send_interval > e.index) {
          std::ostringstream os;
          os << "message src=" << r.src << " sinc=" << r.src_incarnation
             << " seq=" << r.seq << " delivered to process " << r.dst
             << " was orphaned by the re-attach of process " << e.p
             << " at index " << e.index << " (send interval "
             << r.send_interval << " died with the killed incarnation); "
             << "only a recovery session repairs this";
          pending_orphan_ = os.str();
          orphaned = true;
          break;
        }
      }
      if (!orphaned) {
        // No orphan: the fleet's FleetMirror::forget_after_attach.
        std::erase_if(delivered_, [&](const Delivered& r) {
          return (r.dst == e.p && r.recv_interval > e.index) ||
                 (r.src == e.p && r.send_interval > e.index);
        });
      }
    }
    return true;
  }

  bool step_send(const Event& e) {
    ckpt::Node& node = system_->node(e.src);
    // The piggybacked DV is the sender's vector at the send — certify it
    // BEFORE re-executing, so a divergence is caught at its first symptom.
    if (!check_dv(node, e.dv, "send")) return false;
    if (node.current_interval() != e.interval)
      return fail("send: replay interval " +
                  std::to_string(node.current_interval()) + " != logged " +
                  std::to_string(e.interval));
    const sim::MessageId id = node.send_app_message(e.dst, e.bytes);
    const MsgKey key{e.src, e.src_incarnation, e.seq};
    if (!pending_.emplace(key, Pending{id, e.dst, e.interval}).second)
      return fail("send: duplicate message identity");
    return true;
  }

  bool step_deliver(const Event& e) {
    const MsgKey key{e.src, e.src_incarnation, e.seq};
    const auto it = pending_.find(key);
    if (it == pending_.end())
      return fail("deliver of a message the log never sent (or already "
                  "delivered/dropped)");
    ckpt::Node& node = system_->node(e.dst);
    const std::uint64_t forced_before = node.counters().forced_checkpoints;
    const IntervalIndex send_interval = it->second.send_interval;
    system_->network().deliver_now(it->second.id);
    pending_.erase(it);
    delivered_.push_back(Delivered{key.src, key.incarnation, key.seq,
                                   send_interval, e.dst, e.interval});
    const bool forced = node.counters().forced_checkpoints != forced_before;
    if (forced != (e.forced != 0))
      return fail(std::string("deliver: replay ") +
                  (forced ? "forced" : "did not force") +
                  " a checkpoint, the real run " +
                  (e.forced ? "did" : "did not"));
    if (node.current_interval() != e.interval)
      return fail("deliver: replay interval " +
                  std::to_string(node.current_interval()) + " != logged " +
                  std::to_string(e.interval));
    return check_dv(node, e.dv, "deliver");
  }

  bool step_checkpoint(const Event& e) {
    ckpt::Node& node = system_->node(e.p);
    node.take_basic_checkpoint();
    if (node.last_checkpoint_index() != e.index)
      return fail("checkpoint: replay index " +
                  std::to_string(node.last_checkpoint_index()) +
                  " != logged " + std::to_string(e.index));
    const causality::DvView row =
        system_->recorder().checkpoint_dv(e.p, e.index);
    if (!dv_matches(row.entries(), e.dv))
      return fail("checkpoint: replay dv " + dv_string(row.entries()) +
                  " != logged dv " + dv_string({e.dv.data(), e.dv.size()}));
    return true;
  }

  bool step_kill(const Event& e) {
    // A quiesced kill happens only with nothing in flight touching p — that
    // is what makes the simulator's disconnect purge (inside the upcoming
    // kAttach's restart_node) vacuous and the certification exact.
    for (const auto& [key, pending] : pending_) {
      if (key.src == e.p || pending.dst == e.p)
        return fail("kill of process " + std::to_string(e.p) +
                    " with message seq " + std::to_string(key.seq) +
                    " still in flight: the drain protocol was violated");
    }
    return true;
  }

  bool step_drop(const Event& e) {
    const MsgKey key{e.src, e.src_incarnation, e.seq};
    if (pending_.erase(key) == 0)
      return fail("drop of a message the log never sent");
    // The replayed message stays parked in the manual mailbox; the
    // destination's next restart_node purges it, mirroring the loss.
    return true;
  }

  /// A kRecoveryStart recomputes the session plan through the simulator's
  /// RecoveryManager from the replayed recorder and certifies the Lemma-1
  /// line and LI vector against what the fleet parent computed from its DV
  /// mirrors.  A restarted session (second kill mid-session) logs a new
  /// rstart with the accumulated faulty set: this replays against the
  /// partially-applied recorder state, exactly as the parent recomputed it.
  bool step_recovery_start(const Event& e) {
    if (!pending_.empty())
      return fail("recovery session started with messages in flight: the "
                  "pre-session drain was violated");
    if (e.faulty.empty())
      return fail("recovery session with an empty faulty set");
    const std::size_t n = config_.process_count;
    if (e.line.size() != n || e.li.size() != n)
      return fail("recovery start with malformed line/li vectors");
    plan_ = manager_->plan(e.faulty);
    has_plan_ = true;
    session_ = e.session;
    attempt_ = e.attempt;
    for (std::size_t j = 0; j < n; ++j) {
      if (plan_.line[j] != static_cast<CheckpointIndex>(e.line[j]))
        return fail("recovery line mismatch at process " + std::to_string(j) +
                    ": replay " + std::to_string(plan_.line[j]) +
                    " != logged " + std::to_string(e.line[j]));
      if (plan_.li[j] != e.li[j])
        return fail("LI vector mismatch at process " + std::to_string(j) +
                    ": replay " + std::to_string(plan_.li[j]) +
                    " != logged " + std::to_string(e.li[j]));
    }
    // The session repairs the orphan that triggered it; delivered pairs
    // rolled past the line leave the CCP on both sides.
    pending_orphan_.clear();
    std::erase_if(delivered_, [&](const Delivered& r) {
      return r.send_interval > e.line[static_cast<std::size_t>(r.src)] ||
             r.recv_interval > e.line[static_cast<std::size_t>(r.dst)];
    });
    return true;
  }

  /// Each kRolledBack ack applies the current plan to exactly that process
  /// — a worker acks each attempt it was sent once, so per-ack application
  /// mirrors the real run bit for bit, restarted attempts included — and
  /// certifies the post-rollback digest.
  bool step_rolled_back(const Event& e) {
    if (!has_plan_)
      return fail("rollback ack outside any recovery session");
    if (e.session != session_ || e.attempt != attempt_)
      return fail("rollback ack for session " + std::to_string(e.session) +
                  " attempt " + std::to_string(e.attempt) +
                  ", but the open session is " + std::to_string(session_) +
                  " attempt " + std::to_string(attempt_));
    const recovery::RecoveryManager::ApplyResult r =
        manager_->apply_to(plan_, e.p);
    if (r.rolled != (e.forced != 0))
      return fail(std::string("rollback ack: replay ") +
                  (r.rolled ? "restored a stable checkpoint"
                            : "ran peer recovery") +
                  ", the real process " +
                  (e.forced ? "restored a stable checkpoint"
                            : "ran peer recovery"));
    const ckpt::Node& node = system_->node(e.p);
    if (node.last_checkpoint_index() != e.index)
      return fail("rollback ack: replay last index " +
                  std::to_string(node.last_checkpoint_index()) +
                  " != logged " + std::to_string(e.index));
    if (!check_dv(node, e.dv, "rollback ack")) return false;
    if (node.store().stored_indices() != e.stored)
      return fail("rollback ack: stored-index set mismatch");
    return true;
  }

  bool step_state(const Event& e) {
    if (!pending_orphan_.empty())
      return fail("cannot certify: " + pending_orphan_);
    const ckpt::Node& node = system_->node(e.p);
    if (!check_dv(node, e.dv, "state")) return false;
    if (node.last_checkpoint_index() != e.index)
      return fail("state: replay last index " +
                  std::to_string(node.last_checkpoint_index()) +
                  " != logged " + std::to_string(e.index));
    const ckpt::Node::Counters& c = node.counters();
    if (c.basic_checkpoints != e.basic || c.forced_checkpoints != e.forced_count ||
        c.messages_sent != e.sent || c.messages_received != e.received ||
        c.rollbacks != e.rollbacks) {
      return fail("state: counter mismatch (replay basic=" +
                  std::to_string(c.basic_checkpoints) +
                  " forced=" + std::to_string(c.forced_checkpoints) +
                  " sent=" + std::to_string(c.messages_sent) +
                  " recv=" + std::to_string(c.messages_received) +
                  " rb=" + std::to_string(c.rollbacks) + ")");
    }
    if (node.store().stored_indices() != e.stored)
      return fail("state: stored-index set mismatch");
    return true;
  }

  const std::vector<Event>& events_;
  ReplayConfig config_;
  std::unique_ptr<harness::System> system_;
  std::unique_ptr<recovery::RecoveryManager> manager_;
  std::map<MsgKey, Pending> pending_;
  std::vector<Delivered> delivered_;
  recovery::RecoveryManager::SessionPlan plan_;
  bool has_plan_ = false;
  std::uint64_t session_ = 0;
  std::uint32_t attempt_ = 0;
  /// Non-empty while an orphaned delivery awaits its recovery session; a
  /// final State digest with this still set refuses certification, naming
  /// the orphaning event.
  std::string pending_orphan_;
  std::optional<std::size_t> stopped_at_;
  std::string stop_reason_;
  std::size_t index_ = 0;
  std::string error_;
};

}  // namespace

ReplayResult replay_events(const std::vector<Event>& events,
                           const ReplayConfig& config) {
  return Replayer(events, config).run();
}

ReplayResult replay_event_log(const std::string& log_path,
                              const ReplayConfig& config) {
  return replay_events(read_event_log(log_path), config);
}

}  // namespace rdtgc::transport
