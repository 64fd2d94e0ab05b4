#include "ckpt/node.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace rdtgc::ckpt {

Node::Node(ProcessId self, std::size_t process_count, const sim::Clock& clock,
           transport::Transport& transport, ccp::NodeObserver& observer,
           std::unique_ptr<CheckpointingProtocol> protocol,
           std::unique_ptr<GarbageCollector> gc, Config config)
    : self_(self),
      clock_(clock),
      transport_(transport),
      observer_(observer),
      protocol_(std::move(protocol)),
      gc_(std::move(gc)),
      config_(config),
      store_(self, ShardedCheckpointStore::kDefaultShardCount,
             StoreConcurrency::kUnsynchronized, config.storage),
      dv_(process_count),
      gc_scratch_(process_count) {
  RDTGC_EXPECTS(self >= 0 && static_cast<std::size_t>(self) < process_count);
  RDTGC_EXPECTS(protocol_ != nullptr && gc_ != nullptr);
  // Before the first checkpoint hook fires below: start_fresh/attach both
  // take or replay checkpoints, and the protocol observes every one.
  protocol_->initialize(self_, process_count);
  transport_.connect(self_, [this](const sim::Message& m) { on_receive(m); });
  if (config.storage.open_mode == OpenMode::kAttach) {
    attach_from_storage(process_count);
  } else {
    start_fresh(process_count);
  }
}

void Node::start_fresh(std::size_t process_count) {
  // An observer may read DV(v_self) straight from dv_ (stable address: Node
  // is neither copyable nor movable) — no per-event copy.
  observer_.record_start(self_, dv_);
  gc_->initialize(self_, process_count, store_);
  // Every process starts its execution by storing a stable checkpoint s^0,
  // ensuring at least one global recoverable state (§2.2).
  take_checkpoint(ccp::CheckpointKind::kInitial);
  // Under an async durability policy s^0 would otherwise sit in the open
  // commit window: force it durable so any crash-cut leaves a non-empty
  // lineage on the media (attach refuses a checkpoint-less medium).
  if (store_.pipelined()) store_.flush();
}

void Node::attach_from_storage(std::size_t process_count) {
  // Attaching means resuming a persisted lineage; in-memory storage holds
  // none (its kAttach would always come up empty).
  RDTGC_EXPECTS(config_.storage.kind != StorageBackendKind::kInMemory);
  const std::size_t live = store_.recover();
  // A process whose media kept no checkpoint cannot warm-start — every
  // lineage begins with s^0 and the last checkpoint is never collected
  // (UC[self] pins it), so an empty recovered store means foreign or
  // corrupt media.
  RDTGC_EXPECTS(live > 0);

  // Algorithm 3 lines 5-6, applied to the restart-as-rollback: restore DV
  // from the last surviving checkpoint and resume interval numbering past
  // the highest persisted index.
  const CheckpointIndex last = store_.last_index();
  dv_ = store_.get(last).dv;
  dv_.at(self_) += 1;
  sent_since_checkpoint_ = false;

  // An observer that saw the pre-crash lineage certifies the recovered DVs.
  std::vector<ccp::RecoveredCheckpoint> recovered;
  recovered.reserve(live);
  for (const CheckpointIndex g : store_.stored_indices())
    recovered.push_back({g, store_.dv_view(g)});
  observer_.record_restart(self_, last, dv_, recovered);

  gc_->initialize(self_, process_count, store_);
  gc_->on_attach(dv_);
  RDTGC_DEBUG("p" << self_ << " attached at s^" << last << " dv="
                  << dv_.to_string());
}

sim::MessageId Node::send_app_message(ProcessId dst, std::uint64_t bytes) {
  RDTGC_EXPECTS(dst != self_);
  sim::Message m = transport_.make_message();  // recycled DV buffer
  m.src = self_;
  m.dst = dst;
  m.dv = dv_;
  m.send_interval = dv_[self_];
  m.bytes = bytes;
  // Protocol control words ride along (recycled buffer, cleared by
  // make_message); on_send sees the pre-send state — the `sent` flag rises
  // after, like Algorithm 4's `sent <- true`.
  protocol_->on_send(dst, m.control);
  RDTGC_ASSERT(m.control.size() == protocol_->control_words());
  observer_.record_send(m);
  sent_since_checkpoint_ = true;
  ++counters_.messages_sent;
  return transport_.send(std::move(m));
}

void Node::take_basic_checkpoint() {
  take_checkpoint(ccp::CheckpointKind::kBasic);
  ++counters_.basic_checkpoints;
}

void Node::on_receive(const sim::Message& m) {
  RDTGC_EXPECTS(m.dst == self_);
  // Messages can never carry fresher information about the receiver than the
  // receiver itself holds.
  RDTGC_ASSERT(m.dv[self_] <= dv_[self_]);

  // A peer running the same protocol wrote exactly control_words() words.
  RDTGC_ASSERT(m.control.size() == protocol_->control_words());

  if (protocol_->must_force(dv_, m, sent_since_checkpoint_)) {
    take_checkpoint(ccp::CheckpointKind::kForced);
    ++counters_.forced_checkpoints;
  }
  ++counters_.messages_received;
  observer_.record_receive(m, dv_[self_]);
  dv_.merge_into(m.dv, gc_scratch_);
  // Piggybacked protocol knowledge merges after the forced checkpoint, so a
  // BCS/FI forced checkpoint conceptually carries the message's timestamp.
  protocol_->on_deliver(m);
  gc_->on_new_dependencies(gc_scratch_.span());
}

void Node::take_checkpoint(ccp::CheckpointKind kind) {
  const CheckpointIndex index = dv_[self_];
  store_.put(index, dv_, clock_.now(), config_.checkpoint_bytes);
  observer_.record_checkpoint(self_, index, dv_, kind);
  gc_->on_checkpoint_stored(index);
  protocol_->on_checkpoint(kind);
  dv_.at(self_) += 1;
  sent_since_checkpoint_ = false;
  RDTGC_DEBUG("p" << self_ << " checkpoint " << index << " dv="
                  << dv_.to_string());
}

void Node::rollback_to(CheckpointIndex ri,
                       const std::optional<std::vector<IntervalIndex>>& li) {
  RDTGC_EXPECTS(store_.contains(ri));
  ++counters_.rollbacks;
  observer_.record_rollback(self_, ri);
  store_.discard_after(ri);                // Algorithm 3 line 4
  dv_ = store_.get(ri).dv;                 // line 5: recreate DV
  dv_.at(self_) += 1;                      // line 6
  sent_since_checkpoint_ = false;
  protocol_->on_rollback();
  gc_->on_rollback(RollbackInfo{ri, li}, dv_);  // lines 7-17
}

void Node::peer_recovery(const std::vector<IntervalIndex>& li) {
  gc_->on_peer_recovery(li, dv_);
}

}  // namespace rdtgc::ckpt
