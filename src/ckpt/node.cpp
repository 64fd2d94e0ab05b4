#include "ckpt/node.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace rdtgc::ckpt {

Node::Node(ProcessId self, std::size_t process_count,
           sim::Simulator& simulator, transport::Transport& transport,
           ccp::CcpRecorder& recorder,
           std::unique_ptr<CheckpointingProtocol> protocol,
           std::unique_ptr<GarbageCollector> gc, Config config)
    : self_(self),
      simulator_(simulator),
      transport_(transport),
      recorder_(recorder),
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
  // The recorder reads DV(v_self) straight from dv_ (stable address: Node is
  // neither copyable nor movable) — no per-event copy.
  recorder_.attach_volatile_dv(self_, &dv_);
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

  // A recorder with no lineage for this process is a REAL re-attach: the
  // pre-crash OS process died together with the recorder that observed it
  // (the socket-transport worker path, transport/worker.hpp), and the
  // replacement starts empty.  Re-seed the dense rows 0..last from the
  // media so the restart below has a lineage to resume.  Checkpoints the
  // collector discarded left no DV trace; their rows are monotone
  // placeholders (previous surviving row with the self entry advanced) —
  // observer-grade only, global certification is the replay oracle's job.
  if (recorder_.checkpoints(self_).empty()) {
    causality::DependencyVector row(process_count);
    for (CheckpointIndex g = 0; g <= last; ++g) {
      if (store_.contains(g)) {
        const causality::DvView stored = store_.dv_view(g);
        for (std::size_t j = 0; j < process_count; ++j)
          row.at(static_cast<ProcessId>(j)) =
              stored[static_cast<ProcessId>(j)];
      } else {
        row.at(self_) = g;
      }
      recorder_.seed_checkpoint(self_, g, row.view(),
                                g == 0 ? ccp::CheckpointKind::kInitial
                                       : ccp::CheckpointKind::kBasic,
                                simulator_.now());
    }
  }

  // The recorder observed (or just re-seeded) the pre-crash lineage; the
  // death of this process kills its volatile-interval events, and the new
  // dv_ replaces the dead Node's registered view.
  recorder_.record_restart(self_, last, simulator_.now());
  recorder_.reattach_volatile_dv(self_, &dv_);
  // Certification: the oracle's surviving rows must match the media
  // bit-for-bit (Theorem 1 keeps holding across the restart only if the
  // recovered DVs are exactly the recorded ones).
  for (const CheckpointIndex g : store_.stored_indices())
    RDTGC_ASSERT(store_.dv_view(g) == recorder_.checkpoint_dv(self_, g));

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
  m.id = recorder_.new_message_id();
  recorder_.record_send(m, simulator_.now());
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
  recorder_.record_receive(m, dv_[self_], simulator_.now());
  dv_.merge_into(m.dv, gc_scratch_);
  // Piggybacked protocol knowledge merges after the forced checkpoint, so a
  // BCS/FI forced checkpoint conceptually carries the message's timestamp.
  protocol_->on_deliver(m);
  gc_->on_new_dependencies(gc_scratch_.span());
}

void Node::take_checkpoint(ccp::CheckpointKind kind) {
  const CheckpointIndex index = dv_[self_];
  store_.put(index, dv_, simulator_.now(), config_.checkpoint_bytes);
  recorder_.record_checkpoint(self_, index, dv_, kind, simulator_.now());
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
  recorder_.record_rollback(self_, ri, simulator_.now());
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
