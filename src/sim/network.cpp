#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::sim {

Network::Network(Simulator& simulator, util::Rng rng, Config config)
    : simulator_(simulator), rng_(rng), config_(config) {
  RDTGC_EXPECTS(config_.min_delay <= config_.max_delay);
  RDTGC_EXPECTS(config_.min_delay >= 1);  // zero-delay would break causal order
  RDTGC_EXPECTS(config_.loss_probability >= 0.0 &&
                config_.loss_probability <= 1.0);
}

void Network::connect(ProcessId p, DeliveryFn sink) {
  RDTGC_EXPECTS(p >= 0);
  RDTGC_EXPECTS(sink != nullptr);
  if (static_cast<std::size_t>(p) >= sinks_.size())
    sinks_.resize(static_cast<std::size_t>(p) + 1);
  RDTGC_EXPECTS(sinks_[static_cast<std::size_t>(p)] == nullptr);
  sinks_[static_cast<std::size_t>(p)] = std::move(sink);
}

void Network::disconnect(ProcessId p) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < sinks_.size() &&
                sinks_[static_cast<std::size_t>(p)] != nullptr);
  sinks_[static_cast<std::size_t>(p)] = nullptr;
  if (static_cast<std::size_t>(p) >= process_epoch_.size())
    process_epoch_.resize(static_cast<std::size_t>(p) + 1, 0);
  // Scheduled deliveries touching p self-discard when they surface (their
  // recorded epoch went stale); parked and held messages are purged here.
  ++process_epoch_[static_cast<std::size_t>(p)];
  const auto spared = [&](Slot slot) {
    const Message& m = parcels_[slot].message;
    return m.src != p && m.dst != p;
  };
  for (std::vector<Slot>* queue : {&held_, &mailbox_}) {
    const auto dead =
        std::stable_partition(queue->begin(), queue->end(), spared);
    const auto dropped = static_cast<std::uint64_t>(queue->end() - dead);
    stats_.dropped_in_flight += dropped;
    RDTGC_ASSERT(in_flight_ >= dropped);
    in_flight_ -= dropped;
    for (auto it = dead; it != queue->end(); ++it) discard(*it);
    queue->erase(dead, queue->end());
  }
}

Message Network::make_message() {
  // Fresh value-initialized shell that steals only a spare's DV and
  // control buffers (the caller overwrites their contents, reusing the
  // capacity) — every other field gets its default, even ones added later.
  Message m;
  if (!spare_.empty()) {
    m.dv = std::move(spare_.back().dv);
    m.control = std::move(spare_.back().control);
    spare_.pop_back();
  }
  m.control.clear();  // capacity survives; stale words must not
  return m;
}

Network::Slot Network::park(Message m) {
  Slot slot;
  if (free_.empty()) {
    slot = static_cast<Slot>(parcels_.size());
    parcels_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  parcels_[slot].message = std::move(m);
  return slot;
}

Message Network::unpark(Slot slot) {
  Message m = std::move(parcels_[slot].message);
  free_.push_back(slot);
  return m;
}

void Network::recycle(Message m) {
  // Every shell a make_message() sender needs was in flight at once, so
  // the table's size bounds the stack.
  if (spare_.size() < parcels_.size()) spare_.push_back(std::move(m));
}

SimTime Network::delivery_time(const Message& m) {
  const SimTime span = config_.max_delay - config_.min_delay + 1;
  SimTime when = simulator_.now() + config_.min_delay +
                 static_cast<SimTime>(rng_.uniform(span));
  if (config_.fifo) {
    auto& last = last_delivery_[{m.src, m.dst}];
    when = std::max(when, last);
    last = when;
  }
  return when;
}

MessageId Network::send(Message m) {
  RDTGC_EXPECTS(m.dst >= 0 &&
                static_cast<std::size_t>(m.dst) < sinks_.size() &&
                sinks_[static_cast<std::size_t>(m.dst)] != nullptr);
  // Keep a caller-assigned id (the recorder hands them out so analyses can
  // link messages); assign one only for bare messages.
  if (m.id == 0) m.id = next_id_++;
  m.sent_at = simulator_.now();
  ++stats_.sent;
  stats_.bytes_sent += m.bytes;
  const MessageId id = m.id;

  if (rng_.bernoulli(config_.loss_probability)) {
    ++stats_.lost;
    recycle(std::move(m));
    return id;
  }
  if (config_.manual) {
    ++in_flight_;
    mailbox_.push_back(park(std::move(m)));
    return id;
  }
  if (paused_) {
    held_.push_back(park(std::move(m)));
    ++in_flight_;
    return id;
  }
  const SimTime when = delivery_time(m);
  schedule_delivery(park(std::move(m)), when);
  return id;
}

void Network::schedule_delivery(Slot slot, SimTime when) {
  ++in_flight_;
  Parcel& parcel = parcels_[slot];
  parcel.epoch = epoch_;
  parcel.src_epoch = process_epoch(parcel.message.src);
  parcel.dst_epoch = process_epoch(parcel.message.dst);
  simulator_.at(when, [this, slot] { on_delivery(slot); });
}

void Network::on_delivery(Slot slot) {
  const Parcel& parcel = parcels_[slot];
  if (parcel.epoch != epoch_) {
    // drop_in_flight() already reset the counter for this epoch.
    ++stats_.dropped_in_flight;
    discard(slot);
    return;
  }
  if (parcel.src_epoch != process_epoch(parcel.message.src) ||
      parcel.dst_epoch != process_epoch(parcel.message.dst)) {
    // An endpoint's process died (disconnect) after this delivery was
    // scheduled: the message was in flight at the death and is lost.
    // Unlike the global-epoch path the counter was NOT reset, so this
    // message still counts against it.
    RDTGC_ASSERT(in_flight_ > 0);
    --in_flight_;
    ++stats_.dropped_in_flight;
    discard(slot);
    return;
  }
  RDTGC_ASSERT(in_flight_ > 0);
  --in_flight_;
  if (paused_) {
    // Delivery surfaced while frozen: requeue for resume().
    held_.push_back(slot);
    ++in_flight_;
    return;
  }
  hand_over(slot);
}

void Network::hand_over(Slot slot) {
  // Move out before the sink runs: it may send, and a send may grow the
  // slot table under a reference into it.
  Message m = unpark(slot);
  ++stats_.delivered;
  sinks_[static_cast<std::size_t>(m.dst)](m);
  recycle(std::move(m));  // hand the buffers back to the next sender
}

void Network::drop_in_flight() {
  ++epoch_;  // invalidates scheduled deliveries
  stats_.dropped_in_flight += held_.size() + mailbox_.size();
  for (const Slot slot : held_) discard(slot);
  for (const Slot slot : mailbox_) discard(slot);
  held_.clear();
  mailbox_.clear();
  in_flight_ = 0;
}

void Network::deliver_now(MessageId id) {
  RDTGC_EXPECTS(config_.manual);
  const auto it =
      std::find_if(mailbox_.begin(), mailbox_.end(),
                   [&](Slot slot) { return parcels_[slot].message.id == id; });
  RDTGC_EXPECTS(it != mailbox_.end());
  const Slot slot = *it;
  mailbox_.erase(it);
  RDTGC_ASSERT(in_flight_ > 0);
  --in_flight_;
  hand_over(slot);
}

std::vector<MessageId> Network::parked() const {
  std::vector<MessageId> out;
  out.reserve(mailbox_.size());
  for (const Slot slot : mailbox_) out.push_back(parcels_[slot].message.id);
  return out;
}

void Network::pause() { paused_ = true; }

void Network::resume() {
  paused_ = false;
  in_flight_ -= held_.size();
  // Scheduling grows the simulator's heap, never the slot table, so the
  // held messages stay in place.
  for (const Slot slot : held_)
    schedule_delivery(slot, delivery_time(parcels_[slot].message));
  held_.clear();
}

}  // namespace rdtgc::sim
