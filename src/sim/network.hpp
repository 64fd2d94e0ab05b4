// Message transport for the simulated asynchronous system.
//
// Models the paper's channel assumptions (§2): messages may be delayed
// arbitrarily, lost, and delivered out of order (FIFO can be enabled for
// experiments that want it, but no algorithm here depends on it).  Supports
// dropping all in-flight messages, which the recovery manager uses to model
// the paper's rule that recovery lines exclude in-transit messages.
//
// Every message in flight — scheduled, held while paused, or parked in the
// manual mailbox — waits in one slot table, together with the epochs its
// scheduled delivery checks.  A scheduled delivery is a {this, slot}
// closure, which fits std::function's inline buffer, so scheduling and
// running it never allocates.  The delivery moves the message out of its
// slot before the sink runs (the sink may send and grow the table), and
// once the sink returns, the message's DV and control buffers go onto a
// spare stack that make_message() pops.  Dropped and lost messages feed
// the stack too.  The stack holds at most as many shells as the table has
// slots, so a sender that never calls make_message() cannot grow it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "util/rng.hpp"

namespace rdtgc::sim {

/// Delivery sink for a destination process.
using DeliveryFn = transport::DeliveryFn;

/// The deterministic reference implementation of transport::Transport:
/// every in-simulator run speaks to it through the trait's narrow waist,
/// and a recorded socket run (transport::UdsTransport) is certified by
/// replaying its merged event log through this class in manual mode
/// (transport/replay.hpp).
class Network final : public transport::Transport {
 public:
  struct Config {
    SimTime min_delay = 1;   ///< inclusive lower bound on transit time
    SimTime max_delay = 10;  ///< inclusive upper bound on transit time
    double loss_probability = 0.0;
    bool fifo = false;  ///< enforce per-channel FIFO delivery order
    /// Manual mode: sends are parked in a mailbox and delivered only by
    /// deliver_now() — used to script exact checkpoint-and-communication
    /// patterns (the paper's figures).
    bool manual = false;
  };

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;             ///< dropped by the loss model
    std::uint64_t dropped_in_flight = 0;  ///< dropped by drop_in_flight()
    std::uint64_t bytes_sent = 0;
  };

  Network(Simulator& simulator, util::Rng rng, Config config);

  /// Register the delivery callback for process `p`.  Must be called once per
  /// destination before any send to it (again after disconnect(p)).
  void connect(ProcessId p, DeliveryFn sink) override;

  /// Unregister process `p` (its process died — harness::System's
  /// restart_node drives this): the sink slot frees for a reconnect, and
  /// every message in flight to or from p is dropped — parked/held ones
  /// immediately, scheduled ones when their delivery event surfaces (p's
  /// epoch is bumped, so the stale closure self-discards exactly like the
  /// drop_in_flight() path).  Counted in stats().dropped_in_flight.
  void disconnect(ProcessId p) override;

  /// Send `m` (id and sent_at are assigned here).  Returns the message id.
  MessageId send(Message m) override;

  /// A blank message shell whose DV and control buffers are recycled from a
  /// delivered or dropped message (the spare stack; see the header
  /// comment): filling it with a same-size DV copy performs no heap
  /// allocation.  Senders on the hot path should start from this instead
  /// of a default-constructed Message.
  Message make_message() override;

  /// Drop every message currently in flight (used during recovery sessions).
  void drop_in_flight();

  /// Manual mode: deliver a parked message immediately (synchronously).
  void deliver_now(MessageId id);

  /// Manual mode: parked message ids, in send order.
  std::vector<MessageId> parked() const;

  /// Pause delivery: messages sent while paused are queued as in-flight but
  /// no delivery fires until resume().  Used to freeze the system while the
  /// recovery manager runs.
  void pause();
  void resume();

  const Stats& stats() const { return stats_; }
  std::uint64_t in_flight() const { return in_flight_; }

 private:
  /// Index into the slot table.
  using Slot = std::uint32_t;

  /// One message in flight.  The epochs are those current when its
  /// delivery was scheduled; a stale one drops the message when the
  /// delivery surfaces.
  struct Parcel {
    Message message;
    std::uint64_t epoch = 0;
    std::uint64_t src_epoch = 0;
    std::uint64_t dst_epoch = 0;
  };

  /// Park `m` in a free slot (growing the table when none is free).
  Slot park(Message m);
  /// Move the message out of `slot` and free the slot.
  Message unpark(Slot slot);
  /// Hand a delivered, dropped or lost message's buffers to the spare stack.
  void recycle(Message m);
  /// Free `slot`, recycling its message.
  void discard(Slot slot) { recycle(unpark(slot)); }
  /// Draw the delivery time of a message sent now (FIFO mode: never before
  /// the channel's previous delivery).
  SimTime delivery_time(const Message& m);
  void schedule_delivery(Slot slot, SimTime when);
  /// The scheduled delivery event of `slot`.
  void on_delivery(Slot slot);
  /// Deliver the message in `slot` to its sink, then recycle it.
  void hand_over(Slot slot);

  /// Current epoch of process p (0 until the first disconnect bumps it).
  std::uint64_t process_epoch(ProcessId p) const {
    return static_cast<std::size_t>(p) < process_epoch_.size()
               ? process_epoch_[static_cast<std::size_t>(p)]
               : 0;
  }

  Simulator& simulator_;
  util::Rng rng_;
  Config config_;
  std::vector<DeliveryFn> sinks_;
  Stats stats_;
  MessageId next_id_ = 1;
  /// Epoch counter: bumping it invalidates all scheduled deliveries.
  std::uint64_t epoch_ = 0;
  /// Per-process epochs: disconnect(p) bumps entry p, invalidating every
  /// scheduled delivery whose source or destination is p (grown lazily —
  /// absent entries are epoch 0).
  std::vector<std::uint64_t> process_epoch_;
  std::uint64_t in_flight_ = 0;
  bool paused_ = false;
  /// The slot table: every message in flight, and the free slots.
  std::vector<Parcel> parcels_;
  std::vector<Slot> free_;
  /// Slots of messages sent or surfaced while paused, delivered on resume().
  std::vector<Slot> held_;
  /// Manual-mode mailbox: slots in send order.
  std::vector<Slot> mailbox_;
  /// Shells whose DV and control buffers make_message() hands to the next
  /// sender (allocation-free steady state).
  std::vector<Message> spare_;
  /// Per (src,dst) channel: last scheduled delivery time (FIFO mode).
  std::map<std::pair<ProcessId, ProcessId>, SimTime> last_delivery_;
};

}  // namespace rdtgc::sim
