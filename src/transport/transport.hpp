// The message-transport seam between the checkpointing middleware and
// whatever actually moves bytes.
//
// ckpt::Node speaks to its peers exclusively through this interface: it
// registers a delivery sink at construction and hands fully-stamped
// sim::Message values to send().  Two implementations exist:
//
//  * sim::Network (sim/network.hpp) — the deterministic in-process
//    reference: a discrete-event delay/loss/FIFO model driven by one
//    sim::Simulator.  Every property test and every replay certification
//    runs on it; a (seed, config) pair reproduces an execution
//    bit-for-bit.
//  * transport::UdsTransport (transport/uds.hpp) — the real thing: the
//    worker-side endpoint of a multi-process fleet exchanging versioned,
//    DV-stamped wire frames (transport/wire.hpp) over Unix-domain
//    SOCK_SEQPACKET sockets, routed by the parent-side
//    transport::ProcFleet (transport/proc_fleet.hpp).  A recorded socket
//    run replays through sim::Network to bit-identical CCP analysis —
//    transport/replay.hpp holds that contract, tests/transport_test.cpp
//    enforces it.
//
// The interface is deliberately the narrow waist sim::Network already
// exposed to Node: sink registration, a send that assigns the message id
// when the caller brought none, and the recycled message shell that keeps
// the send path allocation-free.  Simulation-only controls (manual
// delivery, pause/resume, drop_in_flight) stay on sim::Network — recovery
// sessions are a simulation-harness concern, not a transport one.
//
// This header depends only on sim/message.hpp (which is plain data over
// causality), so both the simulator and the socket transport can
// implement it without an include cycle.
#pragma once

#include <functional>

#include "causality/types.hpp"
#include "sim/message.hpp"

namespace rdtgc::transport {

/// Delivery sink for a destination process (invoked with a fully-stamped
/// message; the callee must not retain the reference).
using DeliveryFn = std::function<void(const sim::Message&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Register the delivery callback for process `p`.  Must be called once
  /// per destination this endpoint delivers to (a worker-side endpoint
  /// serves exactly its own process) before any delivery; again after
  /// disconnect(p).
  virtual void connect(ProcessId p, DeliveryFn sink) = 0;

  /// Unregister process `p` (its process died): the sink slot frees for a
  /// reconnect and in-flight traffic touching p is dropped, matching the
  /// paper's rule that recovery lines exclude in-transit messages.
  virtual void disconnect(ProcessId p) = 0;

  /// Send `m`.  Implementations assign the id for bare messages (m.id == 0)
  /// and return the message id.  Must not block on a slow peer: the socket
  /// transport buffers on backpressure (see UdsTransport), the simulator
  /// schedules.
  virtual sim::MessageId send(sim::Message m) = 0;

  /// A blank message shell whose dependency-vector buffer is recycled from
  /// a delivered (or flushed) message: filling it with a same-size DV copy
  /// performs no heap allocation.  Senders on the hot path start from this
  /// instead of a default-constructed Message.
  virtual sim::Message make_message() = 0;
};

}  // namespace rdtgc::transport
