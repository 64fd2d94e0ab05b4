// Scripted checkpoint-and-communication patterns.
//
// The paper's figures are exact CCPs; reproducing them needs precise control
// over event interleaving, which a randomized network cannot give.  Scenario
// wraps a System whose network runs in manual mode: sends park in a mailbox
// and the script chooses the delivery moment.  Simulated time advances one
// tick per scripted action, so each action's checkpoints carry their own
// stored_at; the recorder linearizes events in script order regardless.
#pragma once

#include <map>
#include <string>

#include "harness/system.hpp"

namespace rdtgc::harness {

class Scenario {
 public:
  /// A scenario always uses manual delivery and no loss; `protocol` and `gc`
  /// choose the middleware under test, and `storage` the stable-storage
  /// backend every process persists its checkpoints through (default:
  /// in-memory; see ckpt/storage_backend.hpp for the mmap and log-structured
  /// choices — a scripted figure can then be replayed against real media).
  Scenario(std::size_t process_count, ckpt::ProtocolKind protocol,
           GcChoice gc, ckpt::StorageConfig storage = {});

  /// p sends a message, remembered under `label` (e.g. "m1").
  void send(ProcessId p, ProcessId dst, const std::string& label);

  /// Deliver a previously sent message now.
  void deliver(const std::string& label);

  /// p takes a basic checkpoint.
  void checkpoint(ProcessId p);

  /// p dies and warm-restarts from its media (System::restart_node): its
  /// parked sends/deliveries drop, the replacement attaches to the persisted
  /// lineage.  Requires the scenario to run on a persistent storage kind.
  /// No recovery session is implied — scripting one (or not) is the point of
  /// a restart scenario.
  void restart(ProcessId p);

  System& system() { return system_; }
  const System& system() const { return system_; }
  ccp::CcpRecorder& recorder() { return system_.recorder(); }
  ckpt::Node& node(ProcessId p) { return system_.node(p); }

  /// Message id previously registered under `label`.
  sim::MessageId message_id(const std::string& label) const;

 private:
  void tick();

  System system_;
  std::map<std::string, sim::MessageId> labels_;
};

}  // namespace rdtgc::harness
