// The four workloads and the fleet's out-of-process correctness gate.  See
// ../README.md for why each workload exists and what every metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "transport/event_log.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured loop.  A traced simulated run splits it into an
  /// untraced half (the overhead baseline) and a traced half; a traced fleet
  /// run times its layers after the loop, so it measures one phase.
  double seconds = 10;
  bool trace = false;
  /// Scratch root for media, sockets and event logs (inside the checkout).
  std::string scratch;
  /// "none" runs the simulated system with ckpt::NoGc, which the gate must
  /// reject (the smoke test's proof that the gate bites).
  std::string gc = "rdt-lgc";
  /// Smoke-test sizes: episodes a twentieth of the measured size.
  bool small = false;
};

/// sim-gossip64 / sim-log-ckpt: in-process episodes, gated in process.
void run_sim(const RunOptions& options, Results& results);

/// fleet-steady / fleet-chaos: ProcFleet episodes; every episode's event log
/// and media are left under options.scratch for gate_fleet.
void run_fleet(const RunOptions& options, Results& results);

/// Replays every fleet episode under options.scratch and checks the Lemma-1
/// line of the workers' media against the replay's; reports the stored peak
/// from the reopened media.  Runs in its own process so the replay's memory
/// never reaches the measured process's peak RSS.
void gate_fleet(const RunOptions& options, Results& results);

// ---- Layer side harnesses (layers.cpp) ------------------------------------

/// Cost of one call into each transport layer, in nanoseconds.
struct TransportCosts {
  double recv_frame_ns = 0, send_frame_ns = 0;
  double encode_data_ns = 0, decode_data_ns = 0;
  double encode_recv_ack_ns = 0, decode_recv_ack_ns = 0;
  double append_ns = 0;
};

/// Times the wire codec, the SEQPACKET socket hop and the event-log writer
/// on the run's own frames: kSend events become Data frames, kDeliver
/// events RecvAck frames, and the events are appended to a scratch log.
TransportCosts measure_transport_layers(
    const std::vector<rdtgc::transport::Event>& events,
    const std::string& scratch, Results& results);

/// Re-executes a fleet episode's sends, deliveries and basic checkpoints
/// (up to its first kill) through a traced in-process rig, so the node,
/// protocol and collector layers the workers run are timed on the fleet's
/// own event order.  Returns the messages delivered.
std::uint64_t replay_node_layers(
    const std::vector<rdtgc::transport::Event>& events,
    std::size_t process_count, const std::string& scratch, Tracer& tracer,
    std::uint64_t& stored, std::uint64_t& collected, std::uint64_t& loop_ns);

/// Per-layer figures of the node side from a traced phase.
void report_node_layers(const Tracer& tracer, std::uint64_t messages,
                        std::uint64_t phase_ns, std::uint64_t stored,
                        std::uint64_t collected, Results& results);

}  // namespace perfbench
