// An in-process system under test, assembled from the seams ckpt::Node is
// built from: a sim::Simulator, a sim::Network behind the
// transport::Transport seam, a ccp::CcpRecorder, and n ckpt::Nodes running
// FDAS + RDT-LGC over the configured storage medium.
//
// Traced rigs put a decorator on each seam — Transport (the delivery sink
// and Transport::send), CheckpointingProtocol and GarbageCollector — so the
// layers below the node are timed from outside the library.  Untraced rigs
// wire the plain objects, exactly as harness::System does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "ckpt/storage_backend.hpp"
#include "common.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct RigConfig {
  std::size_t process_count = 4;
  rdtgc::ckpt::StorageConfig storage;
  /// Manual network mode: sends park until deliver_now (event-log replay).
  bool manual = false;
  /// Run with ckpt::NoGc instead of RDT-LGC (the gate must then fail).
  bool no_gc = false;
  /// Decorate the seams; spans are recorded once tracing is switched on.
  bool traced = false;
  std::uint64_t seed = 1;
};

/// Where the seam decorators look for the active tracer (null = off).
struct TraceSlot {
  Tracer* tracer = nullptr;
};

class Rig {
 public:
  explicit Rig(const RigConfig& config);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  rdtgc::sim::Simulator& simulator() { return simulator_; }
  rdtgc::sim::Network& network() { return network_; }
  rdtgc::ckpt::Node& node(rdtgc::ProcessId p) {
    return *nodes_[static_cast<std::size_t>(p)];
  }
  const rdtgc::ckpt::Node& node(rdtgc::ProcessId p) const {
    return *nodes_[static_cast<std::size_t>(p)];
  }

  /// Route the decorators' spans to `tracer` (null switches them off).
  void set_tracer(Tracer* tracer) { slot_.tracer = tracer; }
  Tracer* tracer() const { return slot_.tracer; }

  /// Theorem 1 / Corollary 1 gate: every process stores exactly
  /// ccp::retained_corollary1, at most n at the end and at most n+1 at its
  /// peak.  Returns the first divergence, empty when the run is correct.
  std::string check_retained_sets() const;

  /// Largest StoreStats::peak_count over the processes.
  std::size_t stored_peak() const;
  std::uint64_t forced_checkpoints() const;
  std::uint64_t delivered() const;

 private:
  TraceSlot slot_;
  rdtgc::sim::Simulator simulator_;
  rdtgc::ccp::CcpRecorder recorder_;
  rdtgc::sim::Network network_;
  std::unique_ptr<rdtgc::transport::Transport> traced_transport_;
  std::vector<std::unique_ptr<rdtgc::ckpt::Node>> nodes_;
};

}  // namespace perfbench
