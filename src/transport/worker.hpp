// Worker-process main loop: one ckpt::Node behind a UdsTransport.
//
// A worker is one process of the distributed system, spawned by
// transport::ProcFleet (the tools/rdtgc_proc.cpp binary is a thin argv
// wrapper around run_worker).  It connects to the parent's socket, builds
// its per-process stack — UdsTransport, and a Node over a persistent kSync
// store with a plain ccp::NodeObserver and a sim::Clock that stays at 0
// (no recorder, no simulator: RDT-LGC needs only what the Node holds) —
// and then serves frames, in the order each datagram carries them,
// answering each with exactly one frame:
//
//   * kCmd kSendApp     -> Node::send_app_message; its Data frame (through
//                          the transport's send buffer) is the reply
//   * kCmd kCheckpoint  -> Node::take_basic_checkpoint, Checkpoint frame
//                          (DV read back from the store)
//   * kData             -> deliver through the transport sink, then RecvAck
//                          carrying the post-merge DV and the
//                          forced-checkpoint flag
//   * kRecoveryStart    -> rollback or peer recovery, RolledBack digest
//   * kCmd kQuiesce     -> CmdDone (the parent's pre-SIGKILL drain point)
//   * kCmd kShutdown    -> State digest, flush, exit 0
//
// Handlers only queue frames; once the loop has handled every frame of a
// datagram it sends their replies in one datagram (wire v5), then waits for
// the next datagram in one blocking recv bounded by SO_RCVTIMEO
// (transport::TimedReceiver).
//
// Incarnation 0 opens its store kFresh; incarnation > 0 opens kAttach and
// resumes the lineage its media kept (ckpt::Node's attach path) — this is
// the real kill -9 recovery the simulator's warm restart models.  The
// parent's event log, replayed through the simulator (transport/replay.hpp),
// certifies the run.  A worker that hears nothing for idle_timeout_ms exits
// nonzero rather than orphan itself (CI hang guard).
#pragma once

#include <cstdint>
#include <string>

#include "causality/types.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::transport {

struct WorkerConfig {
  std::string socket_path;
  ProcessId self = -1;
  std::size_t process_count = 0;
  std::uint32_t incarnation = 0;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  ckpt::StorageBackendKind backend = ckpt::StorageBackendKind::kMmapFile;
  std::string storage_dir;
  std::uint64_t checkpoint_bytes = 1;
  int idle_timeout_ms = 30000;  ///< > 0
};

/// Exit codes of a worker process (the fleet reports them on failure).
enum WorkerExit : int {
  kWorkerOk = 0,
  kWorkerConnectFailed = 2,
  kWorkerIdleTimeout = 3,
  kWorkerParentGone = 4,
  kWorkerBadFrame = 5,
  kWorkerSendFailed = 6,
};

/// Run the worker loop to completion; returns a WorkerExit code.
int run_worker(const WorkerConfig& config);

}  // namespace rdtgc::transport
