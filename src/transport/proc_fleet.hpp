// Parent-side harness of a multi-process transport run.
//
// ProcFleet owns the real distributed system: it binds one Unix-domain
// SOCK_SEQPACKET listener, posix_spawns one rdtgc_proc worker per process,
// routes every Data frame between them (star topology — all traffic passes
// the parent), drives the workload through Cmd frames, and streams the
// merged event log to disk as frames arrive.  Because every worker socket
// is FIFO and a worker flushes the frames an event produced before it reads
// its next frame, the parent's frame-processing order is a valid
// linearization of the execution — the event log is replayable through the
// deterministic simulator (transport/replay.hpp) and the replay must agree
// bit-for-bit.
//
// The exchange with each worker is strict request/reply: every frame the
// parent queues to a worker owes exactly one frame back (Cmd SendApp ->
// Data, Cmd Checkpoint -> Checkpoint, Cmd Quiesce -> CmdDone, Cmd Shutdown
// -> State, Data -> RecvAck, RecoveryStart -> RolledBack), recorded in that
// worker's ring of owed replies when the frame is queued.  Frames queued to
// a worker leave only when the parent next waits on that worker — its
// command, a quiesce, a session frame, a drain, or the outstanding bound —
// and then all together, in one datagram (wire v5); the worker handles them
// in order and answers with one datagram holding one reply per frame.  So a
// command carries, ahead of itself, every Data frame routed to its worker
// since the parent last waited on it.  Deferral changes only when a frame
// leaves, never its place in the worker's FIFO, so each worker's input
// sequence, and with it the execution, is what it would be if every frame
// left at once.  The parent reads a worker's socket only while the worker
// owes it a reply for a frame it has been sent, with one blocking recv per
// datagram bounded by the wait's deadline, and checks each reply against
// the ring's head: the wrong kind, a RecvAck naming another message, or a
// reply beyond the frames sent fails the run naming the frames.  A command
// reads the commanded worker's replies up to its own (RecvAcks the worker
// owes come first: its socket is FIFO).  Other workers' RecvAcks are read
// when those workers are next commanded or by a wait, or once more than
// kMaxOutstanding deliveries are owed.  A deferred RecvAck only moves its
// deliver event later in the log: still after its send (routed before the
// receiver could see the message) and before the receiver's later frames
// (same FIFO socket), so the log stays a valid linearization.
//
// Everything the parent derives from the frames — each worker's DV rows,
// the delivery records, the orphan rule and the Lemma-1 plan — lives in a
// socket-free transport::FleetMirror (transport/fleet_mirror.hpp), which
// checks every frame a worker sends before the parent acts on it: DV widths
// against process_count, lineage indices against the mirror of the sender,
// and each DV's own entry against Equation 3.  A rogue or corrupted worker
// fails the run with an error() naming the frame kind — never an
// out-of-bounds access.
//
// Failure injection is REAL here.  kill_and_restart(p) performs a
// *quiesced* SIGKILL: the parent stops routing new traffic to p (dropping
// it, as the network model drops in-transit messages at a death), waits
// until every message p itself sent has been delivered or dropped and until
// p acknowledges a Quiesce command (so nothing p produced is still unlogged
// in a socket buffer), then SIGKILLs the OS process and re-spawns it with
// the next incarnation — the replacement re-attaches from its mmap/log
// media (ckpt::Node's fresh-process attach).  The quiesce point is exactly
// the state in which the simulator's disconnect semantics (drop everything
// in flight touching p) match the kernel's (SIGKILL discards p's socket
// buffers), which is what makes the replay certification exact.
// kill_unclean() skips the drain for liveness-only chaos: the re-attach
// must still succeed, but the run is not replay-certified (messages may
// die in kernel buffers unlogged).
//
// Every wait carries a deadline (config.step_timeout_ms): a hung or
// deadlocked worker fails the run with a descriptive error() instead of
// hanging CI, and the destructor SIGKILLs whatever is still alive.  A worker
// binary that cannot be executed fails start() (or the restart) at once,
// naming the binary, and an event-log write that fails fails the call that
// made it, naming the log.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "causality/types.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/storage_backend.hpp"
#include "transport/event_log.hpp"
#include "transport/fleet_mirror.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {

struct FleetConfig {
  std::size_t process_count = 4;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  ckpt::StorageBackendKind backend = ckpt::StorageBackendKind::kMmapFile;
  /// Scratch root: sockets, per-process storage dirs, and the event log
  /// live under it.
  std::string scratch_dir;
  /// Path of the rdtgc_proc worker binary (tests get it from the
  /// RDTGC_PROC_BIN environment variable CMake injects).
  std::string worker_binary;
  std::uint64_t checkpoint_bytes = 1;
  /// Deadline for any single wait (a command round-trip, a spawn, a drain).
  int step_timeout_ms = 30000;
  /// Worker-side idle suicide timeout (must exceed step_timeout_ms).
  int worker_idle_timeout_ms = 60000;
  /// Test hook for the restart-during-session path: the next recovery
  /// session withholds its RecoveryStart frame from this process, collects
  /// every other ack, then quiesce-kills it mid-session — the session must
  /// restart with the accumulated faulty set and converge.  Consumed by the
  /// first session that fires.  -1 = disabled.
  ProcessId recovery_withhold_then_kill = -1;
};

class ProcFleet {
 public:
  explicit ProcFleet(FleetConfig config);
  ~ProcFleet();
  ProcFleet(const ProcFleet&) = delete;
  ProcFleet& operator=(const ProcFleet&) = delete;

  /// Bind the listener, spawn every worker, collect their Hello frames.
  bool start();

  // ---- Workload drivers (each waits for command completion) ----

  /// Command src to send one application message to dst.  The Data frame is
  /// routed (or dropped, if dst is dead) before this returns, but its
  /// DELIVERY is asynchronous — the RecvAck arrives whenever dst processes
  /// it, possibly many commands later.
  bool send_app(ProcessId src, ProcessId dst, std::uint64_t bytes = 1);

  /// Command p to take a basic checkpoint.
  bool basic_checkpoint(ProcessId p);

  /// Quiesced SIGKILL + respawn with the next incarnation (see file
  /// comment).  The replacement's Hello is collected before returning.
  bool kill_and_restart(ProcessId p);

  /// Immediate SIGKILL, no drain: in-flight traffic may vanish unlogged, so
  /// runs using this are liveness tests, not replay-certified.  Pair with
  /// restart().
  bool kill_unclean(ProcessId p);

  /// Respawn a worker downed by kill_unclean.
  bool restart(ProcessId p);

  /// Drain remaining deliveries, collect every worker's State digest, and
  /// reap all workers cleanly.
  bool shutdown();

  /// First failure description; empty while everything is healthy.
  const std::string& error() const { return error_; }

  const std::string& log_path() const { return log_path_; }
  /// Storage directory of process p (its mmap/log media — readable after
  /// shutdown for recovery_line_from_storage certification).
  std::string storage_dir(ProcessId p) const;
  /// Messages the parent dropped because their destination was dead.
  std::uint64_t dropped() const { return dropped_; }
  std::uint32_t incarnation(ProcessId p) const;
  /// OS process id of p's worker (-1 while none is spawned).
  pid_t pid(ProcessId p) const;
  /// Recovery sessions completed (kill_and_restart found orphaned
  /// deliveries and drove the paper's session over the wire).
  std::uint64_t recovery_sessions() const { return recovery_sessions_; }
  /// Session restarts (a second kill landed mid-session).
  std::uint64_t recovery_restarts() const { return recovery_restarts_; }
  /// Delivered messages whose send died with a killed worker's volatile
  /// interval — the orphan condition each session exists to repair.
  std::uint64_t orphans_repaired() const { return orphans_repaired_; }

  /// Bound on deliveries routed but not yet acknowledged in the log: past
  /// it, a command does not return until deferred RecvAcks bring the count
  /// back under it.
  static constexpr std::size_t kMaxOutstanding = 64;
  /// Messages routed whose RecvAck (or drop) the parent has not yet logged.
  std::size_t outstanding() const { return owed_acks_; }
  /// Delivery records kept for the orphan scan.  A record is dropped once
  /// its sender holds a checkpoint at or past its send interval, so the
  /// count stays bounded in a steady run.
  std::size_t delivered_records() const {
    return mirror_.delivered_records();
  }

 private:
  using Clock = TimedReceiver::Clock;

  /// Identity of an application message.
  struct MsgKey {
    ProcessId src;
    std::uint32_t incarnation;
    std::uint64_t seq;
    bool operator==(const MsgKey&) const = default;
  };

  /// A reply a worker owes the parent, and what the reply must match.
  struct OwedReply {
    FrameKind kind = FrameKind::kCmdDone;  ///< the reply's frame kind
    CmdOp op = CmdOp::kSendApp;            ///< Cmd: its op
    std::uint64_t cmd_seq = 0;             ///< Cmd: its seq
    MsgKey msg{};                          ///< Data: the message forwarded
    IntervalIndex send_interval = 0;       ///< Data: its send interval
    std::uint64_t routed = 0;              ///< Data: fleet-wide routing order
    std::uint64_t session = 0;             ///< RecoveryStart: its session
    std::uint32_t attempt = 0;             ///< RecoveryStart: its attempt
  };

  /// FIFO of the replies one worker owes, in the order its socket returns
  /// them.  Its capacity is fixed when the fleet is built (see the
  /// constructor): a worker owes at most one command and the deliveries the
  /// outstanding bound allows, or one session frame.
  class OwedRing {
   public:
    explicit OwedRing(std::size_t capacity);
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    /// i = 0 is the oldest (the next reply).
    const OwedReply& operator[](std::size_t i) const {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    void push(const OwedReply& owed);
    void pop();
    void clear() { head_ = count_ = 0; }

   private:
    std::vector<OwedReply> slots_;  ///< power-of-two ring
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Worker {
    pid_t pid = -1;
    Fd fd;
    /// Blocking reads of fd, the Hello's included, armed with
    /// step_timeout_ms.
    std::optional<TimedReceiver> rx;
    std::uint32_t incarnation = 0;
    bool alive = false;
    bool draining = false;  ///< kill decided: route nothing more to it
    std::uint64_t next_cmd_seq = 0;
  };

  /// What reading one owed reply came to.
  enum class Read : std::uint8_t { kReply, kTimeout, kFailed };

  static std::string describe(const OwedReply& owed);
  /// True iff `f` is the reply `owed` names.
  static bool answers(const DecodedFrame& f, const OwedReply& owed);

  bool fail(const std::string& what);
  /// The reused log record, set to `kind`.  Its vectors keep their capacity
  /// from event to event, and a kind's line reads only that kind's fields,
  /// so what an earlier kind left in the others is never written.
  Event& event(EventKind kind);
  /// The deadline of a wait that starts now.
  Clock::time_point step_deadline() const;
  bool spawn(ProcessId p, std::uint32_t incarnation);
  bool await_hello(ProcessId p);
  /// Queue `frame` to p, owing `reply`.
  void queue(ProcessId p, std::span<const std::uint8_t> frame,
             const OwedReply& reply);
  /// Send p's queued frames, as one datagram up to kMaxDatagramBytes.  A
  /// full socket waits in poll(2) for room by `deadline`, reading p's owed
  /// replies meanwhile so neither side wedges.  A refused send fails the
  /// run: as p's death, naming the reply p owed, or as EMSGSIZE when the
  /// datagram outgrew the socket's send buffer.
  bool flush(ProcessId p, Clock::time_point deadline);
  bool flush_all(Clock::time_point deadline);
  /// fail() for p's death, naming the reply p owed first.
  bool died(ProcessId p);
  /// Close p's socket; its unsent frames and owed replies die too.
  void close_socket(ProcessId p);
  /// Read p's next frame by `deadline`, check it against the reply p owes,
  /// and handle it.  Only frames p has been sent are owed a reply yet: a
  /// frame that answers none, or that follows the last reply owed in the
  /// same datagram, fails the run by name.
  Read read_reply(ProcessId p, Clock::time_point deadline);
  /// Send p its queued frames, then read p's next `count` owed replies;
  /// fail() at the deadline, naming the reply still owed.
  bool read_replies(ProcessId p, std::size_t count,
                    Clock::time_point deadline);
  /// Read every reply every worker owes.
  bool read_all_owed(Clock::time_point deadline);
  /// `raw` is the datagram `frame` was decoded from (Data is forwarded
  /// verbatim); `owed` is the request it answers.
  bool handle_frame(ProcessId p, std::span<const std::uint8_t> raw,
                    const DecodedFrame& frame, const OwedReply& owed);
  /// Log the send, then forward `raw` to its destination, or log a drop.
  void route_data(std::span<const std::uint8_t> raw, const DecodedFrame& frame);
  /// Queue a command to p, owing its reply.
  bool send_cmd(ProcessId p, CmdOp op, ProcessId target, std::uint64_t param);
  /// Send a command, read p's replies up to its own, then hold outstanding
  /// deliveries to the bound.
  bool run_cmd(ProcessId p, CmdOp op, ProcessId target, std::uint64_t param);
  /// Log a drop for every message outstanding to `dead` and forget what it
  /// owes; returns how many messages dropped.
  std::uint64_t drop_outstanding_to(ProcessId dead);
  /// SIGKILL and reap p's process (spawned or live), then close_socket.
  void kill_process(ProcessId p);
  /// Index in q's ring of the newest RecvAck q owes for a message of p's,
  /// or none.
  std::optional<std::size_t> last_ack_owed_for(ProcessId q,
                                               ProcessId p) const;

  /// Quiesced SIGKILL + respawn + Hello, no session logic (the body the old
  /// kill_and_restart had; kill_and_restart layers orphan handling on top).
  bool quiesced_kill_respawn(ProcessId p);
  /// Run the paper's recovery session over the wire: drain, plan, log,
  /// broadcast, then one deadline-bounded read of every RolledBack owed,
  /// restarting with an accumulated faulty set when a kill lands
  /// mid-session.
  bool run_recovery_session(std::vector<ProcessId> faulty);

  FleetConfig config_;
  std::string socket_path_;
  std::string log_path_;
  Fd listener_;
  std::vector<Worker> workers_;
  /// Per-worker parent->worker frame queues.
  std::vector<FrameQueue> out_;
  /// Per-worker replies owed, in socket order.
  std::vector<OwedRing> owed_;
  /// RecvAcks owed across the fleet: messages routed, not yet delivered.
  std::size_t owed_acks_ = 0;
  std::uint64_t next_routed_ = 0;
  /// DV rows, delivery records, orphan rule and plan.
  FleetMirror mirror_;
  std::unique_ptr<EventLogWriter> log_;
  Event event_;
  WireBuffer scratch_;
  DecodedFrame frame_;
  std::uint64_t dropped_ = 0;
  std::uint64_t recovery_sessions_ = 0;
  std::uint64_t recovery_restarts_ = 0;
  std::uint64_t orphans_repaired_ = 0;
  std::uint64_t next_session_ = 0;
  std::string error_;
  bool started_ = false;
};

}  // namespace rdtgc::transport
