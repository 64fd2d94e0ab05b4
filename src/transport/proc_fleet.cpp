#include "transport/proc_fleet.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/mapped_file.hpp"  // util::IoError

namespace rdtgc::transport {

namespace {

/// Milliseconds from now to `deadline`, rounded up; 0 once it has passed.
int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

const char* kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "Hello";
    case FrameKind::kData: return "Data";
    case FrameKind::kRecvAck: return "RecvAck";
    case FrameKind::kCheckpoint: return "Checkpoint";
    case FrameKind::kCmd: return "Cmd";
    case FrameKind::kCmdDone: return "CmdDone";
    case FrameKind::kState: return "State";
    case FrameKind::kRecoveryStart: return "RecoveryStart";
    case FrameKind::kRolledBack: return "RolledBack";
  }
  return "unknown";
}

const char* op_name(CmdOp op) {
  switch (op) {
    case CmdOp::kSendApp: return "SendApp";
    case CmdOp::kCheckpoint: return "Checkpoint";
    case CmdOp::kQuiesce: return "Quiesce";
    case CmdOp::kShutdown: return "Shutdown";
  }
  return "unknown";
}

/// The one frame a worker sends back for a command.
FrameKind reply_kind(CmdOp op) {
  switch (op) {
    case CmdOp::kSendApp: return FrameKind::kData;
    case CmdOp::kCheckpoint: return FrameKind::kCheckpoint;
    case CmdOp::kQuiesce: return FrameKind::kCmdDone;
    case CmdOp::kShutdown: return FrameKind::kState;
  }
  RDTGC_ASSERT(false);  // every CmdOp the parent sends is listed
  return FrameKind::kCmdDone;
}

std::string cmd_name(CmdOp op, std::uint64_t seq) {
  return std::string("Cmd ") + op_name(op) + " #" + std::to_string(seq);
}

std::string message_name(ProcessId src, std::uint32_t incarnation,
                         std::uint64_t seq) {
  return "message (p" + std::to_string(src) + ", inc " +
         std::to_string(incarnation) + ", seq " + std::to_string(seq) + ")";
}

std::string session_name(std::uint64_t session, std::uint32_t attempt) {
  return "session " + std::to_string(session) + " attempt " +
         std::to_string(attempt);
}

/// A received frame, named by the request identity it carries.
std::string describe(const DecodedFrame& f) {
  switch (f.header.kind()) {
    case FrameKind::kRecvAck:
      return "RecvAck of " + message_name(f.recv_ack.msg_src,
                                          f.recv_ack.msg_incarnation,
                                          f.recv_ack.msg_seq);
    case FrameKind::kCmdDone:
      return "CmdDone answering " +
             cmd_name(static_cast<CmdOp>(f.cmd_done.op), f.cmd_done.cmd_seq);
    case FrameKind::kRolledBack:
      return "RolledBack of " +
             session_name(f.rolled_back.session, f.rolled_back.attempt);
    default:
      return kind_name(f.header.kind());
  }
}

}  // namespace

ProcFleet::OwedRing::OwedRing(std::size_t capacity)
    : slots_(std::bit_ceil(capacity)) {}

void ProcFleet::OwedRing::push(const OwedReply& owed) {
  RDTGC_ASSERT(count_ < slots_.size());  // the capacity bound holds
  slots_[(head_ + count_) & (slots_.size() - 1)] = owed;
  ++count_;
}

void ProcFleet::OwedRing::pop() {
  RDTGC_ASSERT(count_ > 0);
  head_ = (head_ + 1) & (slots_.size() - 1);
  --count_;
}

std::string ProcFleet::describe(const OwedReply& owed) {
  switch (owed.kind) {
    case FrameKind::kRecvAck:
      return "RecvAck of " +
             message_name(owed.msg.src, owed.msg.incarnation, owed.msg.seq);
    case FrameKind::kRolledBack:
      return "RolledBack of " + session_name(owed.session, owed.attempt);
    default:
      return std::string(kind_name(owed.kind)) + " answering " +
             cmd_name(owed.op, owed.cmd_seq);
  }
}

bool ProcFleet::answers(const DecodedFrame& f, const OwedReply& owed) {
  if (f.header.kind() != owed.kind) return false;
  switch (owed.kind) {
    case FrameKind::kRecvAck:
      return MsgKey{f.recv_ack.msg_src, f.recv_ack.msg_incarnation,
                    f.recv_ack.msg_seq} == owed.msg;
    case FrameKind::kCmdDone:
      return f.cmd_done.op == static_cast<std::uint8_t>(owed.op) &&
             f.cmd_done.cmd_seq == owed.cmd_seq;
    case FrameKind::kRolledBack:
      return f.rolled_back.session == owed.session &&
             f.rolled_back.attempt == owed.attempt;
    default:
      return true;  // Data, Checkpoint and State carry no request identity
  }
}

ProcFleet::ProcFleet(FleetConfig config) : config_(std::move(config)) {
  RDTGC_EXPECTS(config_.process_count >= 2);
  RDTGC_EXPECTS(!config_.scratch_dir.empty() &&
                !config_.worker_binary.empty());
  RDTGC_EXPECTS(config_.backend != ckpt::StorageBackendKind::kInMemory);
  workers_.resize(config_.process_count);
  out_.resize(config_.process_count);
  // One command, the deliveries the bound allows plus the one a call
  // routes before enforcing it, and the session frames of two attempts'
  // re-sends (a session restarts at most once, see run_recovery_session).
  owed_.assign(config_.process_count,
               OwedRing(kMaxOutstanding + 2 +
                        2 * static_cast<std::size_t>(
                                std::max(1, config_.recovery_retries))));
  mirror_.resize(config_.process_count);
  socket_path_ = config_.scratch_dir + "/fleet.sock";
  log_path_ = config_.scratch_dir + "/events.log";
}

ProcFleet::~ProcFleet() {
  // Spawned workers whose Hello never arrived (a failed start) too.
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    if (workers_[p].pid > 0) kill_process(static_cast<ProcessId>(p));
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

std::string ProcFleet::storage_dir(ProcessId p) const {
  return config_.scratch_dir + "/p" + std::to_string(p);
}

std::uint32_t ProcFleet::incarnation(ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  return workers_[static_cast<std::size_t>(p)].incarnation;
}

pid_t ProcFleet::pid(ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  return workers_[static_cast<std::size_t>(p)].pid;
}

Event& ProcFleet::event(EventKind kind) {
  event_.kind = kind;
  return event_;
}

ProcFleet::Clock::time_point ProcFleet::step_deadline() const {
  return Clock::now() + std::chrono::milliseconds(config_.step_timeout_ms);
}

bool ProcFleet::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool ProcFleet::start() try {
  RDTGC_EXPECTS(!started_);
  started_ = true;
  for (std::size_t p = 0; p < config_.process_count; ++p)
    std::filesystem::create_directories(
        storage_dir(static_cast<ProcessId>(p)));
  log_ = std::make_unique<EventLogWriter>(log_path_);
  listener_ = uds_listen(socket_path_,
                         static_cast<int>(config_.process_count) + 4);
  if (!listener_.valid()) return fail("bind/listen failed: " + socket_path_);
  for (std::size_t p = 0; p < config_.process_count; ++p) {
    if (!spawn(static_cast<ProcessId>(p), 0)) return false;
  }
  // Workers race to connect; each Hello identifies its sender.
  for (std::size_t i = 0; i < config_.process_count; ++i) {
    if (!await_hello(-1)) return false;
  }
  return true;
} catch (const util::IoError& e) {
  return fail(e.what());
}

bool ProcFleet::spawn(ProcessId p, std::uint32_t incarnation) {
  const std::vector<std::string> args = {
      config_.worker_binary,
      socket_path_,
      std::to_string(p),
      std::to_string(config_.process_count),
      std::to_string(incarnation),
      std::to_string(static_cast<int>(config_.protocol)),
      std::to_string(static_cast<int>(config_.backend)),
      storage_dir(p),
      std::to_string(config_.checkpoint_bytes),
      std::to_string(config_.worker_idle_timeout_ms),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  // posix_spawn neither copies the parent's page tables nor write-protects
  // its pages, and an exec failure comes back here as an errno (the failed
  // child is reaped inside the call) instead of as a Hello that never comes.
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ);
  if (rc != 0) {
    return fail("cannot spawn worker '" + config_.worker_binary +
                "': " + std::strerror(rc));
  }
  Worker& w = workers_[static_cast<std::size_t>(p)];
  w.pid = pid;
  w.incarnation = incarnation;
  w.alive = false;  // until its Hello arrives
  w.draining = false;
  return true;
}

bool ProcFleet::await_hello(ProcessId expected) {
  Fd fd = uds_accept(listener_.get(), config_.step_timeout_ms);
  if (!fd.valid()) return fail("no worker connected within the deadline");
  const RecvStatus status =
      recv_frame(fd.get(), hello_, config_.step_timeout_ms);
  if (status != RecvStatus::kFrame)
    return fail("worker connected but sent no Hello");
  const WireError err = decode_frame(hello_, frame_);
  if (err != WireError::kOk)
    return fail(std::string("bad Hello frame: ") + wire_error_name(err));
  if (frame_.header.kind() != FrameKind::kHello)
    return fail("first worker frame was not Hello");
  const ProcessId p = frame_.header.src;
  if (p < 0 || static_cast<std::size_t>(p) >= workers_.size())
    return fail("Hello from unknown process id");
  if (expected >= 0 && p != expected)
    return fail("Hello from the wrong process after a restart");
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (w.alive) return fail("duplicate Hello");
  if (frame_.header.incarnation != w.incarnation)
    return fail("Hello carries the wrong incarnation");
  const HelloBody& hello = frame_.hello;
  if (!check_width(p, "Hello", hello.dv)) return false;
  // A fresh worker has stored s^0 only.  A re-attached one resumes at a
  // checkpoint the log already holds — or, after an unclean kill, at most
  // unlogged_checkpoints past the last one the log saw.
  DvMirror& m = mirror_[static_cast<std::size_t>(p)];
  const std::int64_t max_last =
      w.incarnation == 0
          ? 0
          : m.last() + static_cast<std::int64_t>(w.unlogged_checkpoints);
  if (hello.last_index < 0 || hello.last_index > max_last) {
    return fail("Hello frame from p" + std::to_string(p) +
                " claims last checkpoint index " +
                std::to_string(hello.last_index) + ", at most " +
                std::to_string(max_last) + " is possible");
  }
  w.fd = std::move(fd);
  w.rx.emplace(w.fd.get(), config_.step_timeout_ms);
  w.alive = true;
  w.draining = false;
  w.unlogged_checkpoints = 0;

  // Mirror the recovered lineage: checkpoint-DV rows above the recovered
  // position die with the volatile interval (exactly the recorder's
  // truncation on restart).  Missing rows are padded from the Hello DV —
  // only possible after an unclean kill persisted a checkpoint whose frame
  // never surfaced, and such runs are liveness-only anyway.
  const auto rows = static_cast<std::size_t>(hello.last_index) + 1;
  while (m.ckpt_dvs.size() < rows) {
    std::vector<IntervalIndex> row = hello.dv;
    row[static_cast<std::size_t>(p)] =
        static_cast<IntervalIndex>(m.ckpt_dvs.size());
    m.ckpt_dvs.push_back(std::move(row));
  }
  m.ckpt_dvs.resize(rows);
  m.current = hello.dv;

  Event& e = event(EventKind::kAttach);
  e.p = p;
  e.incarnation = w.incarnation;
  e.index = hello.last_index;
  e.dv = hello.dv;
  log_->append(e);
  return true;
}

void ProcFleet::queue(ProcessId p, std::span<const std::uint8_t> frame,
                      const OwedReply& reply) {
  out_[static_cast<std::size_t>(p)].push(frame);
  owed_[static_cast<std::size_t>(p)].push(reply);
  if (reply.kind == FrameKind::kRecvAck) ++owed_acks_;
}

bool ProcFleet::flush(ProcessId p, Clock::time_point deadline) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  FrameQueue& out = out_[static_cast<std::size_t>(p)];
  while (!out.empty() && w.fd.valid()) {
    const int rc = out.flush(w.fd.get());
    if (rc > 0) return true;
    if (rc < 0) {
      return fail("worker p" + std::to_string(p) +
                  " died unexpectedly: its socket refused a frame");
    }
    // The socket is full.  p may itself be blocked sending a reply, so
    // read what it owes while waiting for room.
    pollfd pfd{w.fd.get(), POLLIN | POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, ms_until(deadline));
    if (ready < 0 && errno != EINTR) return fail("poll failed");
    if (ready == 0) {
      return fail("deadline expired after " +
                  std::to_string(config_.step_timeout_ms) + " ms: p" +
                  std::to_string(p) + "'s socket stayed full");
    }
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        read_reply(p, deadline) == Read::kFailed) {
      return false;
    }
  }
  return true;
}

bool ProcFleet::flush_all(Clock::time_point deadline) {
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    if (!flush(static_cast<ProcessId>(p), deadline)) return false;
  }
  return true;
}

void ProcFleet::close_socket(ProcessId p) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  w.rx.reset();
  w.fd.reset();
  out_[static_cast<std::size_t>(p)].clear();
  OwedRing& owed = owed_[static_cast<std::size_t>(p)];
  for (std::size_t i = 0; i < owed.size(); ++i)
    if (owed[i].kind == FrameKind::kRecvAck) --owed_acks_;
  owed.clear();
}

ProcFleet::Read ProcFleet::read_reply(ProcessId p,
                                      Clock::time_point deadline) {
  if (!error_.empty()) return Read::kFailed;  // a failed run stays failed
  Worker& w = workers_[static_cast<std::size_t>(p)];
  OwedRing& owed = owed_[static_cast<std::size_t>(p)];
  const RecvStatus status = w.rx->recv(deadline);
  if (status == RecvStatus::kTimeout) return Read::kTimeout;
  if (status != RecvStatus::kFrame) {
    fail("worker p" + std::to_string(p) + " died unexpectedly" +
         (owed.empty() ? std::string() : ", owing " + describe(owed[0])));
    return Read::kFailed;
  }
  const std::span<const std::uint8_t> raw = w.rx->frame();
  const WireError err = decode_frame(raw, frame_);
  if (err != WireError::kOk) {
    fail(std::string("bad frame from worker: ") + wire_error_name(err));
    return Read::kFailed;
  }
  if (frame_.header.src != p) {
    fail("frame src does not match its socket");
    return Read::kFailed;
  }
  if (owed.empty()) {
    fail("p" + std::to_string(p) + " sent " + transport::describe(frame_) +
         " while it owed no reply");
    return Read::kFailed;
  }
  const OwedReply reply = owed[0];
  if (!answers(frame_, reply)) {
    fail("p" + std::to_string(p) + " replied with " +
         transport::describe(frame_) + " where it owed " + describe(reply));
    return Read::kFailed;
  }
  owed.pop();
  if (reply.kind == FrameKind::kRecvAck) --owed_acks_;
  return handle_frame(p, raw, frame_, reply) ? Read::kReply : Read::kFailed;
}

bool ProcFleet::read_replies(ProcessId p, std::size_t count,
                             Clock::time_point deadline) {
  RDTGC_ASSERT(count <= owed_[static_cast<std::size_t>(p)].size());
  for (; count > 0; --count) {
    const Read read = read_reply(p, deadline);
    if (read == Read::kFailed) return false;
    if (read == Read::kTimeout) {
      return fail("deadline expired after " +
                  std::to_string(config_.step_timeout_ms) + " ms: p" +
                  std::to_string(p) + " still owes " +
                  describe(owed_[static_cast<std::size_t>(p)][0]));
    }
  }
  return true;
}

bool ProcFleet::read_all_owed(Clock::time_point deadline) {
  if (!flush_all(deadline)) return false;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    if (!read_replies(static_cast<ProcessId>(p), owed_[p].size(), deadline))
      return false;
  }
  return true;
}

bool ProcFleet::check_width(ProcessId p, const char* kind,
                            const std::vector<IntervalIndex>& dv) {
  if (dv.size() == config_.process_count) return true;
  return fail(std::string(kind) + " frame from p" + std::to_string(p) +
              " carries a DV of width " + std::to_string(dv.size()) +
              ", expected " + std::to_string(config_.process_count));
}

bool ProcFleet::handle_frame(ProcessId p, std::span<const std::uint8_t> raw,
                             const DecodedFrame& frame,
                             const OwedReply& owed) {
  const auto in_range = [&](ProcessId q) {
    return q >= 0 && static_cast<std::size_t>(q) < config_.process_count;
  };
  DvMirror& m = mirror_[static_cast<std::size_t>(p)];
  switch (frame.header.kind()) {
    case FrameKind::kData:
      if (!in_range(frame.header.dst) || frame.header.dst == p)
        return fail("Data frame from p" + std::to_string(p) +
                    " addressed to p" + std::to_string(frame.header.dst));
      if (!check_width(p, "Data", frame.data.dv)) return false;
      route_data(raw, frame);
      return true;
    case FrameKind::kRecvAck: {
      const RecvAckBody& ack = frame.recv_ack;
      if (!check_width(p, "RecvAck", ack.dv_after)) return false;
      // The receive stays in the current interval — or, forced, follows
      // the checkpoint that closes it, in the next one.
      const auto lineage = static_cast<std::int64_t>(m.ckpt_dvs.size()) +
                           (ack.forced != 0 ? 1 : 0);
      if (ack.recv_interval != lineage)
        return fail("RecvAck frame from p" + std::to_string(p) +
                    " puts its receive in interval " +
                    std::to_string(ack.recv_interval) + ", its lineage in " +
                    std::to_string(lineage));
      Event& e = event(EventKind::kDeliver);
      e.dst = p;
      e.incarnation = frame.header.incarnation;
      e.src = ack.msg_src;
      e.src_incarnation = ack.msg_incarnation;
      e.seq = ack.msg_seq;
      e.interval = ack.recv_interval;
      e.forced = ack.forced;
      e.dv = ack.dv_after;
      log_->append(e);
      delivered_.push_back(DeliveredRec{e.src, e.src_incarnation, e.seq,
                                        owed.send_interval, p, e.interval});
      if (ack.forced != 0) {
        // The forced checkpoint stored the receiver's pre-event DV (the
        // mirror's current) at the pre-event interval.
        m.ckpt_dvs.push_back(m.current);
        prune_delivered_below_checkpoint(p);
      }
      m.current = ack.dv_after;
      return true;
    }
    case FrameKind::kCheckpoint: {
      const CheckpointBody& ckpt = frame.checkpoint;
      if (!check_width(p, "Checkpoint", ckpt.dv)) return false;
      if (ckpt.index < 0 ||
          static_cast<std::size_t>(ckpt.index) != m.ckpt_dvs.size())
        return fail("Checkpoint frame from p" + std::to_string(p) +
                    " has index " + std::to_string(ckpt.index) +
                    ", its lineage " + std::to_string(m.ckpt_dvs.size()));
      Event& e = event(EventKind::kCheckpoint);
      e.p = p;
      e.incarnation = frame.header.incarnation;
      e.index = ckpt.index;
      e.ckpt_kind = ckpt.kind;
      e.dv = ckpt.dv;
      log_->append(e);
      m.ckpt_dvs.push_back(ckpt.dv);
      m.current = ckpt.dv;
      m.current[static_cast<std::size_t>(p)] += 1;
      prune_delivered_below_checkpoint(p);
      return true;
    }
    case FrameKind::kRolledBack: {
      const RolledBackBody& rb = frame.rolled_back;
      if (!check_width(p, "RolledBack", rb.dv)) return false;
      // A session restores a checkpoint the mirror holds (or keeps the
      // last one): it never moves the lineage forward.
      if (rb.last_index < 0 || rb.last_index > m.last())
        return fail("RolledBack frame from p" + std::to_string(p) +
                    " restores index " + std::to_string(rb.last_index) +
                    ", its lineage ends at " + std::to_string(m.last()));
      Worker& w = workers_[static_cast<std::size_t>(p)];
      w.acked_session = rb.session;
      w.acked_attempt = rb.attempt;
      m.ckpt_dvs.resize(static_cast<std::size_t>(rb.last_index) + 1);
      m.current = rb.dv;
      Event& e = event(EventKind::kRolledBack);
      e.p = p;
      e.incarnation = frame.header.incarnation;
      e.session = rb.session;
      e.attempt = rb.attempt;
      e.forced = rb.rolled;
      e.index = rb.last_index;
      e.dv = rb.dv;
      e.stored = rb.stored;
      log_->append(e);
      return true;
    }
    case FrameKind::kCmdDone:
      return true;  // the Quiesce ack: everything p sent before it is read
    case FrameKind::kState: {
      if (!check_width(p, "State", frame.state.dv)) return false;
      Event& e = event(EventKind::kState);
      e.p = p;
      e.incarnation = frame.header.incarnation;
      e.index = frame.state.last_index;
      e.basic = frame.state.basic;
      e.forced_count = frame.state.forced;
      e.sent = frame.state.sent;
      e.received = frame.state.received;
      e.rollbacks = frame.state.rollbacks;
      e.dv = frame.state.dv;
      e.stored = frame.state.stored;
      log_->append(e);
      return true;
    }
    default:
      return fail("unexpected frame kind from worker");
  }
}

void ProcFleet::prune_delivered_below_checkpoint(ProcessId p) {
  const CheckpointIndex last = mirror_[static_cast<std::size_t>(p)].last();
  std::erase_if(delivered_, [&](const DeliveredRec& r) {
    return r.src == p && r.send_interval <= last;
  });
}

void ProcFleet::route_data(std::span<const std::uint8_t> raw,
                           const DecodedFrame& frame) {
  // The send happened regardless of the destination's fate: it is part of
  // the sender's protocol state and the replay re-executes it.
  Event& e = event(EventKind::kSend);
  e.src = frame.header.src;
  e.src_incarnation = frame.header.incarnation;
  e.seq = frame.header.seq;
  e.dst = frame.header.dst;
  e.interval = frame.data.send_interval;
  e.bytes = frame.data.bytes;
  e.dv = frame.data.dv;
  log_->append(e);

  const ProcessId dst = frame.header.dst;
  const Worker& w = workers_[static_cast<std::size_t>(dst)];
  if (!w.alive || w.draining) {
    // In transit to a dead process: lost, exactly like the simulator's
    // disconnect drop (the replay purges it the same way).  The drop line
    // names the send's own src, sinc, seq and dst.
    e.kind = EventKind::kDrop;
    log_->append(e);
    ++dropped_;
    return;
  }
  // The destination gets the sender's exact bytes.  The header already
  // carries the destination and the (src, incarnation, seq) identity the
  // parent would stamp, so a re-encode could only reproduce them.
  OwedReply ack;
  ack.kind = FrameKind::kRecvAck;
  ack.msg = MsgKey{e.src, e.src_incarnation, e.seq};
  ack.send_interval = frame.data.send_interval;
  ack.routed = ++next_routed_;
  queue(dst, raw, ack);
}

bool ProcFleet::send_cmd(ProcessId p, CmdOp op, ProcessId target,
                         std::uint64_t param) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (!w.alive) return fail("command to a dead worker");
  CmdBody body;
  body.op = static_cast<std::uint8_t>(op);
  body.target = target;
  body.param = param;
  FrameMeta meta;
  meta.src = -1;
  meta.dst = p;
  meta.incarnation = w.incarnation;
  meta.seq = ++w.next_cmd_seq;
  encode_cmd(scratch_, meta, body);
  OwedReply reply;
  reply.kind = reply_kind(op);
  reply.op = op;
  reply.cmd_seq = meta.seq;
  queue(p, scratch_, reply);
  return true;
}

bool ProcFleet::run_cmd(ProcessId p, CmdOp op, ProcessId target,
                        std::uint64_t param) {
  const Clock::time_point deadline = step_deadline();
  if (!send_cmd(p, op, target, param) || !flush_all(deadline)) return false;
  // p's socket is FIFO: the RecvAcks p owes come first, the command's own
  // reply last.
  if (!read_replies(p, owed_[static_cast<std::size_t>(p)].size(), deadline))
    return false;
  // Deferred RecvAcks keep their deliveries outstanding; past the bound,
  // read the receiver of the oldest (waiting only if it has not answered).
  while (owed_acks_ > kMaxOutstanding) {
    ProcessId oldest = -1;
    std::uint64_t oldest_routed = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t q = 0; q < owed_.size(); ++q) {
      for (std::size_t i = 0; i < owed_[q].size(); ++i) {
        if (owed_[q][i].kind != FrameKind::kRecvAck) continue;
        if (owed_[q][i].routed < oldest_routed) {
          oldest = static_cast<ProcessId>(q);
          oldest_routed = owed_[q][i].routed;
        }
        break;  // a ring's first RecvAck is its oldest
      }
    }
    if (!read_replies(oldest, 1, deadline)) return false;
  }
  return true;
}

bool ProcFleet::send_app(ProcessId src, ProcessId dst,
                         std::uint64_t bytes) try {
  RDTGC_EXPECTS(src != dst);
  return run_cmd(src, CmdOp::kSendApp, dst, bytes);
} catch (const util::IoError& e) {
  return fail(e.what());
}

bool ProcFleet::basic_checkpoint(ProcessId p) try {
  return run_cmd(p, CmdOp::kCheckpoint, -1, 0);
} catch (const util::IoError& e) {
  return fail(e.what());
}

std::optional<std::size_t> ProcFleet::last_ack_owed_for(ProcessId q,
                                                        ProcessId p) const {
  const OwedRing& owed = owed_[static_cast<std::size_t>(q)];
  for (std::size_t i = owed.size(); i-- > 0;) {
    if (owed[i].kind == FrameKind::kRecvAck && owed[i].msg.src == p) return i;
  }
  return std::nullopt;
}

std::uint64_t ProcFleet::drop_outstanding_to(ProcessId dead) {
  const OwedRing& owed = owed_[static_cast<std::size_t>(dead)];
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < owed.size(); ++i) {
    if (owed[i].kind != FrameKind::kRecvAck) continue;
    Event& d = event(EventKind::kDrop);
    d.src = owed[i].msg.src;
    d.src_incarnation = owed[i].msg.incarnation;
    d.seq = owed[i].msg.seq;
    d.dst = dead;
    log_->append(d);
    ++dropped;
  }
  dropped_ += dropped;
  return dropped;
}

void ProcFleet::kill_process(ProcessId p) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  close_socket(p);
  w.alive = false;
}

bool ProcFleet::quiesced_kill_respawn(ProcessId p) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (!w.alive) return fail("kill of a dead worker");
  // From this point nothing new is routed to p — later arrivals are "in
  // transit at the death" and drop.  Frames already queued toward p drain
  // ahead of the Quiesce command (FIFO), so p still acknowledges them.
  w.draining = true;
  if (!send_cmd(p, CmdOp::kQuiesce, -1, 0)) return false;
  const Clock::time_point deadline = step_deadline();
  // The quiesce point: p acknowledged the drain AND every message p itself
  // sent has been delivered or dropped.  At this point the event log holds
  // everything p's death can affect, and a SIGKILL loses nothing unlogged —
  // the simulator's disconnect purge and the kernel's buffer discard then
  // agree exactly.  p's CmdDone comes after every reply p owed before it.
  if (!flush_all(deadline) ||
      !read_replies(p, owed_[static_cast<std::size_t>(p)].size(), deadline))
    return false;
  for (std::size_t q = 0; q < workers_.size(); ++q) {
    const auto last = last_ack_owed_for(static_cast<ProcessId>(q), p);
    if (last && !read_replies(static_cast<ProcessId>(q), *last + 1, deadline))
      return false;
  }
  Event& e = event(EventKind::kKill);
  e.p = p;
  log_->append(e);
  kill_process(p);
  if (!spawn(p, w.incarnation + 1)) return false;
  return await_hello(p);
}

bool ProcFleet::kill_and_restart(ProcessId p) try {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  const std::uint32_t killed_inc =
      workers_[static_cast<std::size_t>(p)].incarnation;
  if (!quiesced_kill_respawn(p)) return false;
  const CheckpointIndex last = mirror_[static_cast<std::size_t>(p)].last();
  // The orphan condition: a delivered message whose send died with p's
  // volatile interval.  The re-attached p resumes BEHIND a receive someone
  // else already performed — a state no oracle can certify and the paper's
  // recovery session exists to repair.  A clean kill (p checkpointed after
  // its last send, or the delivery never landed) needs no session.
  std::uint64_t orphans = 0;
  for (const DeliveredRec& r : delivered_) {
    if (r.src == p && r.src_incarnation == killed_inc &&
        r.send_interval > last) {
      ++orphans;
    }
  }
  if (orphans == 0) {
    prune_delivered_after_attach(p, last);
    return true;
  }
  orphans_repaired_ += orphans;
  return run_recovery_session({p});
} catch (const util::IoError& e) {
  return fail(e.what());
}

void ProcFleet::prune_delivered_after_attach(ProcessId p,
                                             CheckpointIndex last) {
  // Receives of p's volatile interval died with it; sends above the
  // recovered position are dead too (either just repaired by a session, or
  // from an earlier incarnation whose kill already handled them — interval
  // numbers repeat across incarnations, so stale records would read as
  // phantom orphans at p's next kill).
  std::erase_if(delivered_, [&](const DeliveredRec& r) {
    return (r.dst == p && r.recv_interval > last) ||
           (r.src == p && r.send_interval > last);
  });
}

void ProcFleet::compute_plan(const std::vector<bool>& faulty_mask,
                             std::vector<CheckpointIndex>& line,
                             std::vector<IntervalIndex>& li) const {
  // Lemma 1 over the DV mirrors, Eq. 2 directly: c_f^last → c_i^k iff
  // last_f < DV(c_i^k)[f].  Identical scan order to ccp::recovery_line_
  // lemma1 — the replay oracle recomputes the line through the recorder and
  // asserts it equal, so the mirror must track the recorder's rows exactly.
  const std::size_t n = config_.process_count;
  line.assign(n, 0);
  li.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const DvMirror& mi = mirror_[i];
    const CheckpointIndex last_i = mi.last();
    CheckpointIndex k = last_i + 1;
    for (; k > 0; --k) {
      const std::vector<IntervalIndex>& dv =
          k <= last_i ? mi.ckpt_dvs[static_cast<std::size_t>(k)] : mi.current;
      bool excluded = false;
      for (std::size_t f = 0; f < n && !excluded; ++f) {
        if (!faulty_mask[f]) continue;
        excluded = mirror_[f].last() < dv[f];
      }
      if (!excluded) break;
    }
    line[i] = k;
    // LI[j] = last_s(j)+1 in the cut defined by the line: rolled-back
    // processes restore s^{line[j]}, survivors keep their volatile state.
    li[i] = k <= last_i ? k + 1 : k;
  }
}

bool ProcFleet::run_recovery_session(std::vector<ProcessId> faulty) {
  // Compute the line on a quiescent cut: drain every pending delivery
  // first, so the paper's "drop in-transit messages" step is vacuous and
  // the replayed session starts from an empty channel state too.
  if (!read_all_owed(step_deadline())) return false;
  const std::uint64_t session = ++next_session_;
  std::uint32_t attempt = 0;
  std::vector<bool> faulty_mask(config_.process_count, false);
  std::vector<CheckpointIndex> line;
  std::vector<IntervalIndex> li;
  for (;;) {
    for (const ProcessId f : faulty)
      faulty_mask[static_cast<std::size_t>(f)] = true;
    compute_plan(faulty_mask, line, li);

    Event& e = event(EventKind::kRecoveryStart);
    e.session = session;
    e.attempt = attempt;
    e.faulty = faulty;
    e.li = li;
    e.line = line;
    log_->append(e);

    // Test hook: withhold the broadcast from one worker, then kill it
    // mid-session (below) — the restart-during-session path.
    ProcessId withheld = -1;
    if (config_.recovery_withhold_then_kill >= 0) {
      withheld = config_.recovery_withhold_then_kill;
      config_.recovery_withhold_then_kill = -1;
      RDTGC_EXPECTS(static_cast<std::size_t>(withheld) < workers_.size());
    }

    RecoveryStartBody body;
    body.session = session;
    body.attempt = attempt;
    body.li = li;
    body.line = line;
    const auto acked = [&](std::size_t q) {
      const Worker& w = workers_[q];
      return !w.alive || static_cast<ProcessId>(q) == withheld ||
             (w.acked_session == session && w.acked_attempt >= attempt);
    };
    const auto broadcast = [&](bool only_missing) {
      for (std::size_t q = 0; q < workers_.size(); ++q) {
        Worker& w = workers_[q];
        if (!w.alive || static_cast<ProcessId>(q) == withheld ||
            (only_missing && acked(q))) {
          continue;
        }
        FrameMeta meta;
        meta.src = -1;
        meta.dst = static_cast<ProcessId>(q);
        meta.incarnation = w.incarnation;
        meta.seq = ++w.next_cmd_seq;
        encode_recovery_start(scratch_, meta, body);
        OwedReply ack;
        ack.kind = FrameKind::kRolledBack;
        ack.session = session;
        ack.attempt = attempt;
        queue(static_cast<ProcessId>(q), scratch_, ack);
      }
    };

    // Barrier with deadline-bounded retry: each try gets a full step
    // deadline and reads each worker up to its ack; a try that times out
    // re-sends to exactly the workers whose ack is missing (re-applying a
    // session frame is idempotent — the rollback restores the position the
    // worker already holds), and each re-send owes one more reply.
    broadcast(/*only_missing=*/false);
    for (int tries = 1;; ++tries) {
      const Clock::time_point deadline = step_deadline();
      if (!flush_all(deadline)) return false;
      bool all_acked = true;
      for (std::size_t q = 0; q < workers_.size(); ++q) {
        // Past the deadline a read still returns an ack already queued.
        while (!acked(q) && !owed_[q].empty()) {
          const Read read = read_reply(static_cast<ProcessId>(q), deadline);
          if (read == Read::kFailed) return false;
          if (read == Read::kTimeout) break;
        }
        all_acked = all_acked && acked(q);
      }
      if (all_acked) break;
      if (tries >= config_.recovery_retries)
        return fail("recovery-session barrier: missing RolledBack acks");
      broadcast(/*only_missing=*/true);
    }

    if (withheld < 0) break;
    // The second SIGKILL lands mid-session: the withheld worker never saw
    // the broadcast.  Quiesce-kill it (it is idle — the pre-session drain
    // emptied the channels), fold it into the faulty set, and restart the
    // session.  Everyone who already applied this attempt re-applies the
    // next one against the recomputed line.
    ++recovery_restarts_;
    if (!quiesced_kill_respawn(withheld)) return false;
    if (std::find(faulty.begin(), faulty.end(), withheld) == faulty.end())
      faulty.push_back(withheld);
    ++attempt;
  }
  ++recovery_sessions_;
  // Drop delivered pairs with an endpoint behind the final line: the acked
  // rollbacks undid those sends and receives together (the line is
  // consistent, so a dead send's receive is dead too).
  std::erase_if(delivered_, [&](const DeliveredRec& r) {
    return r.send_interval > line[static_cast<std::size_t>(r.src)] ||
           r.recv_interval > line[static_cast<std::size_t>(r.dst)];
  });
  return true;
}

bool ProcFleet::kill_unclean(ProcessId p) try {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (!w.alive) return fail("kill of a dead worker");
  Event& e = event(EventKind::kUncleanKill);
  e.p = p;
  // Tag the log with the first uncertifiable position: frames may die in
  // p's kernel buffers unlogged, so nothing at or after this index can be
  // certified — replay certifies the prefix and stops exactly here.
  e.seq = log_->events_written();
  log_->append(e);
  w.draining = true;
  w.unlogged_checkpoints = drop_outstanding_to(p);
  kill_process(p);
  return true;
} catch (const util::IoError& e) {
  return fail(e.what());
}

bool ProcFleet::restart(ProcessId p) try {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (w.alive) return fail("restart of a live worker");
  if (!spawn(p, w.incarnation + 1)) return false;
  if (!await_hello(p)) return false;
  // Unclean victims get no session (the run is liveness-only, not replay-
  // certified); still drop delivered pairs the death invalidated so a later
  // clean kill does not see phantom orphans from an earlier incarnation.
  prune_delivered_after_attach(p, mirror_[static_cast<std::size_t>(p)].last());
  return true;
} catch (const util::IoError& e) {
  return fail(e.what());
}

bool ProcFleet::shutdown() try {
  // Let every in-flight delivery surface first so the final States are
  // quiescent (messages to workers downed by kill_unclean were dropped at
  // the kill).
  if (!read_all_owed(step_deadline())) return false;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    if (workers_[p].alive &&
        !send_cmd(static_cast<ProcessId>(p), CmdOp::kShutdown, -1, 0))
      return false;
  }
  // Each worker's State, its last frame before it exits.
  if (!read_all_owed(step_deadline())) return false;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    Worker& w = workers_[p];
    if (w.pid > 0) {
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    close_socket(static_cast<ProcessId>(p));
    w.alive = false;
  }
  return true;
} catch (const util::IoError& e) {
  return fail(e.what());
}

}  // namespace rdtgc::transport
