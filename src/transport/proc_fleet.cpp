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

ProcFleet::ProcFleet(FleetConfig config)
    : config_(std::move(config)), mirror_(config_.process_count) {
  RDTGC_EXPECTS(config_.process_count >= 2);
  RDTGC_EXPECTS(!config_.scratch_dir.empty() &&
                !config_.worker_binary.empty());
  RDTGC_EXPECTS(config_.backend != ckpt::StorageBackendKind::kInMemory);
  workers_.resize(config_.process_count);
  out_.resize(config_.process_count);
  // One command and the deliveries the bound allows plus the one a call
  // routes before enforcing it.  A session frame is queued only to an empty
  // ring: the pre-session drain and each attempt's barrier read every reply
  // owed.
  owed_.assign(config_.process_count, OwedRing(kMaxOutstanding + 2));
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
  // The receiver that reads the Hello reads every later reply of the worker.
  TimedReceiver rx(fd.get(), config_.step_timeout_ms);
  if (rx.recv() != RecvStatus::kFrame)
    return fail("worker connected but sent no Hello");
  const WireError err = decode_frame(rx.frame(), frame_);
  if (err != WireError::kOk)
    return fail(std::string("bad Hello frame: ") + wire_error_name(err));
  if (frame_.header.kind() != FrameKind::kHello)
    return fail("first worker frame was not Hello");
  const ProcessId p = frame_.header.src;
  if (p < 0 || static_cast<std::size_t>(p) >= workers_.size())
    return fail("Hello from unknown process id");
  if (rx.pending()) {
    return fail("Hello frame from p" + std::to_string(p) +
                " shares its datagram with another frame");
  }
  if (expected >= 0 && p != expected)
    return fail("Hello from the wrong process after a restart");
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (w.alive) return fail("duplicate Hello");
  if (frame_.header.incarnation != w.incarnation)
    return fail("Hello carries the wrong incarnation");
  const HelloBody& hello = frame_.hello;
  if (!mirror_.attach(p, w.incarnation, hello.last_index, hello.dv))
    return fail(mirror_.error());
  w.fd = std::move(fd);
  w.rx = std::move(rx);
  w.alive = true;
  w.draining = false;

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
      // Too long for the socket's send buffer (see kMaxDatagramBytes) is
      // no fault of p's; any other refusal is p's death.
      if (errno != EMSGSIZE) return died(p);
      return fail("p" + std::to_string(p) +
                  "'s socket refused a datagram longer than its send "
                  "buffer (EMSGSIZE)");
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

bool ProcFleet::died(ProcessId p) {
  const OwedRing& owed = owed_[static_cast<std::size_t>(p)];
  return fail("worker p" + std::to_string(p) + " died unexpectedly" +
              (owed.empty() ? std::string() : ", owing " + describe(owed[0])));
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
  // The ring's newest `unsent` entries answer frames still queued.
  const std::size_t unsent = out_[static_cast<std::size_t>(p)].size();
  const RecvStatus status = w.rx->recv(deadline);
  if (status == RecvStatus::kTimeout) return Read::kTimeout;
  if (status != RecvStatus::kFrame) {
    died(p);
    return Read::kFailed;
  }
  const std::span<const std::uint8_t> raw = w.rx->frame();
  const WireError err = decode_frame(raw, frame_);
  if (err != WireError::kOk) {
    fail("bad frame from worker p" + std::to_string(p) + ": " +
         wire_error_name(err));
    return Read::kFailed;
  }
  if (frame_.header.src != p) {
    fail("frame src does not match its socket");
    return Read::kFailed;
  }
  if (owed.size() == unsent) {
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
  if (!handle_frame(p, raw, frame_, reply)) return Read::kFailed;
  // A datagram answers each frame sent with one reply: a frame still left
  // in it once every sent frame is answered is one reply too many, and the
  // read that takes it fails by name.
  if (owed.size() == unsent && w.rx->pending()) return read_reply(p, deadline);
  return Read::kReply;
}

bool ProcFleet::read_replies(ProcessId p, std::size_t count,
                             Clock::time_point deadline) {
  const OwedRing& owed = owed_[static_cast<std::size_t>(p)];
  RDTGC_ASSERT(count <= owed.size());
  const std::size_t keep = owed.size() - count;
  // Every reply read answers a frame p has been sent: p's queued frames
  // leave first, all in one datagram.  A flush that waits for room may read
  // some of the replies itself.
  if (!flush(p, deadline)) return false;
  while (owed.size() > keep) {
    const Read read = read_reply(p, deadline);
    if (read == Read::kFailed) return false;
    if (read == Read::kTimeout) {
      return fail("deadline expired after " +
                  std::to_string(config_.step_timeout_ms) + " ms: p" +
                  std::to_string(p) + " still owes " + describe(owed[0]));
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

bool ProcFleet::handle_frame(ProcessId p, std::span<const std::uint8_t> raw,
                             const DecodedFrame& frame,
                             const OwedReply& owed) {
  const auto in_range = [&](ProcessId q) {
    return q >= 0 && static_cast<std::size_t>(q) < config_.process_count;
  };
  switch (frame.header.kind()) {
    case FrameKind::kData:
      if (!in_range(frame.header.dst) || frame.header.dst == p)
        return fail("Data frame from p" + std::to_string(p) +
                    " addressed to p" + std::to_string(frame.header.dst));
      if (!mirror_.send(p, frame.data.send_interval, frame.data.dv))
        return fail(mirror_.error());
      route_data(raw, frame);
      return true;
    case FrameKind::kRecvAck: {
      const RecvAckBody& ack = frame.recv_ack;
      if (!mirror_.deliver(Delivery{ack.msg_src, ack.msg_incarnation,
                                    ack.msg_seq, owed.send_interval, p,
                                    ack.recv_interval},
                           ack.forced != 0, ack.dv_after))
        return fail(mirror_.error());
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
      return true;
    }
    case FrameKind::kCheckpoint: {
      const CheckpointBody& ckpt = frame.checkpoint;
      if (!mirror_.checkpoint(p, ckpt.index, ckpt.dv))
        return fail(mirror_.error());
      Event& e = event(EventKind::kCheckpoint);
      e.p = p;
      e.incarnation = frame.header.incarnation;
      e.index = ckpt.index;
      e.ckpt_kind = ckpt.kind;
      e.dv = ckpt.dv;
      log_->append(e);
      return true;
    }
    case FrameKind::kRolledBack: {
      const RolledBackBody& rb = frame.rolled_back;
      if (!mirror_.rolled_back(p, rb.last_index, rb.dv))
        return fail(mirror_.error());
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
      if (!mirror_.check_width("State", p, frame.state.dv))
        return fail(mirror_.error());
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
  if (!send_cmd(p, op, target, param)) return false;
  // The command leaves behind the Data frames queued for p, in one
  // datagram, and p's socket is FIFO: the RecvAcks p owes come first, the
  // command's own reply last.
  if (!read_replies(p, owed_[static_cast<std::size_t>(p)].size(), deadline))
    return false;
  // Deferred RecvAcks keep their deliveries outstanding; past the bound,
  // send the receiver of the oldest its queued frames and read it (waiting
  // only if it has not answered).
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
  // agree exactly.  p's CmdDone comes after every reply p owed before it,
  // and each receiver of p's messages is sent its queued frames before it
  // is read.
  if (!read_replies(p, owed_[static_cast<std::size_t>(p)].size(), deadline))
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
  // The orphan condition: a delivered message whose send died with p's
  // volatile interval.  The re-attached p resumes BEHIND a receive someone
  // else already performed — a state no oracle can certify and the paper's
  // recovery session exists to repair.  A clean kill (p checkpointed after
  // its last send, or the delivery never landed) needs no session.
  const std::uint64_t orphans = mirror_.orphans(p, killed_inc);
  if (orphans == 0) {
    mirror_.forget_after_attach(p);
    return true;
  }
  orphans_repaired_ += orphans;
  return run_recovery_session({p});
} catch (const util::IoError& e) {
  return fail(e.what());
}

bool ProcFleet::run_recovery_session(std::vector<ProcessId> faulty) {
  // Compute the line on a quiescent cut: drain every pending delivery
  // first, so the paper's "drop in-transit messages" step is vacuous and
  // the replayed session starts from an empty channel state too.
  if (!read_all_owed(step_deadline())) return false;
  const std::uint64_t session = ++next_session_;
  std::vector<CheckpointIndex> line;
  std::vector<IntervalIndex> li;
  for (std::uint32_t attempt = 0;; ++attempt) {
    mirror_.plan(faulty, line, li);

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
    for (std::size_t q = 0; q < workers_.size(); ++q) {
      Worker& w = workers_[q];
      if (!w.alive || static_cast<ProcessId>(q) == withheld) continue;
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
    // The barrier: each worker sent the frame owes its one RolledBack, and
    // its socket is reliable and FIFO, so a re-sent frame could only queue
    // behind the unanswered one.  A worker that has not answered by the
    // deadline fails the run, naming the RolledBack it owes.
    if (!read_all_owed(step_deadline())) return false;

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
  }
  ++recovery_sessions_;
  mirror_.end_session(line);
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
  mirror_.unclean_kill(p, drop_outstanding_to(p));
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
  mirror_.forget_after_attach(p);
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
