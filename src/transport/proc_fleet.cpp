#include "transport/proc_fleet.hpp"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::transport {

namespace {

using Clock = std::chrono::steady_clock;

int ms_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

ProcFleet::ProcFleet(FleetConfig config) : config_(std::move(config)) {
  RDTGC_EXPECTS(config_.process_count >= 2);
  RDTGC_EXPECTS(!config_.scratch_dir.empty() &&
                !config_.worker_binary.empty());
  RDTGC_EXPECTS(config_.backend != ckpt::StorageBackendKind::kInMemory);
  workers_.resize(config_.process_count);
  events_.resize(config_.process_count);
  out_.resize(config_.process_count);
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

bool ProcFleet::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool ProcFleet::start() {
  RDTGC_EXPECTS(!started_);
  started_ = true;
  for (std::size_t p = 0; p < config_.process_count; ++p)
    std::filesystem::create_directories(
        storage_dir(static_cast<ProcessId>(p)));
  log_ = std::make_unique<EventLogWriter>(log_path_);
  listener_ = uds_listen(socket_path_,
                         static_cast<int>(config_.process_count) + 4);
  if (!listener_.valid()) return fail("bind/listen failed: " + socket_path_);
  epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) return fail("epoll_create1 failed");
  for (std::size_t p = 0; p < config_.process_count; ++p) {
    if (!spawn(static_cast<ProcessId>(p), 0)) return false;
  }
  // Workers race to connect; each Hello identifies its sender.
  for (std::size_t i = 0; i < config_.process_count; ++i) {
    if (!await_hello(-1)) return false;
  }
  return true;
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

  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees a dead connectionless child
  }
  Worker& w = workers_[static_cast<std::size_t>(p)];
  w.pid = pid;
  w.incarnation = incarnation;
  w.alive = false;  // until its Hello arrives
  w.draining = false;
  w.state_received = false;
  return true;
}

bool ProcFleet::await_hello(ProcessId expected) {
  Fd fd = uds_accept(listener_.get(), config_.step_timeout_ms);
  if (!fd.valid()) return fail("no worker connected within the deadline");
  const RecvStatus status = recv_frame(fd.get(), in_, config_.step_timeout_ms);
  if (status != RecvStatus::kFrame)
    return fail("worker connected but sent no Hello");
  const WireError err = decode_frame(in_, frame_);
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
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(p);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd.get(), &ev) != 0)
    return fail("epoll_ctl(ADD) failed");
  w.fd = std::move(fd);
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

  Event e;
  e.kind = EventKind::kAttach;
  e.p = p;
  e.incarnation = w.incarnation;
  e.index = hello.last_index;
  e.dv = hello.dv;
  log_->append(e);
  return true;
}

bool ProcFleet::flush(ProcessId p) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  FrameQueue& queue = out_[static_cast<std::size_t>(p)];
  if (queue.empty() || !w.fd.valid()) return true;
  const int rc = queue.flush(w.fd.get());
  if (rc < 0) {
    // A draining worker's close surfaces on its next read.
    return w.draining || fail("worker socket died mid-write");
  }
  const bool backed_up = rc == 0;
  if (backed_up != w.out_armed) {
    epoll_event ev{};
    ev.events = backed_up ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(p);
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, w.fd.get(), &ev) != 0)
      return fail("epoll_ctl(MOD) failed");
    w.out_armed = backed_up;
  }
  return true;
}

bool ProcFleet::flush_all() {
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    if (!flush(static_cast<ProcessId>(p))) return false;
  }
  return true;
}

bool ProcFleet::drain(ProcessId p) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  while (w.alive) {
    const RecvStatus status = recv_frame(w.fd.get(), in_, 0);
    if (status == RecvStatus::kTimeout) return true;  // the socket is empty
    if (status == RecvStatus::kClosed || status == RecvStatus::kError) {
      // Expected after a Shutdown command completed; fatal otherwise.
      if (!w.state_received && !w.draining)
        return fail("worker p" + std::to_string(p) + " died unexpectedly");
      w.alive = false;
      close_socket(p);
      return true;
    }
    const WireError err = decode_frame(in_, frame_);
    if (err != WireError::kOk)
      return fail(std::string("bad frame from worker: ") +
                  wire_error_name(err));
    if (!handle_frame(p, in_, frame_)) return false;
  }
  return true;
}

void ProcFleet::close_socket(ProcessId p) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (w.fd.valid()) {
    // Explicitly: a child between fork and exec still holds the socket, so
    // close alone would leave it registered.
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, w.fd.get(), nullptr);
    w.fd.reset();
  }
  w.out_armed = false;
  out_[static_cast<std::size_t>(p)].clear();
}

bool ProcFleet::pump(int wait_ms) {
  if (!flush_all()) return false;
  const int ready = ::epoll_wait(epoll_.get(), events_.data(),
                                 static_cast<int>(events_.size()), wait_ms);
  if (ready < 0) return errno == EINTR || fail("epoll_wait failed");
  for (int i = 0; i < ready; ++i) {
    const epoll_event& ev = events_[static_cast<std::size_t>(i)];
    const auto p = static_cast<ProcessId>(ev.data.u32);
    if (!workers_[static_cast<std::size_t>(p)].alive) continue;
    if ((ev.events & EPOLLOUT) && !flush(p)) return false;
    if ((ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) && !drain(p))
      return false;
  }
  return true;
}

template <typename Pred>
bool ProcFleet::pump_until(Pred done, const char* what) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.step_timeout_ms);
  while (!done()) {
    if (!error_.empty()) return false;
    const int left = ms_left(deadline);
    if (left == 0)
      return fail(std::string("deadline expired waiting for ") + what);
    if (!pump(std::min(left, 50))) return false;
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
                             const DecodedFrame& frame) {
  if (frame.header.src != p)
    return fail("frame src does not match its socket");
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
      if (!in_range(ack.msg_src))
        return fail("RecvAck frame from p" + std::to_string(p) +
                    " names sender p" + std::to_string(ack.msg_src));
      // The receive stays in the current interval — or, forced, follows
      // the checkpoint that closes it, in the next one.
      const auto lineage = static_cast<std::int64_t>(m.ckpt_dvs.size()) +
                           (ack.forced != 0 ? 1 : 0);
      if (ack.recv_interval != lineage)
        return fail("RecvAck frame from p" + std::to_string(p) +
                    " puts its receive in interval " +
                    std::to_string(ack.recv_interval) + ", its lineage in " +
                    std::to_string(lineage));
      Event e;
      e.kind = EventKind::kDeliver;
      e.dst = p;
      e.incarnation = frame.header.incarnation;
      e.src = ack.msg_src;
      e.src_incarnation = ack.msg_incarnation;
      e.seq = ack.msg_seq;
      e.interval = ack.recv_interval;
      e.forced = ack.forced;
      e.dv = ack.dv_after;
      log_->append(e);
      const MsgKey key{e.src, e.src_incarnation, e.seq};
      if (const auto it = outstanding_.find(key); it != outstanding_.end()) {
        delivered_.push_back(DeliveredRec{e.src, e.src_incarnation, e.seq,
                                          it->second.send_interval, p,
                                          e.interval});
        outstanding_.erase(it);
      }
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
      Event e;
      e.kind = EventKind::kCheckpoint;
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
      Event e;
      e.kind = EventKind::kRolledBack;
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
    case FrameKind::kCmdDone: {
      Worker& w = workers_[static_cast<std::size_t>(p)];
      w.last_done_seq = std::max(w.last_done_seq, frame.cmd_done.cmd_seq);
      return true;
    }
    case FrameKind::kState: {
      if (!check_width(p, "State", frame.state.dv)) return false;
      Worker& w = workers_[static_cast<std::size_t>(p)];
      w.state_received = true;
      w.state = frame.state;
      Event e;
      e.kind = EventKind::kState;
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
  Event e;
  e.kind = EventKind::kSend;
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
    // disconnect drop (the replay purges it the same way).
    Event d;
    d.kind = EventKind::kDrop;
    d.src = e.src;
    d.src_incarnation = e.src_incarnation;
    d.seq = e.seq;
    d.dst = dst;
    log_->append(d);
    ++dropped_;
    return;
  }
  // The destination gets the sender's exact bytes.  The header already
  // carries the destination and the (src, incarnation, seq) identity the
  // parent would stamp, so a re-encode could only reproduce them.
  out_[static_cast<std::size_t>(dst)].push(raw);
  outstanding_[MsgKey{e.src, e.src_incarnation, e.seq}] =
      InFlight{dst, frame.data.send_interval};
}

bool ProcFleet::send_cmd(ProcessId p, CmdOp op, ProcessId target,
                         std::uint64_t param, std::uint64_t& cmd_seq) {
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (!w.alive) return fail("command to a dead worker");
  cmd_seq = ++w.next_cmd_seq;
  CmdBody body;
  body.op = static_cast<std::uint8_t>(op);
  body.target = target;
  body.param = param;
  FrameMeta meta;
  meta.src = -1;
  meta.dst = p;
  meta.incarnation = w.incarnation;
  meta.seq = cmd_seq;
  encode_cmd(scratch_, meta, body);
  out_[static_cast<std::size_t>(p)].push(scratch_);
  return true;
}

bool ProcFleet::run_cmd(ProcessId p, CmdOp op, ProcessId target,
                        std::uint64_t param) {
  std::uint64_t cmd_seq = 0;
  if (!send_cmd(p, op, target, param, cmd_seq)) return false;
  const Worker& w = workers_[static_cast<std::size_t>(p)];
  const auto done = [&] { return w.last_done_seq >= cmd_seq; };
  // Reply first: read p's socket before waiting.  The woken worker has
  // often answered by the time the send returns, and then the call makes
  // no wait syscall at all.
  if (!flush_all() || !drain(p)) return false;
  if (!done() && !pump_until(done, "command completion")) return false;
  // Deferred RecvAcks keep their deliveries outstanding; past the bound,
  // read them now (waiting only if they have not been produced yet).
  return outstanding_.size() <= kMaxOutstanding ||
         pump_until([&] { return outstanding_.size() <= kMaxOutstanding; },
                    "deferred delivery acknowledgements");
}

bool ProcFleet::send_app(ProcessId src, ProcessId dst, std::uint64_t bytes) {
  RDTGC_EXPECTS(src != dst);
  return run_cmd(src, CmdOp::kSendApp, dst, bytes);
}

bool ProcFleet::basic_checkpoint(ProcessId p) {
  return run_cmd(p, CmdOp::kCheckpoint, -1, 0);
}

bool ProcFleet::outstanding_from(ProcessId p) const {
  for (const auto& [key, inflight] : outstanding_) {
    if (key.src == p || inflight.dst == p) return true;
  }
  return false;
}

std::uint64_t ProcFleet::drop_outstanding_to(ProcessId dead) {
  std::uint64_t dropped = 0;
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (it->second.dst == dead) {
      Event d;
      d.kind = EventKind::kDrop;
      d.src = it->first.src;
      d.src_incarnation = it->first.incarnation;
      d.seq = it->first.seq;
      d.dst = dead;
      log_->append(d);
      ++dropped;
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
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
  std::uint64_t cmd_seq = 0;
  if (!send_cmd(p, CmdOp::kQuiesce, -1, 0, cmd_seq)) return false;
  // The quiesce point: p acknowledged the drain AND every message p itself
  // sent has been delivered or dropped.  At this point the event log holds
  // everything p's death can affect, and a SIGKILL loses nothing unlogged —
  // the simulator's disconnect purge and the kernel's buffer discard then
  // agree exactly.
  if (!pump_until(
          [&] {
            return w.last_done_seq >= cmd_seq && !outstanding_from(p);
          },
          "quiesce drain")) {
    return false;
  }
  Event e;
  e.kind = EventKind::kKill;
  e.p = p;
  log_->append(e);
  kill_process(p);
  if (!spawn(p, w.incarnation + 1)) return false;
  return await_hello(p);
}

bool ProcFleet::kill_and_restart(ProcessId p) {
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
  if (!pump_until([&] { return outstanding_.empty(); }, "pre-session drain"))
    return false;
  const std::uint64_t session = ++next_session_;
  std::uint32_t attempt = 0;
  std::vector<bool> faulty_mask(config_.process_count, false);
  std::vector<CheckpointIndex> line;
  std::vector<IntervalIndex> li;
  for (;;) {
    for (const ProcessId f : faulty)
      faulty_mask[static_cast<std::size_t>(f)] = true;
    compute_plan(faulty_mask, line, li);

    Event e;
    e.kind = EventKind::kRecoveryStart;
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
    const auto broadcast = [&](bool only_missing) {
      for (std::size_t q = 0; q < workers_.size(); ++q) {
        Worker& w = workers_[q];
        if (!w.alive || static_cast<ProcessId>(q) == withheld) continue;
        if (only_missing && w.acked_session == session &&
            w.acked_attempt >= attempt) {
          continue;
        }
        FrameMeta meta;
        meta.src = -1;
        meta.dst = static_cast<ProcessId>(q);
        meta.incarnation = w.incarnation;
        meta.seq = ++w.next_cmd_seq;
        encode_recovery_start(scratch_, meta, body);
        out_[q].push(scratch_);
      }
    };
    const auto acked = [&] {
      for (std::size_t q = 0; q < workers_.size(); ++q) {
        const Worker& w = workers_[q];
        if (!w.alive || static_cast<ProcessId>(q) == withheld) continue;
        if (w.acked_session != session || w.acked_attempt < attempt)
          return false;
      }
      return true;
    };

    // Barrier with deadline-bounded retry: each try gets a full step
    // deadline; a try that times out re-broadcasts to exactly the workers
    // whose ack is missing (re-applying a session frame is idempotent —
    // the rollback restores the position the worker already holds).
    broadcast(/*only_missing=*/false);
    int tries = 1;
    for (;;) {
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(config_.step_timeout_ms);
      while (!acked()) {
        if (!error_.empty()) return false;
        const int left = ms_left(deadline);
        if (left == 0) break;
        if (!pump(std::min(left, 50))) return false;
      }
      if (acked()) break;
      if (tries >= config_.recovery_retries)
        return fail("recovery-session barrier: missing RolledBack acks");
      ++tries;
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

bool ProcFleet::kill_unclean(ProcessId p) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < workers_.size());
  Worker& w = workers_[static_cast<std::size_t>(p)];
  if (!w.alive) return fail("kill of a dead worker");
  Event e;
  e.kind = EventKind::kUncleanKill;
  e.p = p;
  // Tag the log with the first uncertifiable position: frames may die in
  // p's kernel buffers unlogged, so nothing at or after this index can be
  // certified — replay certifies the prefix and stops exactly here.
  e.seq = log_->events_written();
  log_->append(e);
  w.draining = true;  // silence "died unexpectedly" while we tear it down
  kill_process(p);
  w.unlogged_checkpoints = drop_outstanding_to(p);
  return true;
}

bool ProcFleet::restart(ProcessId p) {
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
}

bool ProcFleet::shutdown() {
  // Let every in-flight delivery surface first so the final States are
  // quiescent (messages to workers downed by kill_unclean were dropped at
  // the kill).
  if (!pump_until([&] { return outstanding_.empty(); }, "delivery drain"))
    return false;
  std::vector<std::uint64_t> seqs(workers_.size(), 0);
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    Worker& w = workers_[p];
    if (!w.alive) continue;
    if (!send_cmd(static_cast<ProcessId>(p), CmdOp::kShutdown, -1, 0,
                  seqs[p])) {
      return false;
    }
    w.draining = true;  // the post-State socket close is expected
  }
  if (!pump_until(
          [&] {
            for (const Worker& w : workers_)
              if (w.pid > 0 && w.alive && !w.state_received) return false;
            return true;
          },
          "final State digests")) {
    return false;
  }
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
}

}  // namespace rdtgc::transport
