// Unix-domain SOCK_SEQPACKET plumbing and the worker-side Transport.
//
// SOCK_SEQPACKET is the paper's reliable channel made real: connection-
// oriented (so a dead peer is an error, not silence), sequenced (per-socket
// FIFO — the paper's channels need no FIFO, so this is strictly stronger),
// and message-boundary-preserving (one wire frame = one datagram, no
// re-framing layer).  Crash semantics also line up: when a worker is
// SIGKILLed, datagrams still queued in ITS socket buffers vanish with the
// process — exactly the paper's rule that messages in transit at a failure
// are lost (recovery lines exclude them).
//
// The free functions wrap the syscalls with the retry/deadline discipline
// the chaos tests need (bounded EADDRINUSE rebinds, connect retries while
// the parent is still coming up, a deadline on every wait so a hung peer
// fails the run instead of hanging CI).  A deadline is absolute: a wait cut
// short by a signal resumes for what remains of it, never for the full
// timeout again.
//
// The fleet's steady-state I/O spends only the syscalls a frame needs:
// FrameQueue holds the frames bound for one socket until the owner sends
// them (one non-blocking send(2) each), and TimedReceiver is every blocking
// read of the fleet, the parent's and the worker's — one recv(2) per frame,
// bounded by SO_RCVTIMEO instead of a poll(2) in front of it.
#pragma once

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Bind + listen a SEQPACKET socket at `path`.  A stale socket file (a
/// previous run died without cleanup) yields EADDRINUSE: retried up to
/// `max_attempts` times, unlinking the stale path between attempts.
/// Returns an invalid Fd on exhaustion.
Fd uds_listen(const std::string& path, int backlog, int max_attempts = 5);

/// Connect to `path`, retrying ENOENT/ECONNREFUSED with `backoff_ms` sleeps
/// while the listener is still coming up (slow-spawn deflake).  Returns an
/// invalid Fd on exhaustion.
Fd uds_connect(const std::string& path, int max_attempts = 100,
               int backoff_ms = 20);

/// Accept one connection, waiting at most `timeout_ms`.  Invalid on timeout.
Fd uds_accept(int listen_fd, int timeout_ms);

enum class RecvStatus : std::uint8_t {
  kFrame,    ///< one datagram read into the buffer
  kTimeout,  ///< nothing arrived within the deadline
  kClosed,   ///< orderly EOF — the peer closed
  kError,    ///< socket error (a SIGKILLed peer surfaces here or as kClosed)
};

/// Receive one datagram (<= kMaxFrameBytes) into `buf`, waiting at most
/// `timeout_ms` (-1 = forever, 0 = only what is already queued).  On kFrame
/// `buf.size()` is the datagram's size; its capacity is reused across
/// calls, so a warm receive allocates nothing.  A queued frame costs one
/// non-blocking recv(2); poll(2) runs only when the socket is empty and the
/// caller is willing to wait.
RecvStatus recv_frame(int fd, WireBuffer& buf, int timeout_ms);

/// Send one datagram, blocking (with poll) up to `timeout_ms` on
/// backpressure.  False on error or deadline — the peer is gone or stuck.
bool send_frame(int fd, std::span<const std::uint8_t> frame, int timeout_ms);

/// One non-blocking send attempt: 1 = sent, 0 = would block, -1 = dead peer.
int try_send_frame(int fd, std::span<const std::uint8_t> frame);

/// FIFO of encoded frames bound for one socket.
///
/// A ring of buffers: a sent frame's slot keeps its capacity for the next
/// push, so a warm queue allocates nothing.  flush() sends the frames in
/// order, one datagram each, and stops at backpressure with the unsent
/// tail still queued, in order.
class FrameQueue {
 public:
  /// Queue a copy of `frame` behind everything already queued.
  void push(std::span<const std::uint8_t> frame);
  /// Send queued frames without blocking: 1 = the queue is empty, 0 = the
  /// socket is full (the rest stays queued), -1 = the peer is gone.
  int flush(int fd);
  /// flush(), waiting up to `timeout_ms` in all for the socket to drain
  /// whenever it fills.  False on a dead peer or at the deadline.
  bool flush_blocking(int fd, int timeout_ms);
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// Forget every queued frame (their slots stay allocated).
  void clear() { head_ = count_ = 0; }

 private:
  WireBuffer& slot(std::size_t i) {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  std::vector<WireBuffer> slots_;  ///< power-of-two ring
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// A blocking receive: one recv(2) per frame, bounded by the socket's
/// SO_RCVTIMEO, so a frame that is already queued or arrives during the
/// wait costs one syscall and no poll(2).  Each wait ends at a steady-clock
/// deadline: a signal or an early kernel timeout resumes it for what is
/// left.  SO_RCVTIMEO is re-armed only when what is left differs from the
/// armed timeout by more than a kernel tick (the timer's own granularity),
/// so back-to-back waits of one length make no setsockopt(2).
class TimedReceiver {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arms SO_RCVTIMEO on `fd` (which must stay blocking) to `timeout_ms`,
  /// the length of a recv() without a deadline.
  TimedReceiver(int fd, int timeout_ms);

  /// Wait for one datagram until `deadline`: kFrame (frame() holds it),
  /// kTimeout once the deadline has passed on the steady clock with none
  /// arriving (a frame already queued is still returned), kClosed once the
  /// peer closed and every queued frame was returned, kError on a socket
  /// error.
  RecvStatus recv(Clock::time_point deadline);
  /// recv() with the deadline `timeout_ms` from now.
  RecvStatus recv() { return recv(Clock::now() + timeout_); }
  /// The last frame received.  It lies in the thread's receive staging,
  /// which every receiver and recv_frame on the thread share: it stays
  /// valid until the thread's next receive.
  std::span<const std::uint8_t> frame() const { return frame_; }

 private:
  bool arm(std::chrono::microseconds timeout);

  int fd_;
  std::chrono::microseconds timeout_;
  std::chrono::microseconds armed_{};  ///< SO_RCVTIMEO as last set
  std::span<const std::uint8_t> frame_;
};

/// Worker-side Transport over the single socket to the fleet parent.
///
/// The endpoint serves exactly one process: connect() registers the local
/// Node's sink, send() encodes the outgoing sim::Message as a Data frame
/// stamped (self, incarnation, seq) and queues it.  The hot path NEVER
/// touches the socket: frames wait in `out_` until the worker loop calls
/// flush_blocking() once per handled frame, so the reply to one frame has
/// left before the next receive (Micro-Checkpointing's output-buffering
/// discipline).
class UdsTransport final : public Transport {
 public:
  UdsTransport(int fd, ProcessId self, std::uint32_t incarnation);

  void connect(ProcessId p, DeliveryFn sink) override;
  void disconnect(ProcessId p) override;
  /// A bare message (m.id == 0) is named by its Data frame's seq.
  sim::MessageId send(sim::Message m) override;
  sim::Message make_message() override;

  /// Deliver an inbound application message to the local sink, then recycle
  /// its DV buffer into make_message().
  void deliver(sim::Message m);

  /// Queue an already-encoded non-Data frame behind everything already
  /// buffered, preserving the event order the parent's log relies on.
  void enqueue_frame(const WireBuffer& frame) { out_.push(frame); }

  /// Send everything queued, waiting up to `timeout_ms` in all on
  /// backpressure; false if the peer died or stayed full.
  bool flush_blocking(int timeout_ms) {
    return out_.flush_blocking(fd_, timeout_ms);
  }

  std::uint64_t next_seq() { return ++seq_; }
  std::uint64_t last_seq() const { return seq_; }
  std::uint32_t incarnation() const { return incarnation_; }
  ProcessId self() const { return self_; }

 private:
  int fd_;
  ProcessId self_;
  std::uint32_t incarnation_;
  std::uint64_t seq_ = 0;  ///< per-incarnation frame sequence (1-based)
  DeliveryFn sink_;
  FrameQueue out_;
  WireBuffer scratch_;
  DataBody data_scratch_;
  sim::Message recycled_;
};

}  // namespace rdtgc::transport
