// Unix-domain SOCK_SEQPACKET plumbing and the worker-side Transport.
//
// SOCK_SEQPACKET is the paper's reliable channel made real: connection-
// oriented (so a dead peer is an error, not silence), sequenced (per-socket
// FIFO — the paper's channels need no FIFO, so this is strictly stronger),
// and message-boundary-preserving (a datagram arrives whole or not at all;
// wire v5 packs whole frames into it back to back, so no frame ever
// straddles two reads).  Crash semantics also line up: when a worker is
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
// The fleet's steady-state I/O spends one syscall each way per exchange:
// FrameQueue holds the frames bound for one socket until the owner sends
// them, all in one non-blocking send(2) (more only past kMaxDatagramBytes),
// and TimedReceiver is every blocking read of the fleet, the parent's and
// the worker's — one recv(2) per datagram, bounded by SO_RCVTIMEO instead
// of a poll(2) in front of it, whose frames it then hands out one per call.
#pragma once

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <memory>
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
  kFrame,    ///< a datagram (recv_frame) or one frame of it (TimedReceiver)
  kTimeout,  ///< nothing arrived within the deadline
  kClosed,   ///< orderly EOF — the peer closed
  kError,    ///< socket error (a SIGKILLed peer surfaces here or as kClosed)
};

/// Receive one datagram (<= kMaxFrameBytes) into `buf`, waiting at most
/// `timeout_ms` (-1 = forever, 0 = only what is already queued).  On kFrame
/// `buf.size()` is the datagram's size, whatever number of frames it holds;
/// its capacity is reused across calls, so a warm receive allocates
/// nothing.  A queued datagram costs one non-blocking recv(2); poll(2) runs
/// only when the socket is empty and the caller is willing to wait.
RecvStatus recv_frame(int fd, WireBuffer& buf, int timeout_ms);

/// Send one datagram, blocking (with poll) up to `timeout_ms` on
/// backpressure.  False on error or deadline — the peer is gone or stuck.
bool send_frame(int fd, std::span<const std::uint8_t> frame, int timeout_ms);

/// One non-blocking send attempt: 1 = sent, 0 = would block, -1 = refused,
/// with errno set by send(2): a dead peer, or EMSGSIZE for a datagram
/// longer than the socket's send buffer allows.
int try_send_frame(int fd, std::span<const std::uint8_t> frame);

/// FIFO of encoded frames bound for one socket, held back to back in one
/// buffer whose capacity is reused, so a warm queue allocates nothing.
///
/// flush() sends the frames in order, as many whole frames per datagram as
/// fit in kMaxDatagramBytes (a larger frame alone): a queue under that size
/// leaves in one send(2).  At backpressure it stops with the unsent frames
/// still queued, in order, and the next flush resumes at the first of them.
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
  bool empty() const { return sent_ == ends_.size(); }
  /// Frames queued and not yet sent.
  std::size_t size() const { return ends_.size() - sent_; }
  /// Forget every queued frame (the buffers keep their capacity).
  void clear() {
    bytes_.clear();
    ends_.clear();
    sent_ = 0;
  }

 private:
  WireBuffer bytes_;               ///< the queued frames, back to back
  std::vector<std::size_t> ends_;  ///< end offset of each frame in bytes_
  std::size_t sent_ = 0;           ///< frames at the front already sent
};

/// A blocking receive: one recv(2) per datagram, bounded by the socket's
/// SO_RCVTIMEO, so a datagram that is already queued or arrives during the
/// wait costs one syscall and no poll(2).  recv() hands out the datagram's
/// frames one per call (split by first_frame_bytes), and only the call
/// after its last frame reads the socket again.  Each wait ends at a
/// steady-clock deadline: a signal or an early kernel timeout resumes it
/// for what is left.  SO_RCVTIMEO is re-armed only when what is left
/// differs from the armed timeout by more than a kernel tick (the timer's
/// own granularity), so back-to-back waits of one length make no
/// setsockopt(2).
class TimedReceiver {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arms SO_RCVTIMEO on `fd` (which must stay blocking) to `timeout_ms`,
  /// the length of a recv() without a deadline.
  TimedReceiver(int fd, int timeout_ms);

  /// The next frame: kFrame (frame() holds it) at once while the last
  /// datagram still holds one, otherwise after waiting for a datagram until
  /// `deadline`; kTimeout once the deadline has passed on the steady clock
  /// with none arriving (a datagram already queued is still read), kClosed
  /// once the peer closed and every queued frame was returned, kError on a
  /// socket error.
  RecvStatus recv(Clock::time_point deadline);
  /// recv() with the deadline `timeout_ms` from now.
  RecvStatus recv() { return recv(Clock::now() + timeout_); }
  /// The last frame received.  It lies in this receiver's own buffer and
  /// stays valid until its next recv(); other receivers, on this thread or
  /// any other, never touch it.
  std::span<const std::uint8_t> frame() const { return frame_; }
  /// True while the last datagram holds frames recv() has not returned.
  bool pending() const { return next_ < end_; }

 private:
  struct Unmap {
    void operator()(std::uint8_t* area) const;
  };

  bool arm(std::chrono::microseconds timeout);
  /// Hand out the next frame of the datagram in area_.
  void take();

  int fd_;
  std::chrono::microseconds timeout_;
  std::chrono::microseconds armed_{};  ///< SO_RCVTIMEO as last set
  /// The last datagram.  Mapped rather than taken from the heap: only the
  /// pages datagrams are copied into ever become resident (no
  /// kMaxFrameBytes of zero-fill), and they go back to the system with the
  /// receiver instead of staying in the heap.
  std::unique_ptr<std::uint8_t[], Unmap> area_;
  std::size_t next_ = 0;  ///< offset of the next frame to hand out
  std::size_t end_ = 0;   ///< size of the datagram in area_
  std::span<const std::uint8_t> frame_;
};

/// Worker-side Transport over the single socket to the fleet parent.
///
/// The endpoint serves exactly one process: connect() registers the local
/// Node's sink, send() encodes the outgoing sim::Message as a Data frame
/// stamped (self, incarnation, seq) and queues it.  The hot path NEVER
/// touches the socket: frames wait in `out_` until the worker loop calls
/// flush_blocking() once per received datagram, after handling all of its
/// frames, so the replies to one datagram leave together before the next
/// blocking receive (Micro-Checkpointing's output-buffering discipline).
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

  /// Send everything queued, in one datagram up to kMaxDatagramBytes,
  /// waiting up to `timeout_ms` in all on backpressure; false if the peer
  /// died or stayed full.
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
