#include "transport/uds.hpp"

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::transport {

namespace {

using Clock = std::chrono::steady_clock;

bool fill_sockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

/// The absolute end of a wait of `timeout_ms` (-1 = no end) starting now.
Clock::time_point deadline_after(int timeout_ms) {
  return timeout_ms < 0 ? Clock::time_point::max()
                        : Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// The calling thread's receive staging for recv_frame.  One recv must take
/// the whole datagram (the kernel drops what does not fit), so every
/// receive lands in an area of the largest frame size first.  The area is
/// allocated on the thread's first receive and never value-initialised: a
/// datagram costs the bytes the kernel copies, not kMaxFrameBytes of
/// zero-fill.
std::uint8_t* staging() {
  thread_local const std::unique_ptr<std::uint8_t[]> area =
      std::make_unique_for_overwrite<std::uint8_t[]>(kMaxFrameBytes);
  return area.get();
}

/// One kernel timer tick: the resolution of the tick-driven coarse clock.
std::chrono::microseconds kernel_tick() {
  static const std::chrono::microseconds tick = [] {
    timespec res{};
    ::clock_getres(CLOCK_MONOTONIC_COARSE, &res);
    return std::chrono::ceil<std::chrono::microseconds>(
        std::chrono::seconds(res.tv_sec) +
        std::chrono::nanoseconds(res.tv_nsec));
  }();
  return tick;
}

/// poll(2) `fd` for `events` until `deadline`.  A signal does not restart
/// the full timeout: each retry waits only for what is left, rounded up to
/// the next millisecond.  > 0 ready, 0 deadline, < 0 poll failed.
int poll_until(int fd, short events, Clock::time_point deadline) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    int wait_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto left = deadline - Clock::now();
      wait_ms = left <= Clock::duration::zero()
                    ? 0
                    : static_cast<int>(
                          std::chrono::ceil<std::chrono::milliseconds>(left)
                              .count());
    }
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd uds_listen(const std::string& path, int backlog, int max_attempts) {
  sockaddr_un addr{};
  if (!fill_sockaddr(path, addr)) return Fd();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Fd();
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) == 0) {
      if (::listen(fd.get(), backlog) == 0) return fd;
      return Fd();
    }
    if (errno != EADDRINUSE) return Fd();
    // A stale socket file from a dead previous run: remove it and rebind.
    ::unlink(path.c_str());
    sleep_ms(10);
  }
  return Fd();
}

Fd uds_connect(const std::string& path, int max_attempts, int backoff_ms) {
  sockaddr_un addr{};
  if (!fill_sockaddr(path, addr)) return Fd();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Fd();
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    // The parent may not have bound/listened yet (slow spawn): back off and
    // retry on the errors that mean "not up yet", fail fast otherwise.
    if (errno != ENOENT && errno != ECONNREFUSED && errno != EAGAIN)
      return Fd();
    sleep_ms(backoff_ms);
  }
  return Fd();
}

Fd uds_accept(int listen_fd, int timeout_ms) {
  const Clock::time_point deadline = deadline_after(timeout_ms);
  for (;;) {
    if (poll_until(listen_fd, POLLIN, deadline) <= 0) return Fd();
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return Fd(fd);
  }
}

RecvStatus recv_frame(int fd, WireBuffer& buf, int timeout_ms) {
  std::uint8_t* const area = staging();
  Clock::time_point deadline{};  // set by the first wait
  for (bool waited = false;;) {
    const ssize_t n = ::recv(fd, area, kMaxFrameBytes, MSG_DONTWAIT);
    if (n > 0) {
      buf.assign(area, area + n);  // capacity reused
      return RecvStatus::kFrame;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return RecvStatus::kError;
    // Nothing queued: wait only if the caller allows it.
    if (timeout_ms == 0) return RecvStatus::kTimeout;
    if (!waited) deadline = deadline_after(timeout_ms);
    waited = true;
    const int rc = poll_until(fd, POLLIN, deadline);
    if (rc == 0) return RecvStatus::kTimeout;
    if (rc < 0) return RecvStatus::kError;
  }
}

bool send_frame(int fd, std::span<const std::uint8_t> frame, int timeout_ms) {
  Clock::time_point deadline{};  // set by the first wait
  for (bool waited = false;;) {
    const int rc = try_send_frame(fd, frame);
    if (rc > 0) return true;
    if (rc < 0) return false;
    if (!waited) deadline = deadline_after(timeout_ms);
    waited = true;
    // A deadline without room: the peer is stuck.
    if (poll_until(fd, POLLOUT, deadline) <= 0) return false;
  }
}

int try_send_frame(int fd, std::span<const std::uint8_t> frame) {
  // SEQPACKET datagrams are all-or-nothing: no partial-send bookkeeping.
  const ssize_t n =
      ::send(fd, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n >= 0) {
    RDTGC_ASSERT(static_cast<std::size_t>(n) == frame.size());
    return 1;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  if (errno == EINTR) return 0;  // retried on the next flush
  return -1;
}

void FrameQueue::push(std::span<const std::uint8_t> frame) {
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  ends_.push_back(bytes_.size());
}

int FrameQueue::flush(int fd) {
  while (sent_ < ends_.size()) {
    // The longest run of whole frames that fits in one datagram, and at
    // least one frame.
    const std::size_t begin = sent_ == 0 ? 0 : ends_[sent_ - 1];
    std::size_t last = sent_ + 1;
    while (last < ends_.size() && ends_[last] - begin <= kMaxDatagramBytes)
      ++last;
    const int rc = try_send_frame(
        fd, std::span<const std::uint8_t>(bytes_).subspan(
                begin, ends_[last - 1] - begin));
    if (rc <= 0) return rc;
    sent_ = last;
  }
  clear();
  return 1;
}

bool FrameQueue::flush_blocking(int fd, int timeout_ms) {
  Clock::time_point deadline{};  // set by the first wait
  for (bool waited = false;;) {
    const int rc = flush(fd);
    if (rc != 0) return rc > 0;
    if (!waited) deadline = deadline_after(timeout_ms);
    waited = true;
    if (poll_until(fd, POLLOUT, deadline) <= 0) return false;
  }
}

void TimedReceiver::Unmap::operator()(std::uint8_t* area) const {
  ::munmap(area, kMaxFrameBytes);
}

TimedReceiver::TimedReceiver(int fd, int timeout_ms)
    : fd_(fd), timeout_(std::chrono::milliseconds(timeout_ms)) {
  RDTGC_EXPECTS(fd >= 0 && timeout_ms > 0);
  // As large as the largest frame: the kernel drops what a recv cannot take.
  void* const area = ::mmap(nullptr, kMaxFrameBytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (area == MAP_FAILED) throw std::bad_alloc();
  area_.reset(static_cast<std::uint8_t*>(area));
  const bool armed = arm(timeout_);
  RDTGC_EXPECTS(armed);  // `fd` is a socket
}

bool TimedReceiver::arm(std::chrono::microseconds timeout) {
  // A zero timeval would mean "no timeout": never pass less than 1 us.
  const auto us = std::max<std::int64_t>(1, timeout.count());
  const timeval tv{static_cast<time_t>(us / 1000000),
                   static_cast<suseconds_t>(us % 1000000)};
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    return false;
  armed_ = std::chrono::microseconds(us);
  return true;
}

void TimedReceiver::take() {
  const std::span<const std::uint8_t> rest(area_.get() + next_, end_ - next_);
  frame_ = rest.first(first_frame_bytes(rest));
  next_ += frame_.size();
}

RecvStatus TimedReceiver::recv(Clock::time_point deadline) {
  if (pending()) {
    take();
    return RecvStatus::kFrame;
  }
  for (bool woke_early = false;;) {
    const auto left = std::chrono::ceil<std::chrono::microseconds>(
        deadline - Clock::now());
    const bool expired = left <= std::chrono::microseconds::zero();
    // SO_RCVTIMEO counts kernel ticks: a timeout within a tick of what is
    // left already ends the wait on time.  Shorten it when the deadline is
    // nearer; lengthen it only once a short timeout ended a wait early.
    if (!expired && (armed_ - left > kernel_tick() ||
                     (woke_early && left - armed_ > kernel_tick())) &&
        !arm(left)) {
      return RecvStatus::kError;
    }
    const ssize_t n =
        ::recv(fd_, area_.get(), kMaxFrameBytes, expired ? MSG_DONTWAIT : 0);
    if (n > 0) {
      next_ = 0;
      end_ = static_cast<std::size_t>(n);
      take();
      return RecvStatus::kFrame;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return RecvStatus::kError;
    if (expired) return RecvStatus::kTimeout;
    woke_early = true;  // a signal, or the tick-granular timeout: look again
  }
}

UdsTransport::UdsTransport(int fd, ProcessId self, std::uint32_t incarnation)
    : fd_(fd), self_(self), incarnation_(incarnation) {
  RDTGC_EXPECTS(fd >= 0 && self >= 0);
}

void UdsTransport::connect(ProcessId p, DeliveryFn sink) {
  RDTGC_EXPECTS(p == self_);  // a worker endpoint serves exactly its process
  RDTGC_EXPECTS(sink != nullptr);
  RDTGC_EXPECTS(sink_ == nullptr);
  sink_ = std::move(sink);
}

void UdsTransport::disconnect(ProcessId p) {
  RDTGC_EXPECTS(p == self_);
  sink_ = nullptr;
}

sim::MessageId UdsTransport::send(sim::Message m) {
  RDTGC_EXPECTS(m.src == self_ && m.dst >= 0 && m.dst != self_);
  data_scratch_.send_interval = m.send_interval;
  data_scratch_.bytes = m.bytes;
  data_scratch_.dv.assign(m.dv.entries().begin(), m.dv.entries().end());
  data_scratch_.control.assign(m.control.begin(), m.control.end());
  FrameMeta meta;
  meta.src = self_;
  meta.dst = m.dst;
  meta.incarnation = incarnation_;
  meta.seq = next_seq();
  encode_data(scratch_, meta, data_scratch_);
  enqueue_frame(scratch_);  // leaves once the worker loop flushes
  // A bare message is named by its Data frame's seq: nonzero and unique
  // within this incarnation.
  const sim::MessageId id = m.id != 0 ? m.id : meta.seq;
  recycled_ = std::move(m);  // hand the DV buffer back to the next sender
  return id;
}

sim::Message UdsTransport::make_message() {
  sim::Message m;
  m.dv = std::move(recycled_.dv);
  m.control = std::move(recycled_.control);
  m.control.clear();  // capacity survives; stale words must not
  return m;
}

void UdsTransport::deliver(sim::Message m) {
  RDTGC_EXPECTS(sink_ != nullptr && m.dst == self_);
  sink_(m);
  recycled_ = std::move(m);
}

}  // namespace rdtgc::transport
