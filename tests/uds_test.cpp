// Receive/send contract of the SOCK_SEQPACKET helpers (transport/uds.hpp),
// driven over a socketpair so no fleet or worker binary is involved:
//  * every datagram comes back byte-exact with buf.size() equal to its
//    size, large and small frames interleaved;
//  * the caller's buffer grows only to the frames it actually received —
//    never to kMaxFrameBytes;
//  * timeout 0 never waits, a positive timeout waits for a late frame, and
//    frames queued before the peer closed all arrive before kClosed;
//  * send_frame gives up on a full socket at its deadline and on a closed
//    peer at once;
//  * a FrameQueue flush packs whole frames, in push order, into one
//    datagram, or into several of at most kMaxDatagramBytes split between
//    frames (a larger frame alone), and under backpressure leaves the
//    unsent tail queued, in order;
//  * TimedReceiver hands out a datagram's frames one per call, whole and in
//    order, and the frames it has not handed out yet survive another
//    receiver's receive and the peer's close;
//  * TimedReceiver returns queued frames first (even past a deadline),
//    kTimeout at its deadline and kClosed once the peer closed;
//  * UdsTransport::send names a bare message with a nonzero id unique
//    within the incarnation, and returns a preset id unchanged;
//  * a wait keeps its deadline while signals keep interrupting it.
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "causality/dependency_vector.hpp"
#include "sim/message.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {
namespace {

struct SocketPair {
  Fd tx;
  Fd rx;
};

SocketPair seqpacket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds), 0);
  return {Fd(fds[0]), Fd(fds[1])};
}

/// `size` bytes of a position- and seed-dependent pattern.
WireBuffer pattern(std::size_t size, std::uint8_t seed) {
  WireBuffer frame(size);
  for (std::size_t i = 0; i < size; ++i)
    frame[i] = static_cast<std::uint8_t>(i * 7 + seed);
  return frame;
}

constexpr int kWaitMs = 5000;

TEST(UdsRecv, LargeThenSmallFramesComeBackExact) {
  SocketPair s = seqpacket_pair();
  const std::vector<WireBuffer> frames = {
      pattern(64 * 1024, 1), pattern(68, 2), pattern(1, 3), pattern(4096, 4),
      pattern(32, 5)};
  for (const WireBuffer& frame : frames)
    ASSERT_TRUE(send_frame(s.tx.get(), frame, kWaitMs));
  WireBuffer buf;
  for (const WireBuffer& frame : frames) {
    ASSERT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kFrame);
    EXPECT_EQ(buf.size(), frame.size());
    EXPECT_EQ(buf, frame);
  }
}

TEST(UdsRecv, SmallFramesKeepTheBufferSmall) {
  SocketPair s = seqpacket_pair();
  WireBuffer buf;
  for (int i = 0; i < 100; ++i) {
    const WireBuffer frame = pattern(68 + static_cast<std::size_t>(i % 5),
                                     static_cast<std::uint8_t>(i));
    ASSERT_TRUE(send_frame(s.tx.get(), frame, kWaitMs));
    ASSERT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kFrame);
    ASSERT_EQ(buf, frame);
  }
  // The buffer holds what was received; the largest-frame staging area is
  // the receiver's own.
  EXPECT_LT(buf.capacity(), kMaxFrameBytes / 256);
}

TEST(UdsRecv, ZeroTimeoutOnAnEmptySocketDoesNotWait) {
  SocketPair s = seqpacket_pair();
  WireBuffer buf = pattern(10, 9);
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kTimeout);
  // Draining stops at the first empty read, after every queued frame.
  ASSERT_TRUE(send_frame(s.tx.get(), pattern(20, 1), kWaitMs));
  ASSERT_TRUE(send_frame(s.tx.get(), pattern(30, 2), kWaitMs));
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kFrame);
  EXPECT_EQ(buf, pattern(20, 1));
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kFrame);
  EXPECT_EQ(buf, pattern(30, 2));
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kTimeout);
}

TEST(UdsRecv, PositiveTimeoutExpiresOrWaitsForALateFrame) {
  SocketPair s = seqpacket_pair();
  WireBuffer buf;
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 20), RecvStatus::kTimeout);

  const WireBuffer late = pattern(100, 3);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(send_frame(s.tx.get(), late, kWaitMs));
  });
  EXPECT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kFrame);
  sender.join();
  EXPECT_EQ(buf, late);
}

TEST(UdsRecv, QueuedFramesArriveBeforeClosed) {
  SocketPair s = seqpacket_pair();
  std::vector<WireBuffer> frames;
  for (int i = 0; i < 8; ++i)
    frames.push_back(pattern(40 + static_cast<std::size_t>(i) * 100,
                             static_cast<std::uint8_t>(i)));
  for (const WireBuffer& frame : frames)
    ASSERT_TRUE(send_frame(s.tx.get(), frame, kWaitMs));
  s.tx.reset();
  WireBuffer buf;
  for (const WireBuffer& frame : frames) {
    ASSERT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kFrame);
    EXPECT_EQ(buf, frame);
  }
  EXPECT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kClosed);
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kClosed);
}

TEST(UdsSend, FullSocketMissesTheDeadlineAndClosedPeerFails) {
  SocketPair s = seqpacket_pair();
  const WireBuffer frame = pattern(4096, 6);
  int queued = 0;
  while (try_send_frame(s.tx.get(), frame) == 1) ++queued;
  ASSERT_GT(queued, 0);
  EXPECT_FALSE(send_frame(s.tx.get(), frame, 20));

  // Draining one frame makes room again.
  WireBuffer buf;
  ASSERT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kFrame);
  EXPECT_TRUE(send_frame(s.tx.get(), frame, kWaitMs));

  s.rx.reset();
  EXPECT_EQ(try_send_frame(s.tx.get(), frame), -1);
  EXPECT_FALSE(send_frame(s.tx.get(), frame, kWaitMs));
}

// ---- Queued frames --------------------------------------------------------

/// Frame i of a test stream: `size` (>= kWireHeaderBytes) bytes of a
/// pattern, with the header length receivers split datagrams by and its
/// index in the seq field.
WireBuffer numbered(std::uint32_t i, std::size_t size) {
  WireBuffer frame = pattern(size, static_cast<std::uint8_t>(i));
  for (std::size_t b = 0; b < 4; ++b) {
    frame[4 + b] = static_cast<std::uint8_t>(size >> (8 * b));
    frame[24 + b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return frame;
}

/// Splits the datagram `buf` into its frames and checks each against
/// numbered(next++, size_of(next)).
template <typename SizeOf>
void expect_numbered_frames(const WireBuffer& buf, std::uint32_t& next,
                            SizeOf size_of) {
  for (std::span<const std::uint8_t> rest(buf); !rest.empty(); ++next) {
    const auto frame = rest.first(first_frame_bytes(rest));
    ASSERT_EQ(WireBuffer(frame.begin(), frame.end()),
              numbered(next, size_of(next)))
        << "frame " << next;
    rest = rest.subspan(frame.size());
  }
}

TEST(UdsFrameQueue, FlushKeepsOrderAndBoundaries) {
  SocketPair s = seqpacket_pair();
  // 41 frames from a bare header to about 1.5 KiB: 31 KiB in all.
  std::vector<WireBuffer> frames;
  for (std::uint32_t i = 0; i < 41; ++i)
    frames.push_back(numbered(i, kWireHeaderBytes + (i * 977) % 1500));
  FrameQueue queue;
  for (const WireBuffer& frame : frames) queue.push(frame);
  EXPECT_EQ(queue.size(), frames.size());
  ASSERT_EQ(queue.flush(s.tx.get()), 1);
  EXPECT_TRUE(queue.empty());
  // One datagram: the receiver hands its frames out whole, in push order,
  // with more of the same datagram pending until the last.
  TimedReceiver rx(s.rx.get(), kWaitMs);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(rx.recv(), RecvStatus::kFrame);
    EXPECT_EQ(WireBuffer(rx.frame().begin(), rx.frame().end()), frames[i]);
    EXPECT_EQ(rx.pending(), i + 1 < frames.size()) << "frame " << i;
  }
  EXPECT_EQ(rx.recv(TimedReceiver::Clock::now()), RecvStatus::kTimeout);
  // An empty queue flushes without a syscall, even on a dead socket.
  s.rx.reset();
  EXPECT_EQ(queue.flush(s.tx.get()), 1);
  queue.push(frames[0]);
  EXPECT_EQ(queue.flush(s.tx.get()), -1);
}

TEST(UdsFrameQueue, LongQueueLeavesInDatagramsOfWholeFrames) {
  SocketPair s = seqpacket_pair();
  // 70 frames of 1000 bytes, one of 66000 (more than a datagram holds on
  // its own), then 10 of 1000: packed greedily in push order, they leave as
  // [65 frames] [5 frames] [the large one] [10 frames].
  const auto size_of = [](std::uint32_t i) -> std::size_t {
    return i == 70 ? 66000 : 1000;
  };
  FrameQueue queue;
  for (std::uint32_t i = 0; i < 81; ++i) queue.push(numbered(i, size_of(i)));
  ASSERT_EQ(queue.flush(s.tx.get()), 1);
  WireBuffer buf;
  std::uint32_t next = 0;
  for (const std::uint32_t count : {65u, 5u, 1u, 10u}) {
    ASSERT_EQ(recv_frame(s.rx.get(), buf, kWaitMs), RecvStatus::kFrame);
    const std::uint32_t first = next;
    expect_numbered_frames(buf, next, size_of);
    EXPECT_EQ(next - first, count);
    EXPECT_TRUE(count == 1 || buf.size() <= kMaxDatagramBytes)
        << buf.size() << " bytes";
  }
  EXPECT_EQ(next, 81u);
  EXPECT_EQ(recv_frame(s.rx.get(), buf, 0), RecvStatus::kTimeout);
}

// A datagram longer than the sender's SO_SNDBUF allows is refused with
// EMSGSIZE, a reason of its own (the fleet reports it as such, not as a
// dead worker): flush() says -1, errno names it, and every frame stays
// queued.
TEST(UdsFrameQueue, DatagramOverTheSendBufferIsRefusedWithEmsgsize) {
  SocketPair s = seqpacket_pair();
  const int asked = 4096;  // the kernel doubles it, up to its minimum
  ASSERT_EQ(::setsockopt(s.tx.get(), SOL_SOCKET, SO_SNDBUF, &asked,
                         sizeof asked),
            0);
  int sndbuf = 0;
  socklen_t len = sizeof sndbuf;
  ASSERT_EQ(
      ::getsockopt(s.tx.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  ASSERT_LT(static_cast<std::size_t>(sndbuf), kMaxDatagramBytes);
  // Whole frames of 1000 bytes, more in all than the buffer holds.
  const auto count = static_cast<std::uint32_t>(sndbuf / 1000 + 1);
  FrameQueue queue;
  for (std::uint32_t i = 0; i < count; ++i) queue.push(numbered(i, 1000));
  errno = 0;
  EXPECT_EQ(queue.flush(s.tx.get()), -1);
  EXPECT_EQ(errno, EMSGSIZE);
  EXPECT_EQ(queue.size(), count);
}

TEST(UdsFrameQueue, BackpressureLeavesTheUnsentTailQueuedInOrder) {
  SocketPair s = seqpacket_pair();
  constexpr std::uint32_t kFrames = 2000;  // far more than the socket holds
  const auto size_of = [](std::uint32_t) -> std::size_t { return 4096; };
  FrameQueue queue;
  for (std::uint32_t i = 0; i < kFrames; ++i)
    queue.push(numbered(i, size_of(i)));
  ASSERT_EQ(queue.flush(s.tx.get()), 0);
  ASSERT_GT(queue.size(), 0u);
  ASSERT_LT(queue.size(), kFrames);

  // Alternate draining the receiver and flushing the rest: every frame
  // arrives once, whole, in push order, 16 to a full datagram.
  WireBuffer buf;
  std::uint32_t next = 0;
  int rounds = 0;
  while (next < kFrames) {
    ASSERT_LT(++rounds, 10000);
    while (recv_frame(s.rx.get(), buf, 0) == RecvStatus::kFrame) {
      ASSERT_EQ(buf.size(), kMaxDatagramBytes);
      expect_numbered_frames(buf, next, size_of);
    }
    const int rc = queue.flush(s.tx.get());
    ASSERT_GE(rc, 0);
    EXPECT_EQ(rc == 1, queue.empty());
    EXPECT_LE(next + queue.size(), kFrames);
  }
  EXPECT_TRUE(queue.empty());
}

// The frames a receiver has not handed out yet lie in its own buffer: other
// receivers' receives, recv_frame's on the same thread, and the peer's
// close leave them intact.
TEST(UdsTimedReceiver, UntakenFramesSurviveOtherReceives) {
  SocketPair a = seqpacket_pair();
  SocketPair b = seqpacket_pair();
  SocketPair c = seqpacket_pair();
  const auto size_of = [](std::uint32_t i) -> std::size_t {
    return 100 + 50 * i;
  };
  FrameQueue qa;
  FrameQueue qb;
  for (std::uint32_t i = 0; i < 4; ++i) {
    qa.push(numbered(i, size_of(i)));
    qb.push(numbered(10 + i, size_of(10 + i)));
  }
  ASSERT_EQ(qa.flush(a.tx.get()), 1);
  ASSERT_EQ(qb.flush(b.tx.get()), 1);
  TimedReceiver ra(a.rx.get(), kWaitMs);
  TimedReceiver rb(b.rx.get(), kWaitMs);
  const auto take = [](TimedReceiver& rx) {
    EXPECT_EQ(rx.recv(), RecvStatus::kFrame);
    return WireBuffer(rx.frame().begin(), rx.frame().end());
  };
  EXPECT_EQ(take(ra), numbered(0, size_of(0)));
  EXPECT_EQ(take(rb), numbered(10, size_of(10)));
  a.tx.reset();
  ASSERT_TRUE(send_frame(c.tx.get(), pattern(70000, 9), kWaitMs));
  WireBuffer big;
  ASSERT_EQ(recv_frame(c.rx.get(), big, kWaitMs), RecvStatus::kFrame);
  EXPECT_EQ(big, pattern(70000, 9));
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(take(ra), numbered(i, size_of(i)));
    EXPECT_EQ(take(rb), numbered(10 + i, size_of(10 + i)));
  }
  EXPECT_FALSE(ra.pending());
  EXPECT_EQ(ra.recv(), RecvStatus::kClosed);
}

TEST(UdsTimedReceiver, QueuedFramesThenTimeoutThenClosed) {
  SocketPair s = seqpacket_pair();
  const std::vector<WireBuffer> frames = {pattern(68, 1), pattern(1, 2),
                                          pattern(70000, 3)};
  for (const WireBuffer& frame : frames)
    ASSERT_TRUE(send_frame(s.tx.get(), frame, kWaitMs));
  {
    TimedReceiver rx(s.rx.get(), 50);
    for (const WireBuffer& frame : frames) {
      ASSERT_EQ(rx.recv(), RecvStatus::kFrame);
      EXPECT_EQ(WireBuffer(rx.frame().begin(), rx.frame().end()), frame);
    }
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(rx.recv(), RecvStatus::kTimeout);
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(waited, std::chrono::milliseconds(50));
    EXPECT_LT(waited, std::chrono::milliseconds(2000));
  }

  // A frame that arrives during the wait ends it.
  TimedReceiver rx(s.rx.get(), kWaitMs);
  const WireBuffer late = pattern(100, 4);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(send_frame(s.tx.get(), late, kWaitMs));
  });
  ASSERT_EQ(rx.recv(), RecvStatus::kFrame);
  sender.join();
  EXPECT_EQ(WireBuffer(rx.frame().begin(), rx.frame().end()), late);

  ASSERT_TRUE(send_frame(s.tx.get(), pattern(30, 5), kWaitMs));
  s.tx.reset();
  ASSERT_EQ(rx.recv(), RecvStatus::kFrame);
  EXPECT_EQ(rx.frame().size(), 30u);
  EXPECT_EQ(rx.recv(), RecvStatus::kClosed);
}

// A wait given a deadline ends there, not at the armed timeout, and still
// returns a frame that is already queued once the deadline has passed.
TEST(UdsTimedReceiver, DeadlineBoundsTheWaitNotTheArmedTimeout) {
  using Clock = TimedReceiver::Clock;
  SocketPair s = seqpacket_pair();
  TimedReceiver rx(s.rx.get(), kWaitMs);
  ASSERT_TRUE(send_frame(s.tx.get(), pattern(40, 7), kWaitMs));
  EXPECT_EQ(rx.recv(Clock::now() - std::chrono::seconds(1)),
            RecvStatus::kFrame);
  EXPECT_EQ(rx.frame().size(), 40u);

  auto t0 = Clock::now();
  EXPECT_EQ(rx.recv(t0), RecvStatus::kTimeout);
  EXPECT_LT(Clock::now() - t0, std::chrono::milliseconds(50));

  // The first wait shortens the armed timeout; the second outlasts it.
  for (const int ms : {50, 120}) {
    t0 = Clock::now();
    EXPECT_EQ(rx.recv(t0 + std::chrono::milliseconds(ms)),
              RecvStatus::kTimeout);
    const auto waited = Clock::now() - t0;
    EXPECT_GE(waited, std::chrono::milliseconds(ms));
    EXPECT_LT(waited, std::chrono::milliseconds(ms + 500));
  }
}

TEST(UdsTransportIds, BareSendsGetDistinctIdsAndPresetIdsComeBack) {
  // The Transport contract: an implementation assigns the id of a bare
  // message (m.id == 0) and keeps one the caller set.  A worker's Node
  // sends bare messages, since no recorder names them.
  SocketPair s = seqpacket_pair();
  UdsTransport transport(s.tx.get(), 0, 0);
  const auto message = [&](sim::MessageId id) {
    sim::Message m = transport.make_message();
    m.id = id;
    m.src = 0;
    m.dst = 1;
    m.dv = causality::DependencyVector(2);
    return m;
  };
  const sim::MessageId first = transport.send(message(0));
  const sim::MessageId second = transport.send(message(0));
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  EXPECT_NE(first, second);
  EXPECT_EQ(transport.send(message(77)), 77u);
  EXPECT_TRUE(transport.flush_blocking(kWaitMs));
}

// ---- Deadlines under signals ---------------------------------------------

std::atomic<int> g_ticks{0};
timer_t g_timer{};

void on_tick(int) {
  if (g_ticks.fetch_add(1) + 1 >= 100) {
    const itimerspec off{};
    ::timer_settime(g_timer, 0, &off, nullptr);  // async-signal-safe
  }
}

/// SIGALRM every 5 ms at the calling thread, disarmed by its handler after
/// 100 ticks (half a second).  The handler is installed without
/// SA_RESTART, so each tick interrupts a blocking call with EINTR.
class SignalStorm {
 public:
  SignalStorm() {
    g_ticks = 0;
    struct sigaction sa{};
    sa.sa_handler = on_tick;
    sigemptyset(&sa.sa_mask);
    EXPECT_EQ(::sigaction(SIGALRM, &sa, &old_), 0);
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGALRM;
    sev._sigev_un._tid = ::gettid();
    EXPECT_EQ(::timer_create(CLOCK_MONOTONIC, &sev, &g_timer), 0);
    const timespec every{0, 5'000'000};
    const itimerspec spec{every, every};
    EXPECT_EQ(::timer_settime(g_timer, 0, &spec, nullptr), 0);
  }
  ~SignalStorm() {
    ::timer_delete(g_timer);
    ::sigaction(SIGALRM, &old_, nullptr);
  }
  SignalStorm(const SignalStorm&) = delete;
  SignalStorm& operator=(const SignalStorm&) = delete;

 private:
  struct sigaction old_{};
};

/// Runs `wait` (a 100 ms wait that must time out) under a SignalStorm and
/// returns how long it took; fails the test unless signals really landed
/// inside the wait.
template <typename Wait>
std::chrono::milliseconds time_under_signals(Wait wait) {
  SignalStorm storm;
  const auto t0 = std::chrono::steady_clock::now();
  const int ticks_before = g_ticks.load();
  wait();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(g_ticks.load() - ticks_before, 2) << "no signal hit the wait";
  return took;
}

// Signals every 5 ms for half a second: a wait that restarted its full
// timeout after each one would end about 100 ms after the last signal,
// near 600 ms, instead of at its own 100 ms deadline.
TEST(UdsDeadline, RecvFrameKeepsItsDeadlineUnderSignals) {
  SocketPair s = seqpacket_pair();
  WireBuffer buf;
  const auto took = time_under_signals([&] {
    EXPECT_EQ(recv_frame(s.rx.get(), buf, 100), RecvStatus::kTimeout);
  });
  EXPECT_GE(took, std::chrono::milliseconds(95));
  EXPECT_LT(took, std::chrono::milliseconds(300));
}

TEST(UdsDeadline, WorkerReceiveKeepsItsDeadlineUnderSignals) {
  SocketPair s = seqpacket_pair();
  TimedReceiver rx(s.rx.get(), 100);
  // kTimeout only once the deadline has passed on the steady clock, even
  // where SO_RCVTIMEO's tick-granular wait ends early.
  const auto took = time_under_signals(
      [&] { EXPECT_EQ(rx.recv(), RecvStatus::kTimeout); });
  EXPECT_GE(took, std::chrono::milliseconds(100));
  EXPECT_LT(took, std::chrono::milliseconds(300));
  // The shortened SO_RCVTIMEO was restored: the next wait is a full one.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rx.recv(), RecvStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
}

TEST(UdsDeadline, SendFrameOnAFullSocketKeepsItsDeadlineUnderSignals) {
  SocketPair s = seqpacket_pair();
  const WireBuffer frame = pattern(4096, 6);
  while (try_send_frame(s.tx.get(), frame) == 1) {
  }
  const auto took = time_under_signals(
      [&] { EXPECT_FALSE(send_frame(s.tx.get(), frame, 100)); });
  EXPECT_GE(took, std::chrono::milliseconds(95));
  EXPECT_LT(took, std::chrono::milliseconds(300));
}

}  // namespace
}  // namespace rdtgc::transport
