// Receive/send contract of the SOCK_SEQPACKET helpers (transport/uds.hpp),
// driven over a socketpair so no fleet or worker binary is involved:
//  * every datagram comes back byte-exact with buf.size() equal to its
//    size, large and small frames interleaved;
//  * the caller's buffer grows only to the frames it actually received —
//    never to kMaxFrameBytes;
//  * timeout 0 never waits, a positive timeout waits for a late frame, and
//    frames queued before the peer closed all arrive before kClosed;
//  * send_frame gives up on a full socket at its deadline and on a closed
//    peer at once.
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rdtgc::transport
