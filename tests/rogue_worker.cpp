// A fleet worker that speaks the wire protocol but lies in one frame, for
// the rogue-worker cases of transport_test: the parent must fail the run
// with an error naming the frame kind, never act on the frame.
//
// The argv is rdtgc_proc's (socket path, process id, process count,
// incarnation, ...; only the first four are read).  RDTGC_ROGUE_MODE picks
// the lie:
//
//   short-hello         Hello DV one entry short
//   huge-hello-index    Hello claiming last checkpoint index 2^31 - 1
//   bundled-hello       Hello sent twice in one datagram
//   hello-own-entry     Hello whose own DV entry is not its last checkpoint
//                       index + 1 (Equation 3)
//   short-recv-ack      RecvAck DV one entry short
//   forced-ack-lineage  RecvAck claiming a forced checkpoint five intervals
//                       past the receiver's lineage
//   short-checkpoint    Checkpoint DV one entry short
//   data-send-interval  Data frame claiming a send interval one past the
//                       sender's current one
//   phantom-recv-ack    RecvAck naming a seq the parent never routed to it
//   extra-cmd-done      a CmdDone after its Data reply, in a datagram of
//                       its own, as wire v3 sent
//   torn-bundle         a reply datagram to a request of two or more frames
//                       that ends inside its last frame
//   extra-reply         every reply datagram repeats its last reply: one
//                       reply more than the request had frames
//
// Every other frame is honest enough for the parent to accept: the worker
// starts at s^0 in interval 1, receives without merging, and answers each
// request datagram with one datagram (wire v5) holding one reply per
// frame: SendApp with a Data frame, Checkpoint with a Checkpoint frame,
// Quiesce with CmdDone, Shutdown with State.
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "transport/uds.hpp"
#include "transport/wire.hpp"

using namespace rdtgc;
using namespace rdtgc::transport;

int main(int argc, char** argv) {
  if (argc < 5) return 2;
  const auto self = static_cast<ProcessId>(std::atoi(argv[2]));
  const auto n = static_cast<std::size_t>(std::strtoul(argv[3], nullptr, 10));
  const auto incarnation =
      static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  const char* env = std::getenv("RDTGC_ROGUE_MODE");
  const std::string mode = env != nullptr ? env : "";
  if (self < 0 || static_cast<std::size_t>(self) >= n) return 2;

  Fd fd = uds_connect(argv[1]);
  if (!fd.valid()) return 2;
  std::uint64_t seq = 0;
  const auto meta = [&](ProcessId dst) {
    FrameMeta m;
    m.src = self;
    m.dst = dst;
    m.incarnation = incarnation;
    m.seq = ++seq;
    return m;
  };
  std::vector<IntervalIndex> dv(n, 0);
  dv[static_cast<std::size_t>(self)] = 1;
  IntervalIndex& interval = dv[static_cast<std::size_t>(self)];
  const auto short_dv = [&] {
    return std::vector<IntervalIndex>(dv.begin(), dv.end() - 1);
  };
  WireBuffer out;
  const auto send = [&] { return send_frame(fd.get(), out, 10000); };

  HelloBody hello;
  hello.last_index = mode == "huge-hello-index"
                         ? std::numeric_limits<CheckpointIndex>::max()
                         : 0;
  hello.dv = mode == "short-hello" ? short_dv() : dv;
  if (mode == "hello-own-entry") hello.dv[static_cast<std::size_t>(self)] = 2;
  encode_hello(out, meta(-1), hello);
  if (mode == "bundled-hello") {
    const WireBuffer again = out;
    out.insert(out.end(), again.begin(), again.end());
  }
  if (!send()) return 6;

  WireBuffer in;
  WireBuffer bundle;  // the reply datagram
  DecodedFrame frame;
  for (;;) {
    if (recv_frame(fd.get(), in, 30000) != RecvStatus::kFrame) return 4;
    bundle.clear();
    std::size_t frames = 0;
    bool shutdown = false;
    WireBuffer stray_done;  // extra-cmd-done: sent after the bundle
    for (std::span<const std::uint8_t> rest(in); !rest.empty(); ++frames) {
      const std::size_t size = first_frame_bytes(rest);
      if (decode_frame(rest.first(size), frame) != WireError::kOk) return 5;
      rest = rest.subspan(size);
      if (shutdown) return 5;  // nothing follows a Shutdown
      if (frame.header.kind() == FrameKind::kData) {
        RecvAckBody ack;
        ack.msg_src = frame.header.src;
        ack.msg_incarnation = frame.header.incarnation;
        ack.msg_seq =
            frame.header.seq + (mode == "phantom-recv-ack" ? 1000 : 0);
        ack.recv_interval = interval;
        ack.dv_after = mode == "short-recv-ack" ? short_dv() : dv;
        if (mode == "forced-ack-lineage") {
          ack.forced = 1;
          ack.recv_interval = interval + 5;
        }
        encode_recv_ack(out, meta(-1), ack);
      } else if (frame.header.kind() == FrameKind::kCmd) {
        const CmdBody& cmd = frame.cmd;
        switch (static_cast<CmdOp>(cmd.op)) {
          case CmdOp::kSendApp: {
            DataBody data;
            data.send_interval =
                interval + (mode == "data-send-interval" ? 1 : 0);
            data.bytes = cmd.param;
            data.dv = dv;
            encode_data(out, meta(cmd.target), data);
            if (mode == "extra-cmd-done") {
              CmdDoneBody done;
              done.op = cmd.op;
              done.cmd_seq = frame.header.seq;
              encode_cmd_done(stray_done, meta(-1), done);
            }
            break;
          }
          case CmdOp::kCheckpoint: {
            CheckpointBody ckpt;
            ckpt.index = interval;
            ckpt.dv = mode == "short-checkpoint" ? short_dv() : dv;
            encode_checkpoint(out, meta(-1), ckpt);
            ++interval;
            break;
          }
          case CmdOp::kQuiesce: {
            CmdDoneBody done;
            done.op = cmd.op;
            done.cmd_seq = frame.header.seq;
            encode_cmd_done(out, meta(-1), done);
            break;
          }
          case CmdOp::kShutdown: {
            StateBody state;
            state.last_index = interval - 1;
            state.dv = dv;
            encode_state(out, meta(-1), state);
            shutdown = true;
            break;
          }
          default:
            return 5;
        }
      } else {
        return 5;
      }
      bundle.insert(bundle.end(), out.begin(), out.end());
    }
    if (mode == "torn-bundle" && frames >= 2) bundle.resize(bundle.size() - 3);
    // `out` still holds the datagram's last reply.
    if (mode == "extra-reply")
      bundle.insert(bundle.end(), out.begin(), out.end());
    if (!send_frame(fd.get(), bundle, 10000)) return 6;
    if (!stray_done.empty() && !send_frame(fd.get(), stray_done, 10000))
      return 6;
    if (shutdown) return 0;
  }
}
