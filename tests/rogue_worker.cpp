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
//   short-recv-ack      RecvAck DV one entry short
//   forced-ack-lineage  RecvAck claiming a forced checkpoint five intervals
//                       past the receiver's lineage
//   short-checkpoint    Checkpoint DV one entry short
//   phantom-recv-ack    RecvAck naming a seq the parent never routed to it
//   extra-cmd-done      a CmdDone after its Data reply, as wire v3 sent
//
// Every other frame is honest enough for the parent to accept: the worker
// starts at s^0 in interval 1, receives without merging, and answers each
// frame with one (wire v4): SendApp with a Data frame, Checkpoint with a
// Checkpoint frame, Quiesce with CmdDone, Shutdown with State.
#include <cstdint>
#include <cstdlib>
#include <limits>
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
  encode_hello(out, meta(-1), hello);
  if (!send()) return 6;

  WireBuffer in;
  DecodedFrame frame;
  for (;;) {
    if (recv_frame(fd.get(), in, 30000) != RecvStatus::kFrame) return 4;
    if (decode_frame(in, frame) != WireError::kOk) return 5;
    if (frame.header.kind() == FrameKind::kData) {
      RecvAckBody ack;
      ack.msg_src = frame.header.src;
      ack.msg_incarnation = frame.header.incarnation;
      ack.msg_seq = frame.header.seq + (mode == "phantom-recv-ack" ? 1000 : 0);
      ack.recv_interval = interval;
      ack.dv_after = mode == "short-recv-ack" ? short_dv() : dv;
      if (mode == "forced-ack-lineage") {
        ack.forced = 1;
        ack.recv_interval = interval + 5;
      }
      encode_recv_ack(out, meta(-1), ack);
      if (!send()) return 6;
      continue;
    }
    if (frame.header.kind() != FrameKind::kCmd) return 5;
    const CmdBody& cmd = frame.cmd;
    switch (static_cast<CmdOp>(cmd.op)) {
      case CmdOp::kSendApp: {
        DataBody data;
        data.send_interval = interval;
        data.bytes = cmd.param;
        data.dv = dv;
        encode_data(out, meta(cmd.target), data);
        if (!send()) return 6;
        if (mode != "extra-cmd-done") continue;
        CmdDoneBody done;
        done.op = cmd.op;
        done.cmd_seq = frame.header.seq;
        encode_cmd_done(out, meta(-1), done);
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
        return send() ? 0 : 6;
      }
      default:
        return 5;
    }
    if (!send()) return 6;
  }
}
