// Versioned wire format of the socket transport.
//
// A frame is a fixed 32-byte little-endian header followed by a
// kind-specific payload.  One SOCK_SEQPACKET datagram carries one or more
// whole frames back to back, each delimited by its header's length, so a
// receiver splits a datagram by walking the length fields
// (first_frame_bytes); a frame is never split across datagrams, and a torn,
// truncated or padded frame is caught by decode_frame's length check.
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//        0     4  magic          0x52445447 ("RDTG")
//        4     4  length         total frame bytes, header included
//        8     2  version        kWireVersion (reject anything else)
//       10     2  kind           FrameKind
//       12     4  src            sending process id (-1: the fleet parent)
//       16     4  dst            destination process id (-1: the parent)
//       20     4  incarnation    sender's incarnation (0 = first spawn)
//       24     8  seq            per-sender frame sequence, 1-based
//
// Payloads serialize integers little-endian at fixed widths and dependency
// vectors as a u32 entry count followed by the i32 entries.  Decoding never
// trusts the input: every read is bounds-checked, lengths are validated
// against kMaxFrameBytes and kMaxWireProcesses, and the decoder consumes the
// payload exactly (trailing bytes are an error) — the fuzz property tests
// in tests/wire_test.cpp feed truncated/overlong/bit-flipped frames under
// ASan/UBSan and expect a clean WireError, never UB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "causality/types.hpp"
#include "sim/message.hpp"

namespace rdtgc::transport {

inline constexpr std::uint32_t kWireMagic = 0x52445447;  // "RDTG"
/// The only version written and accepted.  v2 added the recovery-session
/// frames (kRecoveryStart / kRolledBack); v3 appends the checkpointing
/// protocol's piggybacked control words to Data (sim::Message::control — the
/// logical-clock CIC family rides its timestamps there); v4 made the
/// parent-worker exchange strict request/reply, each frame the parent sends
/// answered by exactly one frame; v5 carries that exchange in one datagram
/// each way: the parent sends a worker every frame queued for it in one
/// datagram, and the worker answers with one datagram holding one reply
/// per frame, in the order of the frames they answer:
///
///   frame in the       its reply in the
///   request datagram   reply datagram
///   ----------------   ----------------
///   Cmd SendApp        its Data frame
///   Cmd Checkpoint     its Checkpoint frame
///   Cmd Quiesce        CmdDone
///   Cmd Shutdown       State (then it exits)
///   Data               RecvAck
///   RecoveryStart      RolledBack
///
/// Frames that outgrow kMaxDatagramBytes leave in several datagrams, split
/// between frames, on either side; the worker answers each request
/// datagram before it reads the next.  Hello, sent alone once on connect,
/// is the only frame no request asks for.  Frames are IPC between the
/// binaries of one build and are never persisted, so no older sender exists
/// and any other version is kBadVersion.
inline constexpr std::uint16_t kWireVersion = 5;
inline constexpr std::size_t kWireHeaderBytes = 32;
/// Upper bound on one frame; a 4096-process State frame fits comfortably.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;
/// Frames are packed into one datagram up to this many bytes; a single
/// frame larger than it travels alone.  The cap must stay below the
/// sender's SO_SNDBUF: a SOCK_SEQPACKET send longer than that buffer less
/// 32 bytes fails with EMSGSIZE, which the parent reports by name rather
/// than as a dead worker.  Nothing here sets the buffer: Linux sizes it
/// from net.core.wmem_default, 212992 bytes by default, which would take a
/// 64 KiB datagram even cut to a third.  A fleet call's datagram holds a
/// few frames of some hundred bytes, so the cap only splits long queues,
/// such as those to a stopped worker.
inline constexpr std::size_t kMaxDatagramBytes = 64 << 10;
/// Upper bound on serialized DV width / stored-index lists.
inline constexpr std::size_t kMaxWireProcesses = 4096;
/// Upper bound on piggybacked protocol control words per Data frame (the
/// widest protocol, FINE, needs process_count + 1).
inline constexpr std::size_t kMaxControlWords = 2 * kMaxWireProcesses;

enum class FrameKind : std::uint16_t {
  kHello = 1,       ///< worker -> parent: (re)joined, recovered state digest
  kData = 2,        ///< application message, DV piggybacked
  kRecvAck = 3,     ///< worker -> parent: delivery record for the event log
  kCheckpoint = 4,  ///< worker -> parent: basic checkpoint record
  kCmd = 5,         ///< parent -> worker: workload command
  kCmdDone = 6,     ///< worker -> parent: Quiesce acknowledged
  kState = 7,       ///< worker -> parent: final state digest (at shutdown)
  kRecoveryStart = 8,  ///< parent -> worker: recovery session (line + LI)
  kRolledBack = 9,     ///< worker -> parent: session ack + post-state digest
};

enum class WireError : std::uint8_t {
  kOk = 0,
  kTooShort,    ///< fewer bytes than one header
  kBadMagic,
  kBadVersion,
  kBadLength,   ///< header length != actual bytes, or > kMaxFrameBytes
  kBadKind,
  kTruncated,   ///< payload ended inside a field
  kTrailing,    ///< payload longer than its kind's encoding
  kOverlong,    ///< a count field exceeds kMaxWireProcesses
};

const char* wire_error_name(WireError e);

struct FrameHeader {
  std::uint16_t kind_raw = 0;
  ProcessId src = -1;
  ProcessId dst = -1;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;

  FrameKind kind() const { return static_cast<FrameKind>(kind_raw); }
};

// ---- Typed payloads -------------------------------------------------------

/// Worker joined (incarnation 0: fresh, s^0 just stored) or re-attached
/// (incarnation > 0: recovered from its media).  last_index/dv digest the
/// recovered state so the replay oracle can assert the re-attach was exact.
struct HelloBody {
  CheckpointIndex last_index = 0;
  std::vector<IntervalIndex> dv;
};

/// An application message (sim::Message on the wire).  The sender's
/// (src, incarnation, seq) triple is the cross-process message identity —
/// worker-local sim::MessageIds do not survive the socket hop.  `control`
/// carries the sending protocol's piggybacked words verbatim.
struct DataBody {
  IntervalIndex send_interval = 0;
  std::uint64_t bytes = 0;
  std::vector<IntervalIndex> dv;
  std::vector<std::uint32_t> control;
};

/// Delivery record: destination processed Data frame (msg_src,
/// msg_incarnation, msg_seq); dv_after is the receiver's vector AFTER the
/// merge, forced is 1 iff the protocol forced a checkpoint before the
/// receipt.  The replay oracle re-delivers and asserts both.
struct RecvAckBody {
  ProcessId msg_src = -1;
  std::uint32_t msg_incarnation = 0;
  std::uint64_t msg_seq = 0;
  IntervalIndex recv_interval = 0;
  std::uint8_t forced = 0;
  std::vector<IntervalIndex> dv_after;
};

/// Basic checkpoint stored by the worker (forced ones ride on RecvAck).
struct CheckpointBody {
  CheckpointIndex index = 0;
  std::uint8_t kind = 0;  ///< ccp::CheckpointKind as u8
  std::vector<IntervalIndex> dv;
};

enum class CmdOp : std::uint8_t {
  kSendApp = 1,     ///< send an application message to `target`, `param` bytes
  kCheckpoint = 2,  ///< take a basic checkpoint
  kQuiesce = 3,     ///< flush everything, then ack (pre-SIGKILL drain)
  kShutdown = 4,    ///< emit State, flush, exit(0)
};

struct CmdBody {
  std::uint8_t op = 0;  ///< CmdOp as u8
  ProcessId target = -1;
  std::uint64_t param = 0;
};

struct CmdDoneBody {
  std::uint8_t op = 0;       ///< echoed CmdOp
  std::uint64_t cmd_seq = 0; ///< seq of the Cmd frame this completes
};

/// Final state digest, emitted on kShutdown: enough to assert the replay
/// node bit-identical (DV, lineage position, counters, stored-index set).
struct StateBody {
  CheckpointIndex last_index = 0;
  std::uint64_t basic = 0;
  std::uint64_t forced = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t rollbacks = 0;
  std::vector<IntervalIndex> dv;
  std::vector<CheckpointIndex> stored;
};

/// Recovery session start (parent -> every live worker).  `line` is the
/// Lemma-1 recovery line over all processes and `li` the Algorithm-3 LI
/// vector derived from it (LI[j] = line[j]+1 when j rolls back a stable
/// checkpoint, line[j] otherwise).  The receiver picks line[self]: if it is
/// <= its last stored index it rolls back to that checkpoint, otherwise it
/// keeps its volatile state and runs peer recovery.  Re-sending the same
/// session (same or later attempt) is idempotent.
struct RecoveryStartBody {
  std::uint64_t session = 0;   ///< fleet-unique session id
  std::uint32_t attempt = 0;   ///< restart counter within the session
  std::vector<IntervalIndex> li;
  std::vector<IntervalIndex> line;
};

/// Session ack (worker -> parent): the worker applied the session frame.
/// `rolled` is 1 iff it executed a targeted rollback (vs. peer recovery);
/// the digest fields let the parent log and the replay oracle certify the
/// post-session state bit-exactly.
struct RolledBackBody {
  std::uint64_t session = 0;
  std::uint32_t attempt = 0;
  std::uint8_t rolled = 0;
  CheckpointIndex last_index = 0;
  std::vector<IntervalIndex> dv;
  std::vector<CheckpointIndex> stored;
};

/// One decoded frame: `header` plus exactly the body matching
/// header.kind() filled in.  Reused across decodes — the body vectors keep
/// their capacity, so steady-state decoding performs no heap allocation.
struct DecodedFrame {
  FrameHeader header;
  HelloBody hello;
  DataBody data;
  RecvAckBody recv_ack;
  CheckpointBody checkpoint;
  CmdBody cmd;
  CmdDoneBody cmd_done;
  StateBody state;
  RecoveryStartBody recovery_start;
  RolledBackBody rolled_back;
};

// ---- Encode / decode ------------------------------------------------------

using WireBuffer = std::vector<std::uint8_t>;

/// Routing fields shared by every frame.
struct FrameMeta {
  ProcessId src = -1;
  ProcessId dst = -1;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;
};

/// Each encoder clears `out` and writes one complete frame into it (the
/// buffer's capacity is reused across calls — the send path allocates only
/// until the high-water frame size is reached).
void encode_hello(WireBuffer& out, const FrameMeta& meta, const HelloBody& b);
void encode_data(WireBuffer& out, const FrameMeta& meta, const DataBody& b);
void encode_recv_ack(WireBuffer& out, const FrameMeta& meta,
                     const RecvAckBody& b);
void encode_checkpoint(WireBuffer& out, const FrameMeta& meta,
                       const CheckpointBody& b);
void encode_cmd(WireBuffer& out, const FrameMeta& meta, const CmdBody& b);
void encode_cmd_done(WireBuffer& out, const FrameMeta& meta,
                     const CmdDoneBody& b);
void encode_state(WireBuffer& out, const FrameMeta& meta, const StateBody& b);
void encode_recovery_start(WireBuffer& out, const FrameMeta& meta,
                           const RecoveryStartBody& b);
void encode_rolled_back(WireBuffer& out, const FrameMeta& meta,
                        const RolledBackBody& b);

/// Decode one frame.  On kOk, `out.header` and the body matching its kind
/// are filled; on any error `out` is unspecified but never touched out of
/// bounds.  Never throws, never reads past `bytes`.
WireError decode_frame(std::span<const std::uint8_t> bytes, DecodedFrame& out);

/// The size of the first frame of `datagram` (the unread rest of a
/// datagram): its header's length when the rest holds a whole header and
/// that many bytes, otherwise all of `datagram`, which decode_frame then
/// rejects by name.  Nonzero unless `datagram` is empty; reads nothing but
/// the length field.
std::size_t first_frame_bytes(std::span<const std::uint8_t> datagram);

}  // namespace rdtgc::transport
