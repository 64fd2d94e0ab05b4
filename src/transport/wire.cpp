#include "transport/wire.hpp"

#include <cstring>

namespace rdtgc::transport {

namespace {

// ---- Little-endian primitives --------------------------------------------

void put_u8(WireBuffer& out, std::uint8_t v) { out.push_back(v); }

void put_u16(WireBuffer& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(WireBuffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(WireBuffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(WireBuffer& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_ivec(WireBuffer& out, const std::vector<IntervalIndex>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const IntervalIndex x : v) put_i32(out, x);
}

void put_uvec(WireBuffer& out, const std::vector<std::uint32_t>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const std::uint32_t x : v) put_u32(out, x);
}

/// Bounds-checked cursor over the payload bytes.  Every get_* returns false
/// instead of reading past the end; callers propagate kTruncated.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = bytes_[pos_++];
    return true;
  }

  bool get_u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = static_cast<std::uint16_t>(bytes_[pos_] |
                                   (std::uint16_t{bytes_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }

  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{bytes_[pos_ + static_cast<std::size_t>(i)]}
           << (8 * i);
    pos_ += 4;
    return true;
  }

  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t{bytes_[pos_ + static_cast<std::size_t>(i)]}
           << (8 * i);
    pos_ += 8;
    return true;
  }

  bool get_i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!get_u32(u)) return false;
    std::memcpy(&v, &u, sizeof v);  // defined conversion, no UB on negatives
    return true;
  }

  /// count-prefixed i32 vector; kOverlong when the count exceeds the cap,
  /// kTruncated when the entries run out.
  WireError get_ivec(std::vector<IntervalIndex>& v) {
    std::uint32_t count = 0;
    if (!get_u32(count)) return WireError::kTruncated;
    if (count > kMaxWireProcesses) return WireError::kOverlong;
    if (remaining() < std::size_t{count} * 4) return WireError::kTruncated;
    v.clear();
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::int32_t x = 0;
      get_i32(x);  // bounds pre-checked above
      v.push_back(x);
    }
    return WireError::kOk;
  }

  /// count-prefixed u32 vector (protocol control words); capped at
  /// kMaxControlWords.
  WireError get_uvec(std::vector<std::uint32_t>& v) {
    std::uint32_t count = 0;
    if (!get_u32(count)) return WireError::kTruncated;
    if (count > kMaxControlWords) return WireError::kOverlong;
    if (remaining() < std::size_t{count} * 4) return WireError::kTruncated;
    v.clear();
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t x = 0;
      get_u32(x);  // bounds pre-checked above
      v.push_back(x);
    }
    return WireError::kOk;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Write the 32-byte header with a length placeholder; patched by seal().
void open_frame(WireBuffer& out, FrameKind kind, const FrameMeta& meta) {
  out.clear();
  put_u32(out, kWireMagic);
  put_u32(out, 0);  // length, patched below
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(kind));
  put_i32(out, meta.src);
  put_i32(out, meta.dst);
  put_u32(out, meta.incarnation);
  put_u64(out, meta.seq);
}

void seal_frame(WireBuffer& out) {
  const auto length = static_cast<std::uint32_t>(out.size());
  for (int i = 0; i < 4; ++i)
    out[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(length >> (8 * i));
}

}  // namespace

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kOk:         return "ok";
    case WireError::kTooShort:   return "too-short";
    case WireError::kBadMagic:   return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadLength:  return "bad-length";
    case WireError::kBadKind:    return "bad-kind";
    case WireError::kTruncated:  return "truncated";
    case WireError::kTrailing:   return "trailing";
    case WireError::kOverlong:   return "overlong";
  }
  return "unknown";
}

void encode_hello(WireBuffer& out, const FrameMeta& meta, const HelloBody& b) {
  open_frame(out, FrameKind::kHello, meta);
  put_i32(out, b.last_index);
  put_ivec(out, b.dv);
  seal_frame(out);
}

void encode_data(WireBuffer& out, const FrameMeta& meta, const DataBody& b) {
  open_frame(out, FrameKind::kData, meta);
  put_i32(out, b.send_interval);
  put_u64(out, b.bytes);
  put_ivec(out, b.dv);
  put_uvec(out, b.control);  // always written, possibly empty
  seal_frame(out);
}

void encode_recv_ack(WireBuffer& out, const FrameMeta& meta,
                     const RecvAckBody& b) {
  open_frame(out, FrameKind::kRecvAck, meta);
  put_i32(out, b.msg_src);
  put_u32(out, b.msg_incarnation);
  put_u64(out, b.msg_seq);
  put_i32(out, b.recv_interval);
  put_u8(out, b.forced);
  put_ivec(out, b.dv_after);
  seal_frame(out);
}

void encode_checkpoint(WireBuffer& out, const FrameMeta& meta,
                       const CheckpointBody& b) {
  open_frame(out, FrameKind::kCheckpoint, meta);
  put_i32(out, b.index);
  put_u8(out, b.kind);
  put_ivec(out, b.dv);
  seal_frame(out);
}

void encode_cmd(WireBuffer& out, const FrameMeta& meta, const CmdBody& b) {
  open_frame(out, FrameKind::kCmd, meta);
  put_u8(out, b.op);
  put_i32(out, b.target);
  put_u64(out, b.param);
  seal_frame(out);
}

void encode_cmd_done(WireBuffer& out, const FrameMeta& meta,
                     const CmdDoneBody& b) {
  open_frame(out, FrameKind::kCmdDone, meta);
  put_u8(out, b.op);
  put_u64(out, b.cmd_seq);
  seal_frame(out);
}

void encode_recovery_start(WireBuffer& out, const FrameMeta& meta,
                           const RecoveryStartBody& b) {
  open_frame(out, FrameKind::kRecoveryStart, meta);
  put_u64(out, b.session);
  put_u32(out, b.attempt);
  put_ivec(out, b.li);
  put_ivec(out, b.line);
  seal_frame(out);
}

void encode_rolled_back(WireBuffer& out, const FrameMeta& meta,
                        const RolledBackBody& b) {
  open_frame(out, FrameKind::kRolledBack, meta);
  put_u64(out, b.session);
  put_u32(out, b.attempt);
  put_u8(out, b.rolled);
  put_i32(out, b.last_index);
  put_ivec(out, b.dv);
  put_ivec(out, b.stored);
  seal_frame(out);
}

void encode_state(WireBuffer& out, const FrameMeta& meta, const StateBody& b) {
  open_frame(out, FrameKind::kState, meta);
  put_i32(out, b.last_index);
  put_u64(out, b.basic);
  put_u64(out, b.forced);
  put_u64(out, b.sent);
  put_u64(out, b.received);
  put_u64(out, b.rollbacks);
  put_ivec(out, b.dv);
  put_ivec(out, b.stored);
  seal_frame(out);
}

WireError decode_frame(std::span<const std::uint8_t> bytes,
                       DecodedFrame& out) {
  if (bytes.size() < kWireHeaderBytes) return WireError::kTooShort;
  if (bytes.size() > kMaxFrameBytes) return WireError::kBadLength;

  Reader r(bytes);
  std::uint32_t magic = 0, length = 0;
  std::uint16_t version = 0;
  r.get_u32(magic);
  r.get_u32(length);
  r.get_u16(version);
  r.get_u16(out.header.kind_raw);
  r.get_i32(out.header.src);
  r.get_i32(out.header.dst);
  r.get_u32(out.header.incarnation);
  r.get_u64(out.header.seq);

  if (magic != kWireMagic) return WireError::kBadMagic;
  if (version != kWireVersion) return WireError::kBadVersion;
  if (length != bytes.size()) return WireError::kBadLength;

  WireError err = WireError::kOk;
  switch (out.header.kind()) {
    case FrameKind::kHello:
      if (!r.get_i32(out.hello.last_index)) return WireError::kTruncated;
      err = r.get_ivec(out.hello.dv);
      break;
    case FrameKind::kData:
      if (!r.get_i32(out.data.send_interval)) return WireError::kTruncated;
      if (!r.get_u64(out.data.bytes)) return WireError::kTruncated;
      err = r.get_ivec(out.data.dv);
      if (err == WireError::kOk) err = r.get_uvec(out.data.control);
      break;
    case FrameKind::kRecvAck:
      if (!r.get_i32(out.recv_ack.msg_src)) return WireError::kTruncated;
      if (!r.get_u32(out.recv_ack.msg_incarnation))
        return WireError::kTruncated;
      if (!r.get_u64(out.recv_ack.msg_seq)) return WireError::kTruncated;
      if (!r.get_i32(out.recv_ack.recv_interval)) return WireError::kTruncated;
      if (!r.get_u8(out.recv_ack.forced)) return WireError::kTruncated;
      err = r.get_ivec(out.recv_ack.dv_after);
      break;
    case FrameKind::kCheckpoint:
      if (!r.get_i32(out.checkpoint.index)) return WireError::kTruncated;
      if (!r.get_u8(out.checkpoint.kind)) return WireError::kTruncated;
      err = r.get_ivec(out.checkpoint.dv);
      break;
    case FrameKind::kCmd:
      if (!r.get_u8(out.cmd.op)) return WireError::kTruncated;
      if (!r.get_i32(out.cmd.target)) return WireError::kTruncated;
      if (!r.get_u64(out.cmd.param)) return WireError::kTruncated;
      break;
    case FrameKind::kCmdDone:
      if (!r.get_u8(out.cmd_done.op)) return WireError::kTruncated;
      if (!r.get_u64(out.cmd_done.cmd_seq)) return WireError::kTruncated;
      break;
    case FrameKind::kState:
      if (!r.get_i32(out.state.last_index)) return WireError::kTruncated;
      if (!r.get_u64(out.state.basic)) return WireError::kTruncated;
      if (!r.get_u64(out.state.forced)) return WireError::kTruncated;
      if (!r.get_u64(out.state.sent)) return WireError::kTruncated;
      if (!r.get_u64(out.state.received)) return WireError::kTruncated;
      if (!r.get_u64(out.state.rollbacks)) return WireError::kTruncated;
      err = r.get_ivec(out.state.dv);
      if (err == WireError::kOk) err = r.get_ivec(out.state.stored);
      break;
    case FrameKind::kRecoveryStart:
      if (!r.get_u64(out.recovery_start.session)) return WireError::kTruncated;
      if (!r.get_u32(out.recovery_start.attempt)) return WireError::kTruncated;
      err = r.get_ivec(out.recovery_start.li);
      if (err == WireError::kOk) err = r.get_ivec(out.recovery_start.line);
      break;
    case FrameKind::kRolledBack:
      if (!r.get_u64(out.rolled_back.session)) return WireError::kTruncated;
      if (!r.get_u32(out.rolled_back.attempt)) return WireError::kTruncated;
      if (!r.get_u8(out.rolled_back.rolled)) return WireError::kTruncated;
      if (!r.get_i32(out.rolled_back.last_index)) return WireError::kTruncated;
      err = r.get_ivec(out.rolled_back.dv);
      if (err == WireError::kOk) err = r.get_ivec(out.rolled_back.stored);
      break;
    default:
      return WireError::kBadKind;
  }
  if (err != WireError::kOk) return err;
  if (r.remaining() != 0) return WireError::kTrailing;
  return WireError::kOk;
}

std::size_t first_frame_bytes(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kWireHeaderBytes) return datagram.size();
  std::uint32_t length = 0;
  Reader(datagram.subspan(4, 4)).get_u32(length);
  return length < kWireHeaderBytes || length > datagram.size()
             ? datagram.size()
             : length;
}

}  // namespace rdtgc::transport
