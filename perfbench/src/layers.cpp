// Side harnesses of the traced run: the layers a workload's timed calls
// cannot be split into from outside, timed on the run's own frames and
// events after the traced phase.
#include <sys/socket.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <tuple>

#include "rig.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

constexpr std::size_t kMaxFrames = 1024;
constexpr int kCodecPasses = 15;
constexpr std::size_t kSocketCalls = 4000;
constexpr std::size_t kLogAppends = 4000;
constexpr int kSocketTimeoutMs = 1000;

/// Nanoseconds per call of `pass` (which makes `calls` calls), as the
/// median over passes.
template <typename Pass>
double per_call_ns(std::size_t calls, Pass pass) {
  std::vector<double> samples;
  for (int i = 0; i < kCodecPasses; ++i) {
    const std::uint64_t t0 = now_ns();
    pass();
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(calls));
  }
  return median_of(samples);
}

}  // namespace

TransportCosts measure_transport_layers(
    const std::vector<transport::Event>& events, const std::string& scratch,
    Results& results) {
  using transport::EventKind;
  std::vector<transport::FrameMeta> data_meta, ack_meta;
  std::vector<transport::DataBody> data;
  std::vector<transport::RecvAckBody> acks;
  for (const transport::Event& e : events) {
    if (e.kind == EventKind::kSend && data.size() < kMaxFrames) {
      data_meta.push_back({e.src, e.dst, e.src_incarnation, e.seq});
      transport::DataBody body;
      body.send_interval = e.interval;
      body.bytes = e.bytes;
      body.dv = e.dv;
      data.push_back(std::move(body));
    } else if (e.kind == EventKind::kDeliver && acks.size() < kMaxFrames) {
      ack_meta.push_back({e.dst, -1, e.incarnation, e.seq});
      transport::RecvAckBody body;
      body.msg_src = e.src;
      body.msg_incarnation = e.src_incarnation;
      body.msg_seq = e.seq;
      body.recv_interval = e.interval;
      body.forced = e.forced;
      body.dv_after = e.dv;
      acks.push_back(std::move(body));
    }
  }
  TransportCosts cost;
  if (data.empty() || acks.empty()) {
    results.fail(0, "no Data/RecvAck frames to time the transport layers on");
    return cost;
  }

  // ---- wire codec -----------------------------------------------------
  std::vector<transport::WireBuffer> data_frames(data.size());
  std::vector<transport::WireBuffer> ack_frames(acks.size());
  transport::DecodedFrame decoded;
  bool decoded_ok = true;
  cost.encode_data_ns = per_call_ns(data.size(), [&] {
    for (std::size_t i = 0; i < data.size(); ++i)
      transport::encode_data(data_frames[i], data_meta[i], data[i]);
  });
  cost.decode_data_ns = per_call_ns(data.size(), [&] {
    for (const auto& frame : data_frames)
      decoded_ok &= transport::decode_frame(frame, decoded) ==
                    transport::WireError::kOk;
  });
  cost.encode_recv_ack_ns = per_call_ns(acks.size(), [&] {
    for (std::size_t i = 0; i < acks.size(); ++i)
      transport::encode_recv_ack(ack_frames[i], ack_meta[i], acks[i]);
  });
  cost.decode_recv_ack_ns = per_call_ns(acks.size(), [&] {
    for (const auto& frame : ack_frames)
      decoded_ok &= transport::decode_frame(frame, decoded) ==
                    transport::WireError::kOk;
  });
  if (!decoded_ok) results.fail(0, "a run frame failed to decode");
  double data_bytes = 0;
  for (const auto& frame : data_frames)
    data_bytes += static_cast<double>(frame.size());

  // ---- SEQPACKET socket hop -------------------------------------------
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) != 0) {
    results.fail(0, "socketpair(SOCK_SEQPACKET) failed");
    return cost;
  }
  const transport::Fd tx(fds[0]);
  const transport::Fd rx(fds[1]);
  transport::WireBuffer in;
  std::vector<double> send_ns, recv_ns;
  bool hop_ok = true;
  for (std::size_t i = 0; i < kSocketCalls + 64; ++i) {
    const transport::WireBuffer& frame = data_frames[i % data_frames.size()];
    const std::uint64_t t0 = now_ns();
    hop_ok &= transport::send_frame(tx.get(), frame, kSocketTimeoutMs);
    const std::uint64_t t1 = now_ns();
    hop_ok &= transport::recv_frame(rx.get(), in, kSocketTimeoutMs) ==
              transport::RecvStatus::kFrame;
    const std::uint64_t t2 = now_ns();
    hop_ok &= in == frame;
    if (i < 64) continue;  // first calls size the receive buffer
    send_ns.push_back(static_cast<double>(t1 - t0));
    recv_ns.push_back(static_cast<double>(t2 - t1));
  }
  if (!hop_ok) results.fail(0, "a run frame did not cross the socket pair");
  cost.send_frame_ns = median_of(send_ns);
  cost.recv_frame_ns = median_of(recv_ns);

  // ---- event log ------------------------------------------------------
  const std::string log_path = scratch + "/layer_events.log";
  std::filesystem::remove(log_path);
  std::vector<double> append_ns;
  {
    transport::EventLogWriter writer(log_path);
    for (std::size_t i = 0; i < kLogAppends; ++i) {
      const transport::Event& e = events[i % events.size()];
      const std::uint64_t t0 = now_ns();
      writer.append(e);
      append_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  cost.append_ns = median_of(append_ns);
  const double log_bytes =
      static_cast<double>(std::filesystem::file_size(log_path));
  std::filesystem::remove(log_path);

  results.metric("transport.uds.recv_frame_ns", cost.recv_frame_ns, "ns");
  results.metric("transport.uds.send_frame_ns", cost.send_frame_ns, "ns");
  results.metric("transport.wire.encode_data_ns", cost.encode_data_ns, "ns");
  results.metric("transport.wire.decode_data_ns", cost.decode_data_ns, "ns");
  results.metric("transport.wire.encode_recv_ack_ns", cost.encode_recv_ack_ns,
                 "ns");
  results.metric("transport.wire.decode_recv_ack_ns", cost.decode_recv_ack_ns,
                 "ns");
  results.metric("transport.wire.data_frame_bytes",
                 data_bytes / static_cast<double>(data_frames.size()),
                 "bytes");
  results.metric("transport.event_log.append_ns", cost.append_ns, "ns");
  results.metric("transport.event_log.bytes_per_event",
                 log_bytes / static_cast<double>(kLogAppends), "bytes");
  return cost;
}

std::uint64_t replay_node_layers(const std::vector<transport::Event>& events,
                                 std::size_t process_count,
                                 const std::string& scratch, Tracer& tracer,
                                 std::uint64_t& stored,
                                 std::uint64_t& collected,
                                 std::uint64_t& loop_ns) {
  using transport::EventKind;
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  RigConfig config;
  config.process_count = process_count;
  config.storage.kind = ckpt::StorageBackendKind::kMmapFile;
  config.storage.directory = scratch;
  config.manual = true;
  config.traced = true;
  Rig rig(config);
  rig.set_tracer(&tracer);

  std::map<std::tuple<ProcessId, std::uint32_t, std::uint64_t>,
           sim::MessageId>
      ids;
  std::uint64_t delivered = 0;
  const std::uint64_t t0 = now_ns();
  for (const transport::Event& e : events) {
    const bool restart = e.kind == EventKind::kAttach && e.incarnation > 0;
    if (restart || e.kind == EventKind::kKill ||
        e.kind == EventKind::kUncleanKill || e.kind == EventKind::kDrop ||
        e.kind == EventKind::kRecoveryStart || e.kind == EventKind::kState)
      break;
    if (e.kind == EventKind::kSend) {
      sim::MessageId id = 0;
      {
        Span span(&tracer, SpanId::kNodeSend);
        id = rig.node(e.src).send_app_message(e.dst, e.bytes);
      }
      ids[{e.src, e.src_incarnation, e.seq}] = id;
    } else if (e.kind == EventKind::kDeliver) {
      const auto it = ids.find({e.src, e.src_incarnation, e.seq});
      if (it == ids.end()) break;
      rig.network().deliver_now(it->second);
      ids.erase(it);
      ++delivered;
    } else if (e.kind == EventKind::kCheckpoint) {
      Span span(&tracer, SpanId::kNodeCheckpoint);
      rig.node(e.p).take_basic_checkpoint();
    }
  }
  loop_ns += now_ns() - t0;
  rig.set_tracer(nullptr);
  for (std::size_t p = 0; p < process_count; ++p) {
    const auto& stats = rig.node(static_cast<ProcessId>(p)).store().stats();
    stored += stats.stored;
    collected += stats.collected;
  }
  return delivered;
}

void report_node_layers(const Tracer& tracer, std::uint64_t messages,
                        std::uint64_t phase_ns, std::uint64_t stored,
                        std::uint64_t collected, Results& results) {
  results.metric("ckpt.node.receive_ns",
                 mean_total_ns(tracer, SpanId::kNodeReceive), "ns");
  results.metric("ckpt.node.receive_self_ns",
                 mean_self_ns(tracer, SpanId::kNodeReceive), "ns");
  results.metric("ckpt.node.send_ns", mean_total_ns(tracer, SpanId::kNodeSend),
                 "ns");
  results.metric("ckpt.node.checkpoint_ns",
                 mean_total_ns(tracer, SpanId::kNodeCheckpoint), "ns");
  results.metric("ckpt.protocol.must_force_ns",
                 mean_total_ns(tracer, SpanId::kProtocolMustForce), "ns");
  results.metric("ckpt.protocol.on_deliver_ns",
                 mean_total_ns(tracer, SpanId::kProtocolOnDeliver), "ns");
  results.metric("ckpt.protocol.on_send_ns",
                 mean_total_ns(tracer, SpanId::kProtocolOnSend), "ns");
  results.metric("core.gc.new_dependencies_ns",
                 mean_total_ns(tracer, SpanId::kGcNewDependencies), "ns");
  results.metric("core.gc.checkpoint_stored_ns",
                 mean_total_ns(tracer, SpanId::kGcCheckpointStored), "ns");
  results.metric("core.gc.collects_per_ckpt",
                 static_cast<double>(collected) / static_cast<double>(stored),
                 "ratio");
  results.metric("sim.network.send_ns",
                 mean_total_ns(tracer, SpanId::kNetworkSend), "ns");
  const std::uint64_t inside = std::min(phase_ns, tracer.root_ns());
  results.metric("sim.loop_self_ns_per_msg",
                 static_cast<double>(phase_ns - inside) /
                     static_cast<double>(messages),
                 "ns");
}

}  // namespace perfbench
