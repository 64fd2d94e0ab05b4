// fleet-steady and fleet-chaos: the real multi-process fleet.
//
// One run is a sequence of identical episodes: a fresh ProcFleet (4
// rdtgc_proc workers, FDAS + RDT-LGC on mmap media), the seed's call
// schedule driven closed-loop with one outstanding call, then shutdown().
// Each episode leaves its event log and media under the scratch directory;
// gate_fleet replays them afterwards in a separate process.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "ckpt/sharded_checkpoint_store.hpp"
#include "recovery/recovery_manager.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

constexpr std::size_t kFleetProcesses = 4;
constexpr int kCallsPerKill = 25;

struct FleetOp {
  enum class Kind : std::uint8_t { kSend, kCheckpoint, kKill };
  Kind kind;
  ProcessId p;
  ProcessId dst;
};

bool is_chaos(const RunOptions& options) {
  return options.workload == "fleet-chaos";
}

/// The seed's call schedule: 80% send_app with uniform src != dst, 20%
/// basic_checkpoint.  fleet-chaos adds a quiesced kill after every 25 calls;
/// every second kill follows a send from its victim, which orphans the
/// delivery and makes the fleet run a recovery session.
std::vector<FleetOp> make_schedule(const RunOptions& options) {
  const int calls =
      (is_chaos(options) ? 2500 : 3000) / (options.small ? 10 : 1);
  util::Rng rng(options.seed * 104729 + 7);
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<ProcessId>(rng.uniform(bound));
  };
  const auto random_call = [&]() {
    const ProcessId p = pick(kFleetProcesses);
    if (rng.uniform(100) < 80) {
      ProcessId dst = pick(kFleetProcesses - 1);
      if (dst >= p) ++dst;
      return FleetOp{FleetOp::Kind::kSend, p, dst};
    }
    return FleetOp{FleetOp::Kind::kCheckpoint, p, -1};
  };
  std::vector<FleetOp> ops;
  int kills = 0;
  for (int call = 1; call <= calls; ++call) {
    const bool kill_after = is_chaos(options) && call % kCallsPerKill == 0;
    const ProcessId victim = kill_after ? pick(kFleetProcesses) : -1;
    if (kill_after && kills % 2 == 1) {
      ProcessId peer = pick(kFleetProcesses - 1);
      if (peer >= victim) ++peer;
      ops.push_back(FleetOp{FleetOp::Kind::kSend, victim, peer});
    } else {
      ops.push_back(random_call());
    }
    if (kill_after) {
      ops.push_back(FleetOp{FleetOp::Kind::kKill, victim, -1});
      ++kills;
    }
  }
  return ops;
}

std::string episode_dir(const std::string& scratch, int index) {
  return scratch + "/fleet-ep" + std::to_string(index);
}

/// What one episode's event log records, counted line by line with the
/// library's own parser (the log is never held in memory, so the count adds
/// nothing to the measured process's peak RSS).
struct LogCounts {
  std::uint64_t sends = 0, deliveries = 0, forced = 0, checkpoints = 0,
                kills = 0;
  std::string malformed;  ///< first line the parser rejected, if any
};

LogCounts count_events(const std::string& path) {
  LogCounts c;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    transport::Event e;
    if (!transport::event_from_line(line, e)) {
      if (c.malformed.empty()) c.malformed = line.substr(0, 120);
      continue;
    }
    switch (e.kind) {
      case transport::EventKind::kSend:
        ++c.sends;
        break;
      case transport::EventKind::kDeliver:
        ++c.deliveries;
        c.forced += e.forced != 0 ? 1 : 0;
        break;
      case transport::EventKind::kCheckpoint:
        ++c.checkpoints;
        break;
      case transport::EventKind::kKill:
        ++c.kills;
        break;
      default:
        break;
    }
  }
  return c;
}

struct Phase {
  std::vector<double> msgs_per_s, op_p50_us, op_p99_us, send_p50_us,
      checkpoint_p50_us, setup_s, recovery_ms, parent_cpu_us_per_op,
      worker_cpu_us_per_op, ctx_per_op;
  std::uint64_t timed_ns = 0, messages = 0, forced = 0, calls = 0,
                sends = 0, checkpoints = 0, kills = 0, sessions = 0,
                orphans = 0;
  double parent_cpu_s = 0, worker_cpu_s = 0;
  long rss_peak_kb = 0;
  long worker_rss_peak_kb = 0;
};

/// One episode; false when the fleet failed (the run stops there).
bool run_episode(const RunOptions& options, const std::vector<FleetOp>& ops,
                 int index, Phase& phase, Results& results) {
  transport::FleetConfig config;
  config.process_count = kFleetProcesses;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.backend = ckpt::StorageBackendKind::kMmapFile;
  config.scratch_dir = episode_dir(options.scratch, index);
  config.worker_binary = PERFBENCH_PROC_BIN;
  config.step_timeout_ms = 20000;
  config.worker_idle_timeout_ms = 40000;
  std::filesystem::remove_all(config.scratch_dir);
  std::filesystem::create_directories(config.scratch_dir);
  settle_filesystem(config.scratch_dir);

  std::vector<double> op_us, send_us, checkpoint_us;
  op_us.reserve(ops.size());
  results.attempt(ops.size());
  const Usage before_start = Usage::now();
  transport::ProcFleet fleet(config);
  const std::uint64_t setup_start = now_ns();
  if (!fleet.start()) {
    results.fail(ops.size(), "episode " + std::to_string(index) +
                                 ": start: " + fleet.error());
    return false;
  }
  const std::uint64_t setup_end = now_ns();

  const Usage before = Usage::now();
  const std::uint64_t t0 = now_ns();
  std::size_t done = 0;
  for (const FleetOp& op : ops) {
    const std::uint64_t c0 = now_ns();
    bool ok = false;
    switch (op.kind) {
      case FleetOp::Kind::kSend:
        ok = fleet.send_app(op.p, op.dst);
        break;
      case FleetOp::Kind::kCheckpoint:
        ok = fleet.basic_checkpoint(op.p);
        break;
      case FleetOp::Kind::kKill:
        ok = fleet.kill_and_restart(op.p);
        break;
    }
    const double us = static_cast<double>(now_ns() - c0) * 1e-3;
    if (!ok) break;
    ++done;
    if (op.kind == FleetOp::Kind::kKill) {
      phase.recovery_ms.push_back(us * 1e-3);
    } else {
      op_us.push_back(us);
      (op.kind == FleetOp::Kind::kSend ? send_us : checkpoint_us).push_back(us);
    }
  }
  const bool shut = done == ops.size() && fleet.shutdown();
  const std::uint64_t t1 = now_ns();
  const Usage after = Usage::now();
  if (!shut) {
    // An episode cut short certifies nothing: all of its calls count.
    results.fail(ops.size(),
                 "episode " + std::to_string(index) + ": " + fleet.error());
    return false;
  }

  const LogCounts log = count_events(fleet.log_path());
  if (!log.malformed.empty()) {
    results.fail(ops.size(), "episode " + std::to_string(index) +
                                 ": unreadable event log line '" +
                                 log.malformed + "'");
    return false;
  }
  const double parent_cpu = after.self_cpu_s - before.self_cpu_s;
  const double worker_cpu = after.children_cpu_s - before_start.children_cpu_s;
  const auto calls = static_cast<double>(ops.size());
  phase.setup_s.push_back(seconds_between(setup_start, setup_end));
  phase.msgs_per_s.push_back(static_cast<double>(log.deliveries) /
                             seconds_between(t0, t1));
  phase.op_p50_us.push_back(latency_percentile(op_us, 0.50));
  phase.op_p99_us.push_back(latency_percentile(op_us, 0.99));
  phase.send_p50_us.push_back(latency_percentile(send_us, 0.50));
  phase.checkpoint_p50_us.push_back(latency_percentile(checkpoint_us, 0.50));
  phase.parent_cpu_us_per_op.push_back(parent_cpu * 1e6 / calls);
  phase.worker_cpu_us_per_op.push_back(worker_cpu * 1e6 / calls);
  phase.ctx_per_op.push_back(
      static_cast<double>(after.self_ctx_switches - before.self_ctx_switches) /
      calls);
  phase.timed_ns += t1 - t0;
  phase.parent_cpu_s += parent_cpu;
  phase.worker_cpu_s += worker_cpu;
  phase.messages += log.deliveries;
  phase.forced += log.forced;
  phase.calls += op_us.size();
  phase.sends += log.sends;
  phase.checkpoints += log.checkpoints;
  phase.kills += log.kills;
  phase.sessions += fleet.recovery_sessions();
  phase.orphans += fleet.orphans_repaired();
  return true;
}

/// Runs episodes 0, 1, ... until --seconds have passed (at least one) or
/// one fails; the completed ones are 0 .. msgs_per_s.size() - 1.
Phase run_phase(const RunOptions& options, const std::vector<FleetOp>& ops,
                Results& results) {
  Phase phase;
  const std::uint64_t start = now_ns();
  for (int index = 0;; ++index) {
    if (index > 0 && seconds_between(start, now_ns()) >= options.seconds)
      break;
    if (!run_episode(options, ops, index, phase, results)) break;
  }
  const Usage u = Usage::now();
  phase.rss_peak_kb = u.self_maxrss_kb;
  phase.worker_rss_peak_kb = u.children_maxrss_kb;
  return phase;
}

/// Per-op transport costs attributed from the side harness: calls per op
/// counted from the phase's logs, times the cost of one call.
void report_attribution(const Phase& phase, const TransportCosts& cost,
                        Results& results) {
  const auto ops = static_cast<double>(phase.calls);
  const auto s = static_cast<double>(phase.sends);
  const auto d = static_cast<double>(phase.messages);
  const auto c = static_cast<double>(phase.checkpoints);
  // Every call is one Cmd (parent -> worker) and one CmdDone back; a send
  // adds the Data frame into the parent and out to its destination plus the
  // RecvAck, a basic checkpoint adds its Checkpoint record.  Each datagram
  // is sent once and received once.
  const double datagrams = 2 * ops + s + d + d + c;
  const double data_codec = 2 * s;  // encoded at the sender and re-encoded
                                    // by the parent; decoded at both hops
  const double appends = s + d + c;
  const double attributed_ns =
      datagrams * (cost.recv_frame_ns + cost.send_frame_ns) +
      data_codec * (cost.encode_data_ns + cost.decode_data_ns) +
      d * (cost.encode_recv_ack_ns + cost.decode_recv_ack_ns) +
      appends * cost.append_ns;
  const double busy_us =
      (phase.parent_cpu_s + phase.worker_cpu_s) * 1e6 / ops;
  const double attributed_us = attributed_ns * 1e-3 / ops;
  results.report("transport.fleet.frames_per_op", datagrams / ops, "frames");
  results.report("transport.fleet.event_appends_per_op", appends / ops,
                 "events");
  results.report("transport.fleet.attributed_recv_us_per_op",
                 datagrams * cost.recv_frame_ns * 1e-3 / ops, "us");
  results.report("transport.fleet.attributed_send_us_per_op",
                 datagrams * cost.send_frame_ns * 1e-3 / ops, "us");
  results.report(
      "transport.fleet.attributed_codec_us_per_op",
      (data_codec * (cost.encode_data_ns + cost.decode_data_ns) +
       d * (cost.encode_recv_ack_ns + cost.decode_recv_ack_ns)) *
          1e-3 / ops,
      "us");
  results.report("transport.fleet.attributed_log_us_per_op",
                 appends * cost.append_ns * 1e-3 / ops, "us");
  results.report("transport.fleet.attributed_us_per_op", attributed_us, "us");
  results.report("transport.fleet.busy_us_per_op", busy_us, "us");
  results.report("transport.fleet.residual_us_per_op",
                 busy_us - attributed_us, "us");
}

}  // namespace

void run_fleet(const RunOptions& options, Results& results) {
  const std::vector<FleetOp> ops = make_schedule(options);
  const Phase phase = run_phase(options, ops, results);
  if (phase.msgs_per_s.empty()) return;

  // stored_peak_per_proc comes from the gate, which reopens the media.
  const bool in_report = options.trace;
  // Timings are read over the whole run, set-up time at its median over
  // episodes (README.md, "Reading a run").
  const auto delivered = static_cast<double>(phase.messages);
  results.end_to_end(in_report, "msgs_per_s",
                     delivered / (static_cast<double>(phase.timed_ns) * 1e-9),
                     "msg/s");
  results.end_to_end(
      in_report, "cpu_us_per_msg",
      (phase.parent_cpu_s + phase.worker_cpu_s) * 1e6 / delivered, "us");
  results.end_to_end(in_report, "op_p50_us", mean_of(phase.op_p50_us), "us");
  // The tail is reported, not declared: on a noisy host it swung past any
  // bound the benchmark may set (see README.md, "Spread over ten seeds").
  results.report("op_p99_us", mean_of(phase.op_p99_us), "us");
  results.end_to_end(in_report, "setup_s", median_of(phase.setup_s), "s");
  results.end_to_end(in_report, "rss_peak_kb",
                     static_cast<double>(phase.rss_peak_kb), "KiB");
  results.end_to_end(in_report, "forced_per_msg",
                     static_cast<double>(phase.forced) / delivered, "ratio");
  results.report("worker_rss_peak_kb",
                 static_cast<double>(phase.worker_rss_peak_kb), "KiB");
  results.report("episodes", static_cast<double>(phase.msgs_per_s.size()),
                 "count");
  results.report("msgs_per_s.episode_median", median_of(phase.msgs_per_s),
                 "msg/s");
  results.report("msgs_per_s.episode_iqr_share", iqr_share(phase.msgs_per_s),
                 "ratio");
  results.report("messages_per_episode",
                 static_cast<double>(phase.messages) /
                     static_cast<double>(phase.msgs_per_s.size()),
                 "msg");
  if (is_chaos(options)) {
    std::vector<double> recovery = phase.recovery_ms;
    results.report("recovery_p50_ms", latency_percentile(recovery, 0.50), "ms");
    results.report("recovery_p90_ms", latency_percentile(recovery, 0.90), "ms");
    results.report("kills", static_cast<double>(phase.kills), "count");
  }
  // Busy and waiting time on each side of the socket: they cost nothing
  // extra to read.
  results.report("transport.fleet.send_app_p50_us",
                 median_of(phase.send_p50_us), "us");
  results.report("transport.fleet.checkpoint_p50_us",
                 median_of(phase.checkpoint_p50_us), "us");
  results.report("transport.fleet.parent_cpu_us_per_op",
                 median_of(phase.parent_cpu_us_per_op), "us");
  results.report("transport.fleet.worker_cpu_us_per_op",
                 median_of(phase.worker_cpu_us_per_op), "us");
  results.report("transport.fleet.parent_ctx_switches_per_op",
                 median_of(phase.ctx_per_op), "count");
  if (is_chaos(options) && phase.kills > 0) {
    results.report("transport.fleet.sessions_per_kill",
                   static_cast<double>(phase.sessions) /
                       static_cast<double>(phase.kills),
                   "ratio");
    if (phase.sessions > 0)
      results.report("transport.fleet.orphans_per_session",
                     static_cast<double>(phase.orphans) /
                         static_cast<double>(phase.sessions),
                     "count");
  }
  if (!options.trace) return;

  // Nothing is traced inside the fleet's timed loop: the layers are timed
  // afterwards, by the side harnesses below, on the phase's own frames and
  // events.
  results.metric("trace.overhead_pct", 0, "%");
  const std::string side = options.scratch + "/side";
  std::filesystem::create_directories(side);
  Tracer tracer;
  std::uint64_t messages = 0, stored = 0, collected = 0, loop_ns = 0;
  std::vector<transport::Event> events;
  const auto episodes = static_cast<int>(phase.msgs_per_s.size());
  for (int episode = 0; episode < episodes; ++episode) {
    events = transport::read_event_log(
        episode_dir(options.scratch, episode) + "/events.log");
    messages += replay_node_layers(events, kFleetProcesses,
                                   side + "/replay" + std::to_string(episode),
                                   tracer, stored, collected, loop_ns);
  }
  report_node_layers(tracer, messages, loop_ns, stored, collected, results);
  // The last episode's frames and events.
  const TransportCosts cost =
      measure_transport_layers(events, side, results);
  report_attribution(phase, cost, results);
}

// ---- The out-of-process gate ----------------------------------------------

namespace {

/// Reopens every worker's media as a restarted process would; returns the
/// stores (recovered) and records the time each attach took.
std::vector<std::unique_ptr<ckpt::ShardedCheckpointStore>> reopen_media(
    const std::string& dir, std::vector<double>& attach_ms) {
  std::vector<std::unique_ptr<ckpt::ShardedCheckpointStore>> stores;
  for (std::size_t p = 0; p < kFleetProcesses; ++p) {
    ckpt::StorageConfig storage;
    storage.kind = ckpt::StorageBackendKind::kMmapFile;
    storage.directory = dir + "/p" + std::to_string(p);
    storage.open_mode = ckpt::OpenMode::kAttach;
    const std::uint64_t t0 = now_ns();
    stores.push_back(std::make_unique<ckpt::ShardedCheckpointStore>(
        static_cast<ProcessId>(p),
        ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, storage));
    stores.back()->recover();
    attach_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return stores;
}

std::string join(const std::vector<CheckpointIndex>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

/// Replays one episode; empty when it certifies, else the first divergence.
std::string certify_episode(const std::string& dir, std::size_t& stored_peak,
                            std::vector<double>& attach_ms) {
  transport::ReplayConfig config;
  config.process_count = kFleetProcesses;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.backend = ckpt::StorageBackendKind::kMmapFile;
  config.scratch_dir = dir + "/replay";
  std::filesystem::remove_all(config.scratch_dir);
  const transport::ReplayResult replay =
      transport::replay_event_log(dir + "/events.log", config);
  if (!replay.ok) return "replay: " + replay.error;
  if (replay.stopped_at.has_value())
    return "replay stopped: " + replay.stop_reason;
  if (!replay.system->recorder().audit_no_orphans())
    return "an orphan survived the recovery sessions";

  const auto media = reopen_media(dir, attach_ms);
  std::vector<const ckpt::ShardedCheckpointStore*> real, replayed;
  for (std::size_t p = 0; p < kFleetProcesses; ++p) {
    real.push_back(media[p].get());
    replayed.push_back(&replay.system->node(static_cast<ProcessId>(p)).store());
    stored_peak = std::max(stored_peak, media[p]->stats().peak_count);
  }
  const std::vector<CheckpointIndex> line =
      recovery::recovery_line_from_storage(real);
  const std::vector<CheckpointIndex> expected =
      recovery::recovery_line_from_storage(replayed);
  if (line != expected)
    return "Lemma-1 line of the workers' media {" + join(line) +
           "} != replay's {" + join(expected) + "}";
  return {};
}

}  // namespace

void gate_fleet(const RunOptions& options, Results& results) {
  std::size_t stored_peak = 0;
  std::vector<double> attach_ms;
  int episodes = 0;
  for (int index = 0;; ++index) {
    const std::string dir = episode_dir(options.scratch, index);
    if (!std::filesystem::exists(dir + "/events.log")) break;
    ++episodes;
    std::string divergence;
    try {
      divergence = certify_episode(dir, stored_peak, attach_ms);
    } catch (const std::exception& e) {
      divergence = std::string("gate threw: ") + e.what();
    }
    if (!divergence.empty()) {
      const LogCounts log = count_events(dir + "/events.log");
      results.fail(log.sends + log.checkpoints + log.kills,
                   "episode " + std::to_string(index) + ": " + divergence);
    }
  }
  if (episodes == 0) {
    results.fail(1, "no fleet episode to gate under " + options.scratch);
    return;
  }
  results.end_to_end(options.trace, "stored_peak_per_proc",
                     static_cast<double>(stored_peak), "ckpts");
  results.report("ckpt.store.attach_ms", median_of(attach_ms), "ms");
  results.report("gated_episodes", episodes, "count");
}

}  // namespace perfbench
