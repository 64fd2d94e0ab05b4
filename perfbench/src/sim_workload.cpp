// sim-gossip64 and sim-log-ckpt: the in-process simulated system.
//
// One run is a sequence of identical episodes: a fresh Rig, the seed's
// activity schedule run to completion, then the correctness gate (outside
// the timed phase).  Repeating one fixed-size episode keeps memory and the
// storage counters independent of how fast the code is, and the medians
// over episodes keep the figures steady.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "ckpt/sharded_checkpoint_store.hpp"
#include "rig.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

struct SimShape {
  std::size_t process_count;
  double checkpoint_probability;
  bool log_media;
  SimTime horizon;  ///< simulated time of one episode's activities
};

constexpr double kMeanGap = 10.0;
constexpr std::size_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 2048;
constexpr std::size_t kNoCompaction = std::size_t{1} << 20;

SimShape shape_of(const RunOptions& options) {
  // sim-log-ckpt checkpoints with probability 0.6 rather than 0.5: at 0.5
  // the median call sits on the boundary between the fast send mode and
  // the slow checkpoint mode, and op_p50_us jumped between them by seed.
  SimShape shape = options.workload == "sim-gossip64"
                       ? SimShape{64, 0.2, false, 20000}
                       : SimShape{16, 0.6, true, 30000};
  if (options.small) shape.horizon /= 20;
  return shape;
}

/// The benchmark's own application: each process acts at exponential gaps;
/// an act is a basic checkpoint with the workload's probability, otherwise
/// one message to a uniformly chosen peer.  Every call into the node is
/// timed (the op latency) and, in traced phases, wrapped in a span.
class Application {
 public:
  Application(Rig& rig, const SimShape& shape, std::uint64_t seed,
              std::vector<double>& op_ns,
              std::vector<transport::Event>* sample)
      : rig_(rig), shape_(shape), op_ns_(op_ns), sample_(sample) {
    util::Rng root(seed);
    for (std::size_t p = 0; p < shape.process_count; ++p)
      rng_.push_back(root.split());
  }

  void start() {
    for (std::size_t p = 0; p < shape_.process_count; ++p) schedule(p);
  }
  std::uint64_t ops() const { return ops_; }

 private:
  void schedule(std::size_t p) {
    const auto gap = std::max<SimTime>(
        1, static_cast<SimTime>(rng_[p].exponential(kMeanGap) + 0.5));
    const SimTime at = rig_.simulator().now() + gap;
    if (at <= shape_.horizon)
      rig_.simulator().at(at, [this, p] { act(p); });
  }

  void act(std::size_t p) {
    util::Rng& rng = rng_[p];
    ckpt::Node& node = rig_.node(static_cast<ProcessId>(p));
    if (rng.bernoulli(shape_.checkpoint_probability)) {
      const std::uint64_t t0 = now_ns();
      {
        Span span(rig_.tracer(), SpanId::kNodeCheckpoint);
        node.take_basic_checkpoint();
      }
      op_ns_.push_back(static_cast<double>(now_ns() - t0));
    } else {
      auto dst = static_cast<ProcessId>(rng.uniform(shape_.process_count - 1));
      if (dst >= static_cast<ProcessId>(p)) ++dst;
      if (sample_ != nullptr && sample_->size() < 2 * kMaxSamples &&
          ops_ % kSampleEvery == 0)
        record_sample(node, rig_.node(dst));
      const std::uint64_t t0 = now_ns();
      {
        Span span(rig_.tracer(), SpanId::kNodeSend);
        node.send_app_message(dst);
      }
      op_ns_.push_back(static_cast<double>(now_ns() - t0));
    }
    ++ops_;
    schedule(p);
  }

  /// The frames this send would put on the wire: its Data frame, and a
  /// RecvAck carrying the receiver's vector.
  void record_sample(const ckpt::Node& src, const ckpt::Node& dst) {
    transport::Event send;
    send.kind = transport::EventKind::kSend;
    send.src = src.id();
    send.seq = ops_ + 1;
    send.dst = dst.id();
    send.interval = src.current_interval();
    send.bytes = 1;
    send.dv.assign(src.dv().entries().begin(), src.dv().entries().end());
    transport::Event deliver = send;
    deliver.kind = transport::EventKind::kDeliver;
    deliver.interval = dst.current_interval();
    deliver.dv.assign(dst.dv().entries().begin(), dst.dv().entries().end());
    sample_->push_back(std::move(send));
    sample_->push_back(std::move(deliver));
  }

  Rig& rig_;
  SimShape shape_;
  std::vector<util::Rng> rng_;
  std::vector<double>& op_ns_;
  std::vector<transport::Event>* sample_;
  std::uint64_t ops_ = 0;
};

/// Figures of one phase (untraced, or traced), accumulated over episodes.
struct Phase {
  std::vector<double> msgs_per_s, op_p50_us, op_p99_us, setup_s, attach_ms;
  std::uint64_t messages = 0, forced = 0, stored = 0, collected = 0;
  std::uint64_t timed_ns = 0;
  double cpu_s = 0;
  std::size_t stored_peak = 0;
  long rss_peak_kb = 0;
};

/// Times reopening each process's media and recovering it (the attach a
/// restarted process pays), on the episode's persisted stores.
void time_attach(const ckpt::StorageConfig& written, std::size_t n,
                 std::vector<double>& attach_ms) {
  for (std::size_t p = 0; p < n; ++p) {
    ckpt::StorageConfig storage = written;
    storage.open_mode = ckpt::OpenMode::kAttach;
    const std::uint64_t t0 = now_ns();
    ckpt::ShardedCheckpointStore store(
        static_cast<ProcessId>(p),
        ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, storage);
    store.recover();
    attach_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
}

/// Creates, empty, every file a fresh store of each process opens: its
/// meta segment and one log per stripe.
void create_media_files(const ckpt::StorageConfig& storage, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    const auto owner = static_cast<ProcessId>(p);
    std::ofstream{storage.meta_file(owner)};
    for (std::size_t s = 0;
         s < ckpt::ShardedCheckpointStore::kDefaultShardCount; ++s)
      std::ofstream{storage.stripe_file(owner, s)};
  }
}

void run_episode(const RunOptions& options, const SimShape& shape, int index,
                 Tracer* tracer, std::vector<double>& op_ns,
                 std::vector<transport::Event>* sample, Phase& phase,
                 Results& results) {
  RigConfig config;
  config.process_count = shape.process_count;
  config.no_gc = options.gc == "none";
  config.traced = tracer != nullptr;
  config.seed = options.seed;
  std::string dir;
  if (shape.log_media) {
    dir = options.scratch + "/sim-ep" + std::to_string(index);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    config.storage.kind = ckpt::StorageBackendKind::kLogStructured;
    config.storage.directory = dir;
    // Compaction (a rewrite, fsync and rename per stripe) stays out of the
    // timed path: on a disk-backed checkout it made the figure a reading of
    // the device.  An episode appends well under this many records per
    // stripe; only BM_BackendChurnLog in bench/tabd_micro.cpp times
    // compaction.
    config.storage.compact_min_records = kNoCompaction;
    // setup_s times the construction over media files that already exist:
    // creating the 144 directory entries in the timed span made it a
    // reading of the filesystem's state (3-30 ms from one run to the next
    // on ext4), not of the code.
    create_media_files(config.storage, shape.process_count);
    settle_filesystem(options.scratch);
  }

  const std::uint64_t setup_start = now_ns();
  auto rig = std::make_unique<Rig>(config);
  const std::uint64_t setup_end = now_ns();
  rig->set_tracer(tracer);

  op_ns.clear();
  Application app(*rig, shape, options.seed * 7919 + 13, op_ns, sample);
  const Usage before = Usage::now();
  const std::uint64_t t0 = now_ns();
  app.start();
  rig->simulator().run();
  const std::uint64_t t1 = now_ns();
  const Usage after = Usage::now();
  rig->set_tracer(nullptr);

  const std::uint64_t messages = rig->delivered();
  results.attempt(app.ops());
  const std::string divergence = rig->check_retained_sets();
  if (!divergence.empty())
    results.fail(app.ops(), "episode " + std::to_string(index) + ": " +
                                divergence);

  phase.setup_s.push_back(seconds_between(setup_start, setup_end));
  phase.msgs_per_s.push_back(static_cast<double>(messages) /
                             seconds_between(t0, t1));
  phase.op_p50_us.push_back(latency_percentile(op_ns, 0.50) * 1e-3);
  phase.op_p99_us.push_back(latency_percentile(op_ns, 0.99) * 1e-3);
  phase.messages += messages;
  phase.forced += rig->forced_checkpoints();
  phase.timed_ns += t1 - t0;
  phase.cpu_s += after.self_cpu_s - before.self_cpu_s;
  phase.stored_peak = std::max(phase.stored_peak, rig->stored_peak());
  for (std::size_t p = 0; p < shape.process_count; ++p) {
    const auto& stats = rig->node(static_cast<ProcessId>(p)).store().stats();
    phase.stored += stats.stored;
    phase.collected += stats.collected;
  }
  rig.reset();  // closes the media
  if (tracer != nullptr && shape.log_media && phase.attach_ms.empty())
    time_attach(config.storage, shape.process_count, phase.attach_ms);
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

/// Runs episodes until `seconds` have passed (at least one).
Phase run_phase(const RunOptions& options, const SimShape& shape,
                double seconds, Tracer* tracer,
                std::vector<transport::Event>* sample, int& next_index,
                Results& results) {
  Phase phase;
  std::vector<double> op_ns;
  const std::uint64_t start = now_ns();
  for (int done = 0;; ++done) {
    if (done > 0 && seconds_between(start, now_ns()) >= seconds) break;
    run_episode(options, shape, next_index++, tracer, op_ns, sample, phase,
                results);
  }
  phase.rss_peak_kb = Usage::now().self_maxrss_kb;
  return phase;
}

}  // namespace

void run_sim(const RunOptions& options, Results& results) {
  const SimShape shape = shape_of(options);
  int index = 0;
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain = run_phase(options, shape, untraced_seconds, nullptr,
                                nullptr, index, results);

  // The end-to-end figures come from the untraced phase only.
  const bool in_report = options.trace;
  // Timings are read over the whole run, set-up time at its median over
  // episodes (README.md, "Reading a run").
  results.end_to_end(in_report, "msgs_per_s",
                     static_cast<double>(plain.messages) /
                         (static_cast<double>(plain.timed_ns) * 1e-9),
                     "msg/s");
  results.end_to_end(in_report, "cpu_us_per_msg",
                     plain.cpu_s * 1e6 / static_cast<double>(plain.messages),
                     "us");
  results.end_to_end(in_report, "op_p50_us", mean_of(plain.op_p50_us), "us");
  // The tail is reported, not declared: on a noisy host it swung past any
  // bound the benchmark may set (see README.md, "Spread over ten seeds").
  results.report("op_p99_us", mean_of(plain.op_p99_us), "us");
  results.end_to_end(in_report, "setup_s", median_of(plain.setup_s), "s");
  results.end_to_end(in_report, "rss_peak_kb",
                     static_cast<double>(plain.rss_peak_kb), "KiB");
  results.end_to_end(in_report, "stored_peak_per_proc",
                     static_cast<double>(plain.stored_peak), "ckpts");
  results.end_to_end(in_report, "forced_per_msg",
                     static_cast<double>(plain.forced) /
                         static_cast<double>(plain.messages),
                     "ratio");
  results.report("episodes", static_cast<double>(plain.msgs_per_s.size()),
                 "count");
  results.report("msgs_per_s.episode_median", median_of(plain.msgs_per_s),
                 "msg/s");
  results.report("msgs_per_s.episode_iqr_share", iqr_share(plain.msgs_per_s),
                 "ratio");
  results.report("messages_per_episode",
                 static_cast<double>(plain.messages) /
                     static_cast<double>(plain.msgs_per_s.size()),
                 "msg");
  if (!options.trace) return;

  Tracer tracer;
  std::vector<transport::Event> sample;
  const Phase traced = run_phase(options, shape, options.seconds / 2, &tracer,
                                 &sample, index, results);
  report_node_layers(tracer, traced.messages, traced.timed_ns, traced.stored,
                     traced.collected, results);
  const double traced_rate = static_cast<double>(traced.messages) /
                             (static_cast<double>(traced.timed_ns) * 1e-9);
  const double plain_rate = static_cast<double>(plain.messages) /
                            (static_cast<double>(plain.timed_ns) * 1e-9);
  results.metric("trace.overhead_pct", (plain_rate / traced_rate - 1) * 100,
                 "%");
  if (!traced.attach_ms.empty())
    results.report("ckpt.store.attach_ms", median_of(traced.attach_ms), "ms");
  measure_transport_layers(sample, options.scratch, results);
}

}  // namespace perfbench
