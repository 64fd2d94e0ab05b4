// Shared plumbing of the benchmark binary: clocks, order statistics,
// getrusage snapshots, the result record printed as JSON, and the in-memory
// span tracer of traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Quantile q in [0,1] by linear interpolation between closest ranks (the
/// "type 7" estimator).  Sorts `v` in place; NaN when `v` is empty.
double quantile(std::vector<double>& v, double q);

/// Latency percentile: the mean of the samples within half a percentile
/// rank of q (at least the one sample at q).  Timings are whole
/// nanoseconds, so on sub-microsecond calls a plain order statistic reads
/// the same integer run after run; the window mean keeps the resolution.
/// Sorts `v` in place; NaN when `v` is empty.
double latency_percentile(std::vector<double>& v, double q);

/// Median of a copy of `v`.
double median_of(std::vector<double> v);

/// Spread of `v`: interquartile range over median (0 for fewer than two).
double iqr_share(std::vector<double> v);

/// Mean of `v` (NaN when empty).
double mean_of(const std::vector<double>& v);

/// Flushes the filesystem holding `dir` (syncfs), so writeback and journal
/// work left by the previous episode does not land in the next one's timed
/// phase.  Best effort: returns false if the directory cannot be opened.
bool settle_filesystem(const std::string& dir);

/// Resource usage of this process and of its reaped children.
struct Usage {
  double self_cpu_s = 0;       ///< user + sys of this process
  double children_cpu_s = 0;   ///< user + sys of every reaped child
  long self_maxrss_kb = 0;     ///< peak RSS of this process's image
  long children_maxrss_kb = 0; ///< peak RSS of the largest reaped child
  long self_ctx_switches = 0;  ///< voluntary + involuntary

  static Usage now();
};

/// One invocation's output.  `metric` entries are the figures BENCHMARK.json
/// declares (every run prints all of them); `report` entries are printed in
/// the human-readable report only (figures that exist on some workloads).
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void report(const std::string& name, double value, const std::string& unit);
  /// An end-to-end figure: a metric of an untraced run, a report entry of a
  /// traced one (whose metrics are the per-layer figures).
  void end_to_end(bool traced, const std::string& name, double value,
                  const std::string& unit) {
    traced ? report(name, value, unit) : metric(name, value, unit);
  }

  /// `ops` operations were attempted.
  void attempt(std::uint64_t ops) { attempted_ += ops; }
  /// `ops` operations failed (a failed call, or every op of an episode that
  /// failed the correctness gate); the first reason is kept.
  void fail(std::uint64_t ops, const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// One-line JSON object: attempted, failed, errors, metrics, report.
  std::string to_json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> report_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Traced runs ----------------------------------------------------------

/// Layer boundaries the traced run records.  Each span is timed around a
/// call into one layer; its self time excludes the spans it encloses.
enum class SpanId : std::size_t {
  kNodeSend,            ///< benchmark -> Node::send_app_message
  kNodeCheckpoint,      ///< benchmark -> Node::take_basic_checkpoint
  kNodeReceive,         ///< transport -> the node's delivery sink
  kProtocolOnSend,      ///< Node -> CheckpointingProtocol::on_send
  kProtocolMustForce,   ///< Node -> CheckpointingProtocol::must_force
  kProtocolOnDeliver,   ///< Node -> CheckpointingProtocol::on_deliver
  kGcNewDependencies,   ///< Node -> GarbageCollector::on_new_dependencies
  kGcCheckpointStored,  ///< Node -> GarbageCollector::on_checkpoint_stored
  kNetworkSend,         ///< Node -> Transport::send (sim::Network)
  kCount,
};

/// Span aggregator.  Spans nest strictly (one thread, call-stack order), so
/// an open-span stack yields each span's self time exactly; per-name totals
/// stay in memory and are read out when the run ends.
class Tracer {
 public:
  struct Slot {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  Tracer();
  void begin(SpanId id);
  void end();

  const Slot& slot(SpanId id) const {
    return slots_[static_cast<std::size_t>(id)];
  }
  /// Summed duration of the outermost spans (time spent inside any layer
  /// the tracer watches).
  std::uint64_t root_ns() const { return root_ns_; }

 private:
  struct Open {
    SpanId id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::array<Slot, static_cast<std::size_t>(SpanId::kCount)> slots_{};
  std::vector<Open> stack_;
  std::uint64_t root_ns_ = 0;
};

/// RAII span; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, SpanId id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Mean self/total nanoseconds per call of a span (0 calls -> 0).
double mean_total_ns(const Tracer& t, SpanId id);
double mean_self_ns(const Tracer& t, SpanId id);

}  // namespace perfbench
