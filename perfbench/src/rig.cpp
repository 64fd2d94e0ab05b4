#include "rig.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ccp/analysis.hpp"
#include "core/rdt_lgc.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

/// Transport decorator over sim::Network: the delivery sink a node
/// registers is wrapped in the receive span, Transport::send in its own.
class TracedTransport final : public transport::Transport {
 public:
  TracedTransport(transport::Transport& inner, const TraceSlot& slot)
      : inner_(inner), slot_(slot) {}

  void connect(ProcessId p, transport::DeliveryFn sink) override {
    inner_.connect(p, [this, sink = std::move(sink)](const sim::Message& m) {
      Span span(slot_.tracer, SpanId::kNodeReceive);
      sink(m);
    });
  }
  void disconnect(ProcessId p) override { inner_.disconnect(p); }
  sim::MessageId send(sim::Message m) override {
    Span span(slot_.tracer, SpanId::kNetworkSend);
    return inner_.send(std::move(m));
  }
  sim::Message make_message() override { return inner_.make_message(); }

 private:
  transport::Transport& inner_;
  const TraceSlot& slot_;
};

/// CheckpointingProtocol decorator: times the three per-message hooks.
class TracedProtocol final : public ckpt::CheckpointingProtocol {
 public:
  TracedProtocol(std::unique_ptr<ckpt::CheckpointingProtocol> inner,
                 const TraceSlot& slot)
      : inner_(std::move(inner)), slot_(slot) {}

  void initialize(ProcessId self, std::size_t n) override {
    inner_->initialize(self, n);
  }
  std::size_t control_words() const override {
    return inner_->control_words();
  }
  void on_send(ProcessId dst, std::vector<sim::ControlWord>& out) override {
    Span span(slot_.tracer, SpanId::kProtocolOnSend);
    inner_->on_send(dst, out);
  }
  bool must_force(const causality::DependencyVector& dv, const sim::Message& m,
                  bool sent_since_checkpoint) const override {
    Span span(slot_.tracer, SpanId::kProtocolMustForce);
    return inner_->must_force(dv, m, sent_since_checkpoint);
  }
  void on_deliver(const sim::Message& m) override {
    Span span(slot_.tracer, SpanId::kProtocolOnDeliver);
    inner_->on_deliver(m);
  }
  void on_checkpoint(ccp::CheckpointKind kind) override {
    inner_->on_checkpoint(kind);
  }
  void on_rollback() override { inner_->on_rollback(); }
  bool ensures_rdt() const override { return inner_->ensures_rdt(); }
  bool ensures_no_useless() const override {
    return inner_->ensures_no_useless();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ckpt::CheckpointingProtocol> inner_;
  const TraceSlot& slot_;
};

/// GarbageCollector decorator: times the Algorithm-2 receive rebind and the
/// checkpoint hook (Algorithm 1 plus its collects into the store).
class TracedGc final : public ckpt::GarbageCollector {
 public:
  TracedGc(std::unique_ptr<ckpt::GarbageCollector> inner,
           const TraceSlot& slot)
      : inner_(std::move(inner)), slot_(slot) {}

  void initialize(ProcessId self, std::size_t n,
                  ckpt::ShardedCheckpointStore& store) override {
    inner_->initialize(self, n, store);
  }
  void on_new_dependency(ProcessId j) override {
    inner_->on_new_dependency(j);
  }
  void on_new_dependencies(std::span<const ProcessId> changed) override {
    Span span(slot_.tracer, SpanId::kGcNewDependencies);
    inner_->on_new_dependencies(changed);
  }
  void on_checkpoint_stored(CheckpointIndex index) override {
    Span span(slot_.tracer, SpanId::kGcCheckpointStored);
    inner_->on_checkpoint_stored(index);
  }
  void on_rollback(const ckpt::RollbackInfo& info,
                   const causality::DependencyVector& dv) override {
    inner_->on_rollback(info, dv);
  }
  void on_peer_recovery(const std::vector<IntervalIndex>& li,
                        const causality::DependencyVector& dv) override {
    inner_->on_peer_recovery(li, dv);
  }
  void on_attach(const causality::DependencyVector& dv) override {
    inner_->on_attach(dv);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ckpt::GarbageCollector> inner_;
  const TraceSlot& slot_;
};

sim::Network::Config network_config(bool manual) {
  sim::Network::Config c;
  c.manual = manual;
  return c;
}

}  // namespace

Rig::Rig(const RigConfig& config)
    : recorder_(config.process_count),
      network_(simulator_, util::Rng(config.seed ^ 0x6e6574ULL),
               network_config(config.manual)) {
  if (config.traced)
    traced_transport_ = std::make_unique<TracedTransport>(network_, slot_);
  transport::Transport& wire =
      traced_transport_ ? *traced_transport_
                        : static_cast<transport::Transport&>(network_);
  ckpt::Node::Config node_config;
  node_config.storage = config.storage;
  nodes_.reserve(config.process_count);
  for (std::size_t p = 0; p < config.process_count; ++p) {
    std::unique_ptr<ckpt::CheckpointingProtocol> protocol =
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas);
    std::unique_ptr<ckpt::GarbageCollector> gc;
    if (config.no_gc) {
      gc = std::make_unique<ckpt::NoGc>();
    } else {
      gc = std::make_unique<core::RdtLgc>();
    }
    if (config.traced) {
      protocol = std::make_unique<TracedProtocol>(std::move(protocol), slot_);
      gc = std::make_unique<TracedGc>(std::move(gc), slot_);
    }
    nodes_.push_back(std::make_unique<ckpt::Node>(
        static_cast<ProcessId>(p), config.process_count, simulator_, wire,
        recorder_, std::move(protocol), std::move(gc), node_config));
  }
}

std::string Rig::check_retained_sets() const {
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<ProcessId>(i);
    const ckpt::ShardedCheckpointStore& store = node(p).store();
    const std::vector<CheckpointIndex> expected =
        ccp::retained_corollary1(recorder_, p);
    const std::vector<CheckpointIndex> stored = store.stored_indices();
    std::ostringstream os;
    if (stored != expected) {
      os << "p" << p << " stores " << stored.size()
         << " checkpoints, Corollary 1 retains " << expected.size();
      const auto [s, e] =
          std::mismatch(stored.begin(), stored.end(), expected.begin(),
                        expected.end());
      if (s != stored.end()) os << "; first stored-only index " << *s;
      if (e != expected.end()) os << "; first missing index " << *e;
    } else if (store.count() > n) {
      os << "p" << p << " ends with " << store.count()
         << " stored checkpoints > n";
    } else if (store.stats().peak_count > n + 1) {
      os << "p" << p << " peaked at " << store.stats().peak_count
         << " stored checkpoints > n+1";
    }
    if (os.tellp() > 0) return os.str();
  }
  return {};
}

std::size_t Rig::stored_peak() const {
  std::size_t peak = 0;
  for (const auto& node : nodes_)
    peak = std::max(peak, node->store().stats().peak_count);
  return peak;
}

std::uint64_t Rig::forced_checkpoints() const {
  std::uint64_t forced = 0;
  for (const auto& node : nodes_) forced += node->counters().forced_checkpoints;
  return forced;
}

std::uint64_t Rig::delivered() const { return network_.stats().delivered; }

}  // namespace perfbench
