// Hot-path contract tests for the allocation-free receive path:
//  * property-style equivalence of the batched APIs against the per-peer
//    reference sequences they coalesce (UcTable::rebind_to vs release+link,
//    RdtLgc::on_new_dependencies vs on_new_dependency, whole-system batched
//    vs per-peer delivery on randomized workloads);
//  * a zero-allocation guarantee for the steady-state receive
//    (merge_into + on_new_dependencies + CCB/store maintenance), for a whole
//    unobserved Node's checkpoint/send/deliver cycle (wired like a fleet
//    worker: no recorder, a stopped clock) one way and both ways, for
//    deliveries scheduled through Simulator::run, and for the socket hops
//    a fleet frame takes (send_frame + recv_frame, and a FrameQueue flush
//    of several frames in one datagram handed out frame by frame by a
//    TimedReceiver), for the event-log line the fleet parent appends per
//    frame and for the sends and unforced deliveries it feeds its
//    FleetMirror, enforced with a global operator new/delete counting
//    hook.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "ccp/observer.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "core/rdt_lgc.hpp"
#include "core/uc_table.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/event_log.hpp"
#include "transport/fleet_mirror.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

// ---- Allocation-counting hook -------------------------------------------
//
// Replaces the global (unaligned) new/delete pair with malloc/free plus a
// counter.  Replacement is per-binary, so only this test sees it; the
// aligned overloads keep their defaults (replaced and default operators pair
// correctly as long as whole new/delete families are swapped together).

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rdtgc {
namespace {

// ---- merge_into vs merge -------------------------------------------------

causality::DependencyVector random_dv(std::size_t n, util::Rng& rng,
                                      std::uint64_t bound) {
  causality::DependencyVector dv(n);
  for (std::size_t j = 0; j < n; ++j)
    dv.at(static_cast<ProcessId>(j)) =
        static_cast<IntervalIndex>(rng.uniform(bound));
  return dv;
}

TEST(HotPathMerge, MergeIntoMatchesMergeOnRandomizedVectors) {
  util::Rng rng(20260725);
  for (const std::size_t n : {1u, 2u, 5u, 16u, 64u}) {
    causality::ChangedSet changed(n);
    for (int round = 0; round < 200; ++round) {
      const auto mine = random_dv(n, rng, 6);
      const auto msg = random_dv(n, rng, 6);
      auto via_merge = mine;
      auto via_merge_into = mine;
      const std::vector<ProcessId> expected = via_merge.merge(msg);
      via_merge_into.merge_into(msg, changed);
      ASSERT_EQ(changed.to_vector(), expected) << "n=" << n;
      ASSERT_EQ(via_merge_into, via_merge) << "n=" << n;
    }
  }
}

TEST(HotPathMerge, MergeIntoClearsPreviousContents) {
  causality::DependencyVector mine(3), msg(3);
  causality::ChangedSet changed;
  msg.at(1) = 1;
  mine.merge_into(msg, changed);
  ASSERT_EQ(changed.to_vector(), (std::vector<ProcessId>{1}));
  mine.merge_into(msg, changed);  // nothing new now
  EXPECT_TRUE(changed.empty());
}

// ---- UcTable::rebind_to vs release+link ----------------------------------

/// One table driven through rebind_to, one through the per-peer reference
/// sequence, fed identical checkpoint/receive events; every observable must
/// match after each event, including the eliminate-callback sequences.
struct TablePair {
  std::vector<CheckpointIndex> batched_dead, reference_dead;
  core::UcTable batched, reference;

  explicit TablePair(std::size_t n)
      : batched(n, [this](CheckpointIndex i) { batched_dead.push_back(i); }),
        reference(n,
                  [this](CheckpointIndex i) { reference_dead.push_back(i); }) {}

  void checkpoint(ProcessId self, CheckpointIndex index) {
    batched.release(self);
    batched.new_ccb(self, index);
    reference.release(self);
    reference.new_ccb(self, index);
  }

  void receive(const std::vector<ProcessId>& changed, ProcessId self) {
    batched.rebind_to({changed.data(), changed.size()}, self);
    for (const ProcessId j : changed) {
      reference.release(j);
      reference.link(j, self);
    }
  }

  void expect_identical(std::size_t n) {
    ASSERT_EQ(batched.to_string(), reference.to_string());
    ASSERT_EQ(batched.tracked_checkpoints(), reference.tracked_checkpoints());
    for (const CheckpointIndex g : batched.tracked_checkpoints())
      ASSERT_EQ(batched.ref_count(g), reference.ref_count(g)) << "ccb " << g;
    for (ProcessId j = 0; j < static_cast<ProcessId>(n); ++j)
      ASSERT_EQ(batched.entry(j), reference.entry(j)) << "UC[" << j << "]";
    ASSERT_EQ(batched_dead, reference_dead) << "elimination sequences differ";
  }
};

TEST(HotPathUcTable, RebindMatchesReleaseLinkOnRandomizedSequences) {
  util::Rng rng(42);
  for (const std::size_t n : {2u, 3u, 8u, 32u}) {
    TablePair pair(n);
    const ProcessId self = 0;
    CheckpointIndex next = 0;
    pair.checkpoint(self, next++);
    for (int event = 0; event < 300; ++event) {
      if (rng.bernoulli(0.3)) {
        pair.checkpoint(self, next++);
      } else {
        // Random subset of peers, increasing ids, as merge_into produces.
        std::vector<ProcessId> changed;
        for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
          if (rng.bernoulli(0.4)) changed.push_back(j);
        pair.receive(changed, self);
      }
      pair.expect_identical(n);
    }
  }
}

TEST(HotPathUcTable, RebindEmptyBatchIsANoOp) {
  core::UcTable table(3, [](CheckpointIndex) { FAIL() << "eliminated"; });
  table.new_ccb(0, 0);
  table.rebind_to({}, 0);
  EXPECT_EQ(table.ref_count(0), 1);
}

TEST(HotPathUcTable, RebindSkipsPeersAlreadyOnSelfCheckpoint) {
  std::vector<CheckpointIndex> dead;
  core::UcTable table(3, [&](CheckpointIndex i) { dead.push_back(i); });
  table.new_ccb(0, 0);
  const std::vector<ProcessId> both{1, 2};
  table.rebind_to({both.data(), both.size()}, 0);
  EXPECT_EQ(table.ref_count(0), 3);
  table.rebind_to({both.data(), both.size()}, 0);  // all already bound
  EXPECT_EQ(table.ref_count(0), 3);
  EXPECT_TRUE(dead.empty());
}

TEST(HotPathUcTable, RebindEliminatesAbandonedCheckpointInOrder) {
  std::vector<CheckpointIndex> dead;
  core::UcTable table(4, [&](CheckpointIndex i) { dead.push_back(i); });
  table.new_ccb(0, 0);
  const std::vector<ProcessId> all{1, 2, 3};
  table.rebind_to({all.data(), all.size()}, 0);  // all pin s^0
  table.release(0);
  table.new_ccb(0, 1);  // s^0 still pinned by the three peers
  table.rebind_to({all.data(), all.size()}, 0);
  EXPECT_EQ(dead, (std::vector<CheckpointIndex>{0}));
  EXPECT_EQ(table.ref_count(1), 4);
  EXPECT_EQ(table.ref_count(0), 0);
}

TEST(HotPathUcTable, RebindContractViolations) {
  core::UcTable table(3, [](CheckpointIndex) {});
  const std::vector<ProcessId> peer{1};
  // UC[self] must be set.
  EXPECT_THROW(table.rebind_to({peer.data(), peer.size()}, 0),
               util::ContractViolation);
  table.new_ccb(0, 0);
  // self must not appear in the batch.
  const std::vector<ProcessId> with_self{0, 1};
  EXPECT_THROW(table.rebind_to({with_self.data(), with_self.size()}, 0),
               util::ContractViolation);
  // ids must be in range.
  const std::vector<ProcessId> oob{3};
  EXPECT_THROW(table.rebind_to({oob.data(), oob.size()}, 0),
               util::ContractViolation);
}

// ---- RdtLgc::on_new_dependencies vs on_new_dependency --------------------

struct LgcRig {
  ckpt::ShardedCheckpointStore store;
  core::RdtLgc lgc;
  causality::DependencyVector dv;

  LgcRig(ProcessId self, std::size_t n) : store(self), dv(n) {
    lgc.initialize(self, n, store);
    store.put(ckpt::StoredCheckpoint{0, dv, 0, 1});
    lgc.on_checkpoint_stored(0);
    dv.at(self) += 1;
  }

  void checkpoint(ProcessId self) {
    const CheckpointIndex index = dv[self];
    store.put(index, dv, 0, 1);  // copy-in put: recycled DV buffer
    lgc.on_checkpoint_stored(index);
    dv.at(self) += 1;
  }
};

TEST(HotPathRdtLgc, BatchedHookMatchesPerPeerHookOnRandomizedEvents) {
  util::Rng rng(7);
  const std::size_t n = 8;
  const ProcessId self = 0;
  LgcRig batched(self, n), reference(self, n);
  for (int event = 0; event < 400; ++event) {
    if (rng.bernoulli(0.3)) {
      batched.checkpoint(self);
      reference.checkpoint(self);
    } else {
      std::vector<ProcessId> changed;
      for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
        if (rng.bernoulli(0.4)) changed.push_back(j);
      batched.lgc.on_new_dependencies({changed.data(), changed.size()});
      for (const ProcessId j : changed) reference.lgc.on_new_dependency(j);
    }
    ASSERT_EQ(batched.lgc.uc().to_string(), reference.lgc.uc().to_string());
    ASSERT_EQ(batched.lgc.collected(), reference.lgc.collected());
    ASSERT_EQ(batched.store.stored_indices(), reference.store.stored_indices());
  }
  EXPECT_GT(batched.lgc.collected(), 0u);
}

// ---- Whole-system equivalence --------------------------------------------

/// Collector that hands Algorithm 2's receive hook to RDT-LGC one peer at
/// a time: it overrides on_new_dependency only, so the base class's
/// on_new_dependencies loop drives the per-peer reference path.
class PerPeerRdtLgc final : public ckpt::GarbageCollector {
 public:
  const core::RdtLgc& lgc() const { return lgc_; }

  void initialize(ProcessId self, std::size_t n,
                  ckpt::ShardedCheckpointStore& store) override {
    lgc_.initialize(self, n, store);
  }
  void on_new_dependency(ProcessId j) override { lgc_.on_new_dependency(j); }
  void on_checkpoint_stored(CheckpointIndex index) override {
    lgc_.on_checkpoint_stored(index);
  }
  void on_rollback(const ckpt::RollbackInfo& info,
                   const causality::DependencyVector& dv) override {
    lgc_.on_rollback(info, dv);
  }
  std::string name() const override { return lgc_.name(); }

 private:
  core::RdtLgc lgc_;
};

/// The per-peer twin of a harness::System: the same simulator, network,
/// recorder and FDAS nodes, each node collecting through PerPeerRdtLgc.
struct PerPeerSystem {
  sim::Simulator simulator;
  ccp::CcpRecorder recorder;
  sim::Network network;
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  std::vector<const PerPeerRdtLgc*> collectors;

  PerPeerSystem(std::size_t n, std::uint64_t seed)
      : recorder(n),
        network(simulator, util::Rng(seed ^ 0x6e6574ULL),
                sim::Network::Config()) {
    for (std::size_t p = 0; p < n; ++p) {
      auto gc = std::make_unique<PerPeerRdtLgc>();
      collectors.push_back(gc.get());
      nodes.push_back(std::make_unique<ckpt::Node>(
          static_cast<ProcessId>(p), n, simulator, network, recorder,
          ckpt::make_protocol(ckpt::ProtocolKind::kFdas), std::move(gc)));
    }
  }

  std::vector<ckpt::Node*> node_ptrs() {
    std::vector<ckpt::Node*> ptrs;
    for (const auto& node : nodes) ptrs.push_back(node.get());
    return ptrs;
  }
};

TEST(HotPathSystem, BatchedAndPerPeerDeliveriesProduceIdenticalRuns) {
  for (const std::uint64_t seed : {3u, 19u}) {
    harness::SystemConfig config;
    config.process_count = 4;
    config.gc = harness::GcChoice::kRdtLgc;
    config.seed = seed;
    harness::System batched(config);
    PerPeerSystem per_peer(config.process_count, seed);

    workload::WorkloadConfig wl;
    wl.seed = seed * 31 + 1;
    {
      workload::WorkloadDriver driver(batched.simulator(), batched.node_ptrs(),
                                      wl);
      driver.start(2000);
      batched.simulator().run();
    }
    {
      workload::WorkloadDriver driver(per_peer.simulator, per_peer.node_ptrs(),
                                      wl);
      driver.start(2000);
      per_peer.simulator.run();
    }

    for (ProcessId p = 0; p < 4; ++p) {
      const auto k = static_cast<std::size_t>(p);
      ASSERT_EQ(batched.node(p).store().stored_indices(),
                per_peer.nodes[k]->store().stored_indices())
          << "seed " << seed << " p" << p;
      ASSERT_EQ(batched.rdt_lgc(p).uc().to_string(),
                per_peer.collectors[k]->lgc().uc().to_string())
          << "seed " << seed << " p" << p;
      ASSERT_EQ(batched.rdt_lgc(p).collected(),
                per_peer.collectors[k]->lgc().collected())
          << "seed " << seed << " p" << p;
    }
    test::audit_exact_corollary1(batched);
  }
}

// ---- Zero allocations on the steady-state receive ------------------------

TEST(HotPathAllocations, SteadyStateBatchedReceiveIsAllocationFree) {
  const std::size_t n = 64;
  const ProcessId self = 0;
  LgcRig rig(self, n);
  causality::DependencyVector msg(n);
  causality::ChangedSet changed(n);

  IntervalIndex tick = 0;
  auto receive_all = [&] {
    // A delivery raising every peer entry: the worst-case receive.
    ++tick;
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
      msg.at(j) = tick;
    rig.dv.merge_into(msg, changed);
    rig.lgc.on_new_dependencies(changed.span());
  };
  // Warm-up: bind every UC entry, fill the scratch buffer, and run enough
  // checkpoint+receive cycles that the store's recycled spare DV buffer
  // and flat-vector capacity are primed before the measured window starts.
  receive_all();
  for (int lap = 0; lap < 16; ++lap) {
    rig.checkpoint(self);
    receive_all();
  }

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 100; ++round) {
    // Full steady-state cycle: store a checkpoint (copy-in put into the
    // recycled buffer), then a worst-case receive that
    // rebinds all n-1 peers and eliminates the abandoned checkpoint
    // through the store.
    rig.checkpoint(self);
    receive_all();
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state checkpoint/receive churn touched the heap";
  EXPECT_GE(rig.lgc.collected(), 100u);  // eliminations did happen
}

TEST(HotPathAllocations, UnobservedNodeCycleIsAllocationFree) {
  // Nodes wired like a fleet worker: the default observer (no recorder)
  // and a clock that never moves.  Only the transport differs — a manual
  // sim::Network, so one thread drives both ends.  Nothing on this path
  // grows per event, so once warm the checkpoint/send/deliver cycle of
  // BM_ReceivePath never touches the heap, with no reserve() anywhere.
  const std::size_t n = 8;
  sim::Simulator network_time;
  sim::Network::Config manual;
  manual.manual = true;
  sim::Network network(network_time, util::Rng(7), manual);
  ccp::NodeObserver observer;
  const sim::Clock clock;
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  for (std::size_t p = 0; p < n; ++p)
    nodes.push_back(std::make_unique<ckpt::Node>(
        static_cast<ProcessId>(p), n, clock, network, observer,
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
        std::make_unique<core::RdtLgc>()));
  ckpt::Node& sender = *nodes[1];
  ckpt::Node& receiver = *nodes[0];
  const auto cycle = [&] {
    sender.take_basic_checkpoint();
    network.deliver_now(sender.send_app_message(receiver.id()));
  };
  for (int round = 0; round < 64; ++round) cycle();

  constexpr int kCycles = 10000;
  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < kCycles; ++round) cycle();
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "an unobserved node's checkpoint/send/deliver cycle touched the heap";
  // The cycles really ran, every delivery brought a new dependency, and
  // the collector kept the sender's store within the paper's n+1 bound.
  EXPECT_EQ(receiver.counters().messages_received, 64u + kCycles);
  EXPECT_EQ(receiver.dv()[sender.id()], sender.dv()[sender.id()]);
  EXPECT_GE(sender.store().stats().collected,
            static_cast<std::uint64_t>(kCycles));
  EXPECT_LE(sender.store().count(), n + 1);
}

TEST(HotPathAllocations, TwoWayFdasCycleIsAllocationFree) {
  // Two unobserved FDAS nodes exchanging messages both ways after a basic
  // checkpoint at a: the b->a delivery forces a checkpoint at a, and the
  // merge then releases both of a's older checkpoints.  The read store
  // keeps both collected shells on its spare stack, so the next puts reuse
  // their DV buffers instead of allocating.
  const std::size_t n = 8;
  sim::Simulator network_time;
  sim::Network::Config manual;
  manual.manual = true;
  sim::Network network(network_time, util::Rng(11), manual);
  ccp::NodeObserver observer;
  const sim::Clock clock;
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  for (std::size_t p = 0; p < n; ++p)
    nodes.push_back(std::make_unique<ckpt::Node>(
        static_cast<ProcessId>(p), n, clock, network, observer,
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
        std::make_unique<core::RdtLgc>()));
  ckpt::Node& a = *nodes[0];
  ckpt::Node& b = *nodes[1];
  const auto cycle = [&] {
    a.take_basic_checkpoint();
    network.deliver_now(a.send_app_message(b.id()));
    network.deliver_now(b.send_app_message(a.id()));
  };
  for (int round = 0; round < 64; ++round) cycle();

  constexpr int kCycles = 1000;
  const std::uint64_t forced_before = a.counters().forced_checkpoints;
  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < kCycles; ++round) cycle();
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "a two-way FDAS checkpoint/send/deliver cycle touched the heap";
  // Every b->a delivery forced a checkpoint at a, and the collector kept
  // a's store within the paper's n+1 bound.
  EXPECT_EQ(a.counters().forced_checkpoints - forced_before,
            static_cast<std::uint64_t>(kCycles));
  EXPECT_LE(a.store().count(), n + 1);
}

TEST(HotPathAllocations, ScheduledDeliveryLoopIsAllocationFree) {
  // Nodes over a non-manual network driven by Simulator::run: each
  // delivery is a simulator event, so this pins the event heap (no Action
  // copy per step), the network's slot table (a two-word delivery closure
  // that fits std::function's inline buffer) and its spare stack (two
  // messages in flight at once both get recycled buffers).
  const std::size_t n = 8;
  sim::Simulator simulator;
  sim::Network network(simulator, util::Rng(5), sim::Network::Config{});
  ccp::NodeObserver observer;
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  for (std::size_t p = 0; p < n; ++p)
    nodes.push_back(std::make_unique<ckpt::Node>(
        static_cast<ProcessId>(p), n, simulator, network, observer,
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
        std::make_unique<core::RdtLgc>()));
  ckpt::Node& receiver = *nodes[0];
  const auto cycle = [&] {
    nodes[1]->take_basic_checkpoint();
    nodes[1]->send_app_message(receiver.id());
    nodes[2]->send_app_message(receiver.id());
    simulator.run();
  };
  for (int round = 0; round < 64; ++round) cycle();

  constexpr int kCycles = 10000;
  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < kCycles; ++round) cycle();
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "a scheduled send/deliver cycle touched the heap";
  EXPECT_EQ(receiver.counters().messages_received, 2u * (64u + kCycles));
  EXPECT_EQ(network.stats().delivered, 2u * (64u + kCycles));
  EXPECT_EQ(network.in_flight(), 0u);
  EXPECT_EQ(simulator.pending(), 0u);
}

// ---- Zero allocations in the store and the recorder ----------------------

TEST(HotPathAllocations, RecorderArenaMakesRecordingAllocationFree) {
  // The recorder's per-process history arena (SoA rows, ccp/recorder.hpp)
  // replaces the old one-heap-vector-per-recorded-checkpoint layout; after
  // reserve() a whole run of record_checkpoint calls is zero-allocation,
  // and rollback truncation keeps the capacity for the re-execution.
  const std::size_t n = 16;
  ccp::CcpRecorder recorder(n);
  causality::DependencyVector dv(n);
  recorder.reserve(256);

  const std::uint64_t before = g_allocation_count.load();
  for (CheckpointIndex idx = 0; idx < 200; ++idx) {
    dv.at(3) = idx;
    recorder.record_checkpoint(3, idx, dv, ccp::CheckpointKind::kBasic);
    dv.at(3) = idx + 1;  // interval advances past the new checkpoint
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "recording into the reserved arena touched the heap";
  // The rows really landed in the arena and read back exactly.
  for (CheckpointIndex idx = 0; idx < 200; idx += 50) {
    const causality::DvView view = recorder.checkpoint_dv(3, idx);
    ASSERT_EQ(view[3], idx);
  }
  // Rollback truncates rows; re-recording reuses the freed capacity.
  recorder.record_rollback(3, 99);
  const std::uint64_t after_rollback = g_allocation_count.load();
  dv.at(3) = 100;
  for (CheckpointIndex idx = 100; idx < 200; ++idx) {
    recorder.record_checkpoint(3, idx, dv, ccp::CheckpointKind::kBasic);
    dv.at(3) = idx + 1;
  }
  EXPECT_EQ(g_allocation_count.load() - after_rollback, 0u)
      << "re-recording after rollback touched the heap";
}

TEST(HotPathAllocations, ShardedStoreChurnIsAllocationFree) {
  // Drive the store directly (no GC) through the put/collect churn every
  // collector produces, and require that once the spare buffer and vector
  // capacity are warm the churn — including the stored_indices() view —
  // never touches the heap.
  const std::size_t n = 32;
  ckpt::ShardedCheckpointStore store(0);
  causality::DependencyVector dv(n);
  constexpr CheckpointIndex window = 16;
  CheckpointIndex next = 0;
  // Warm-up: fill a window, then collect half of it so a spare is recycled.
  for (; next < window; ++next) store.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
  (void)store.stored_indices();

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 200; ++round) {
    store.put(next, dv, 0, 1);  // copy-in put: the recycled buffer
    store.collect(next - window / 2);
    ASSERT_FALSE(store.stored_indices().empty());
    ++next;
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state put/collect churn touched the heap";
  // The churn really ran: every put and collect was counted.
  EXPECT_EQ(store.stats().stored, static_cast<std::uint64_t>(window + 200));
  EXPECT_EQ(store.stats().collected,
            static_cast<std::uint64_t>(window / 2 + 200));
  EXPECT_EQ(store.count(), static_cast<std::size_t>(window / 2));
}

TEST(HotPathAllocations, PersistentChurnIsAllocationFreeUnderEveryPolicy) {
  // The async-durability hot-path contract: with a persistent medium the
  // acknowledge path — read-store put/collect plus a record into the
  // pipeline's reserved window slots — must stay allocation-free under both
  // DurabilityPolicy modes once warm, INCLUDING the inline group commits
  // the kGroupCommit churn triggers (drains replay from the slots' reused
  // DV buffers).  Log compaction is configured out of reach: its copy path
  // is off the steady-state contract, exactly as under kSync.
  struct Case {
    ckpt::StorageBackendKind kind;
    ckpt::DurabilityPolicy policy;
    const char* name;
  };
  const Case cases[] = {
      {ckpt::StorageBackendKind::kLogStructured,
       ckpt::DurabilityPolicy::Sync(), "log_sync"},
      {ckpt::StorageBackendKind::kLogStructured,
       ckpt::DurabilityPolicy::GroupCommit(4), "log_group"},
      {ckpt::StorageBackendKind::kMmapFile, ckpt::DurabilityPolicy::Sync(),
       "mmap_sync"},
      {ckpt::StorageBackendKind::kMmapFile,
       ckpt::DurabilityPolicy::GroupCommit(4), "mmap_group"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    test::ScratchDir dir(std::string("hot_") + c.name);
    ckpt::StorageConfig config;
    config.kind = c.kind;
    config.directory = dir.path();
    config.initial_slots = 256;
    config.compact_min_records = 1u << 20;
    config.durability = c.policy;
    ckpt::ShardedCheckpointStore store(
        0, 1, ckpt::StoreConcurrency::kUnsynchronized, config);
    causality::DependencyVector dv(8);
    constexpr CheckpointIndex window = 16;
    CheckpointIndex next = 0;
    // Warm-up sizes the read store, its recycled spare, the pipeline's slot
    // DV buffers, and the media's live tables; the flush starts the
    // measured churn from a drained window.
    for (; next < window; ++next) store.put(next, dv, 0, 1);
    for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
    for (int round = 0; round < 64; ++round) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ++next;
    }
    store.flush();
    (void)store.stored_indices();

    const std::uint64_t before = g_allocation_count.load();
    for (int round = 0; round < 200; ++round) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ASSERT_FALSE(store.stored_indices().empty());
      ++next;
    }
    EXPECT_EQ(g_allocation_count.load() - before, 0u)
        << "persistent churn touched the heap under policy " << c.name;
    if (c.policy.mode == ckpt::DurabilityMode::kGroupCommit) {
      ASSERT_NE(store.pipeline(), nullptr);
      EXPECT_GT(store.pipeline()->commits(), 200u / 4u)
          << "the measured window never exercised an inline group commit";
    }
  }
}

TEST(HotPathAllocations, WarmSocketHopIsAllocationFree) {
  // The fleet's per-frame transport cost: once the receiving thread's
  // staging area exists and the caller's buffer has held the largest frame,
  // send_frame + recv_frame of an encoded Data frame never touch the heap.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds), 0);
  const transport::Fd tx(fds[0]);
  const transport::Fd rx(fds[1]);
  transport::DataBody body;
  body.send_interval = 3;
  body.bytes = 1;
  body.dv = {1, 4, 0, 2};
  transport::WireBuffer frame;
  transport::encode_data(frame, {0, 1, 0, 1}, body);
  transport::WireBuffer in;
  ASSERT_TRUE(transport::send_frame(tx.get(), frame, 1000));
  ASSERT_EQ(transport::recv_frame(rx.get(), in, 1000),
            transport::RecvStatus::kFrame);

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(transport::send_frame(tx.get(), frame, 1000));
    ASSERT_EQ(transport::recv_frame(rx.get(), in, 1000),
              transport::RecvStatus::kFrame);
    ASSERT_EQ(in.size(), frame.size());
  }
  EXPECT_EQ(transport::recv_frame(rx.get(), in, 0),
            transport::RecvStatus::kTimeout);
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "a warm socket hop touched the heap";
  EXPECT_EQ(in, frame);
}

TEST(HotPathAllocations, WarmQueuedHopIsAllocationFree) {
  // The fleet's hop: frames wait in a FrameQueue until the loop flushes
  // it in one datagram, and a TimedReceiver reads that datagram with one
  // recv and hands its frames out one per call.  Once the queue's buffers
  // have held a flush's frames, a hop never touches the heap.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds), 0);
  const transport::Fd tx(fds[0]);
  const transport::Fd rx(fds[1]);
  transport::DataBody body;
  body.send_interval = 3;
  body.bytes = 1;
  body.dv = {1, 4, 0, 2};
  transport::WireBuffer frame;
  transport::encode_data(frame, {0, 1, 0, 1}, body);
  transport::FrameQueue queue;
  transport::TimedReceiver receiver(rx.get(), 1000);
  std::span<const std::uint8_t> in;
  const std::size_t frames = 8;
  const auto hop = [&] {
    for (std::size_t i = 0; i < frames; ++i) queue.push(frame);
    ASSERT_EQ(queue.flush(tx.get()), 1);
    for (std::size_t i = 0; i < frames; ++i) {
      ASSERT_EQ(receiver.recv(), transport::RecvStatus::kFrame);
      in = receiver.frame();
      ASSERT_EQ(in.size(), frame.size());
      // All eight frames came in the one datagram.
      ASSERT_EQ(receiver.pending(), i + 1 < frames);
    }
    ASSERT_EQ(receiver.recv(transport::TimedReceiver::Clock::now()),
              transport::RecvStatus::kTimeout);
  };
  hop();

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 200; ++round) hop();
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "a warm queued hop touched the heap";
  EXPECT_EQ(transport::WireBuffer(in.begin(), in.end()), frame);
}

TEST(HotPathAllocations, ReusedEventAppendsWithoutAllocating) {
  // The fleet parent logs every Send, Deliver and Checkpoint frame through
  // one reused Event whose DV keeps its capacity.  Once the writer's line
  // buffer has held the longest line, an append formats into it and leaves
  // in one write(2) without touching the heap.
  test::ScratchDir dir("hot_path_event_log");
  transport::EventLogWriter log(dir.path() + "/events.log");
  const std::vector<IntervalIndex> dv = {1, 4, 0, 2};
  transport::Event e;
  const auto log_frames = [&](std::uint64_t seq) {
    e.kind = transport::EventKind::kSend;
    e.src = 1;
    e.src_incarnation = 0;
    e.seq = seq;
    e.dst = 2;
    e.interval = 4;
    e.bytes = 1;
    e.dv = dv;
    log.append(e);
    e.kind = transport::EventKind::kDeliver;
    e.incarnation = 0;
    e.forced = 1;
    e.dv = dv;
    log.append(e);
    e.kind = transport::EventKind::kCheckpoint;
    e.p = 2;
    e.index = 5;
    e.ckpt_kind = 0;
    e.dv = dv;
    log.append(e);
  };
  log_frames(1000000);

  const std::uint64_t before = g_allocation_count.load();
  for (std::uint64_t seq = 1000001; seq <= 1000200; ++seq) log_frames(seq);
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "an event-log append touched the heap";
  EXPECT_EQ(log.events_written(), 3u * 201);
}

TEST(HotPathAllocations, WarmMirrorDeliveryIsAllocationFree) {
  // The fleet parent's most frequent mirror updates on fleet-steady: a Data
  // frame's send check, then its unforced delivery, which appends a record
  // into kept capacity and overwrites the receiver's volatile DV in place.
  // Each round ends with the sender's basic checkpoint, which retires the
  // round's records (and stores a row, outside the count).
  transport::FleetMirror mirror(4);
  for (ProcessId p = 0; p < 4; ++p) {
    std::vector<IntervalIndex> dv(4, 0);
    dv[static_cast<std::size_t>(p)] = 1;
    ASSERT_TRUE(mirror.attach(p, 0, 0, dv)) << mirror.error();
  }
  std::vector<IntervalIndex> sender = {1, 0, 0, 0};
  std::vector<IntervalIndex> receiver = {1, 1, 0, 0};
  std::uint64_t seq = 0;
  std::uint64_t allocations = 0;
  for (IntervalIndex round = 1; round <= 100; ++round) {
    sender[0] = receiver[0] = round;
    const std::uint64_t before = g_allocation_count.load();
    for (int k = 0; k < 32; ++k) {
      ASSERT_TRUE(mirror.send(0, round, sender)) << mirror.error();
      ASSERT_TRUE(mirror.deliver(transport::Delivery{0, 0, ++seq, round, 1, 1},
                                 false, receiver))
          << mirror.error();
    }
    // The first two rounds warm the record vector's capacity.
    if (round > 2) allocations += g_allocation_count.load() - before;
    ASSERT_TRUE(mirror.checkpoint(0, round, sender)) << mirror.error();
    ASSERT_EQ(mirror.delivered_records(), 0u);
  }
  EXPECT_EQ(allocations, 0u) << "a warm mirror delivery touched the heap";
}

}  // namespace
}  // namespace rdtgc
