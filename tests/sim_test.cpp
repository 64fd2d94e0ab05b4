// Unit tests for the discrete-event simulator and the network model.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/system.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rdtgc::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.at(30, [&] { order.push_back(3); });
  simulator.at(10, [&] { order.push_back(1); });
  simulator.at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30u);
  EXPECT_EQ(simulator.events_processed(), 3u);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) simulator.at(5, [&, i] { order.push_back(i); });
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.at(1, [&] {
    ++fired;
    simulator.after(5, [&] { ++fired; });
  });
  simulator.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 6u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator simulator;
  simulator.at(10, [] {});
  simulator.run();
  EXPECT_THROW(simulator.at(5, [] {}), util::ContractViolation);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  int fired = 0;
  simulator.at(5, [&] { ++fired; });
  simulator.at(15, [&] { ++fired; });
  simulator.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), 10u);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunWithEventBudget) {
  Simulator simulator;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) simulator.at(static_cast<SimTime>(i), [&] { ++fired; });
  EXPECT_EQ(simulator.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator simulator;
  EXPECT_FALSE(simulator.step());
}

Message make_message(ProcessId src, ProcessId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.dv = causality::DependencyVector(2);
  m.bytes = 10;
  return m;
}

TEST(Network, DeliversWithinDelayBounds) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 3;
  config.max_delay = 7;
  Network network(simulator, util::Rng(1), config);
  SimTime delivered_at = 0;
  network.connect(1, [&](const Message&) { delivered_at = simulator.now(); });
  network.connect(0, [](const Message&) {});
  network.send(make_message(0, 1));
  simulator.run();
  EXPECT_GE(delivered_at, 3u);
  EXPECT_LE(delivered_at, 7u);
  EXPECT_EQ(network.stats().sent, 1u);
  EXPECT_EQ(network.stats().delivered, 1u);
  EXPECT_EQ(network.stats().bytes_sent, 10u);
}

TEST(Network, LosesMessagesWhenConfigured) {
  Simulator simulator;
  Network::Config config;
  config.loss_probability = 1.0;
  Network network(simulator, util::Rng(1), config);
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  for (int i = 0; i < 20; ++i) network.send(make_message(0, 1));
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().lost, 20u);
}

TEST(Network, FifoOrdersPerChannel) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 1;
  config.max_delay = 50;
  config.fifo = true;
  Network network(simulator, util::Rng(3), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  std::vector<MessageId> sent;
  for (int i = 0; i < 20; ++i) sent.push_back(network.send(make_message(0, 1)));
  simulator.run();
  EXPECT_EQ(received, sent);
}

TEST(Network, OutOfOrderPossibleWithoutFifo) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 1;
  config.max_delay = 50;
  Network network(simulator, util::Rng(3), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  std::vector<MessageId> sent;
  for (int i = 0; i < 30; ++i) sent.push_back(network.send(make_message(0, 1)));
  simulator.run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_NE(received, sent);  // overwhelmingly likely with 30 msgs over [1,50]
}

TEST(Network, DropInFlightDiscardsScheduledDeliveries) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.send(make_message(0, 1));
  network.send(make_message(0, 1));
  EXPECT_EQ(network.in_flight(), 2u);
  network.drop_in_flight();
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_in_flight, 2u);
  EXPECT_EQ(network.in_flight(), 0u);
}

TEST(Network, PauseHoldsAndResumeDelivers) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.pause();
  network.send(make_message(0, 1));
  simulator.run();
  EXPECT_EQ(received, 0);  // frozen
  network.resume();
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, PauseCatchesSurfacingDeliveries) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.send(make_message(0, 1));  // scheduled before the pause
  network.pause();
  simulator.run();  // delivery event fires but must be held
  EXPECT_EQ(received, 0);
  network.resume();
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, ManualModeParksAndDeliversOnDemand) {
  Simulator simulator;
  Network::Config config;
  config.manual = true;
  Network network(simulator, util::Rng(1), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  const MessageId a = network.send(make_message(0, 1));
  const MessageId b = network.send(make_message(0, 1));
  simulator.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(network.parked(), (std::vector<MessageId>{a, b}));
  network.deliver_now(b);  // out of order on purpose
  network.deliver_now(a);
  EXPECT_EQ(received, (std::vector<MessageId>{b, a}));
  EXPECT_TRUE(network.parked().empty());
}

TEST(Network, ManualDeliverUnknownIdRejected) {
  Simulator simulator;
  Network::Config config;
  config.manual = true;
  Network network(simulator, util::Rng(1), config);
  network.connect(1, [](const Message&) {});
  EXPECT_THROW(network.deliver_now(99), util::ContractViolation);
}

TEST(Network, PreservesCallerAssignedIds) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  MessageId seen = 0;
  network.connect(1, [&](const Message& m) { seen = m.id; });
  Message m = make_message(0, 1);
  m.id = 4242;
  network.send(std::move(m));
  simulator.run();
  EXPECT_EQ(seen, 4242u);
}

TEST(Network, RejectsSendToUnconnectedDestination) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  EXPECT_THROW(network.send(make_message(0, 1)), util::ContractViolation);
}

TEST(Network, RejectsDoubleConnect) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  network.connect(0, [](const Message&) {});
  EXPECT_THROW(network.connect(0, [](const Message&) {}),
               util::ContractViolation);
}

// ---- Determinism pin -------------------------------------------------------

/// FNV-1a over a sequence of 64-bit words.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }
};

/// A seeded run with random delays and losses, a recovery session (pause,
/// drop_in_flight, resume) and a process restart from its log (disconnect,
/// reconnect), hashed over every recorded message and checkpoint and the
/// final DVs.  The digest pins the execution: any change to the (time,
/// seq) event order, the delay draws or the drop paths moves it.
TEST(Determinism, SeededSystemRunMatchesItsRecordedDigest) {
  constexpr std::size_t n = 5;
  test::ScratchDir dir("determinism");
  harness::SystemConfig config;
  config.process_count = n;
  config.seed = 4242;
  config.network.loss_probability = 0.02;
  config.node.storage.kind = ckpt::StorageBackendKind::kLogStructured;
  config.node.storage.directory = dir.path();
  harness::System system(config);
  workload::WorkloadConfig wl;
  wl.seed = 99;
  wl.checkpoint_probability = 0.3;
  workload::WorkloadDriver driver(system.simulator(), system.node_provider(), n,
                                  wl);
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(), system.node_provider(),
                                    recovery::RecoveryManager::Config());
  driver.start(6000);
  system.simulator().run_until(2000);
  manager.recover({1});
  system.simulator().run_until(4000);
  system.restart_node(3);
  system.simulator().run();

  Digest digest;
  const ccp::CcpRecorder& recorder = system.recorder();
  for (const ccp::MessageInfo& m : recorder.messages()) {
    digest.add(static_cast<std::uint64_t>(m.src));
    digest.add(static_cast<std::uint64_t>(m.dst));
    digest.add(m.send_serial);
    digest.add(m.recv_serial);
    digest.add(static_cast<std::uint64_t>(m.recv_interval));
  }
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    for (const ccp::CheckpointInfo& c : recorder.checkpoints(p))
      digest.add(c.serial);
    for (const IntervalIndex entry : system.node(p).dv().entries())
      digest.add(static_cast<std::uint64_t>(entry));
  }
  const Network::Stats& stats = system.network().stats();
  EXPECT_EQ(stats.delivered + stats.lost + stats.dropped_in_flight,
            stats.sent);
  EXPECT_GT(stats.dropped_in_flight, 0u);
  EXPECT_GE(recorder.stats().rollbacks, 1u);
  EXPECT_EQ(recorder.stats().restarts, 1u);
  EXPECT_EQ(digest.value, 0x7a955f4a19af320cull) << std::hex << digest.value;
}

}  // namespace
}  // namespace rdtgc::sim
