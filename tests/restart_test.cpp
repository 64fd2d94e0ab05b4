// Warm restart: a process dies and its replacement attaches to the
// persisted checkpoint lineage (ckpt::Node OpenMode::kAttach via
// harness::System::restart_node).
//
// The paper's recovery model (§2.2, Algorithm 3) restores a failed process
// from its stable storage; these tests pin the middleware analogue — the
// restarted Node resumes interval numbering past the highest persisted
// checkpoint, the CCP recorder keeps certifying the global line across the
// death (Theorem 1 oracle stays green), and parked/in-flight messages
// addressed to the dead incarnation drop instead of leaking into the new
// one.  The chaos soak (chaos_test.cpp) stresses the same path at scale;
// here every step is scripted.  An unobserved Node — wired like a fleet
// worker, with no recorder — re-attaches in-process too, and must come back
// exactly where its observed twin does.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccp/observer.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "core/rdt_lgc.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rdtgc {
namespace {

using ckpt::OpenMode;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using harness::Scenario;
using harness::System;
using harness::SystemConfig;
using test::ScratchDir;

StorageConfig media(StorageBackendKind kind, const std::string& directory) {
  StorageConfig config;
  config.kind = kind;
  config.directory = directory;
  config.initial_slots = 2;
  config.compact_min_records = 16;
  return config;
}

/// Scripted lineage with cross-process dependencies, so the attach has a
/// non-trivial DV to restore: c_1^1 depends on p0 through m1.
void build_lineage(Scenario& s) {
  s.checkpoint(0);
  s.send(0, 1, "m1");
  s.deliver("m1");
  s.checkpoint(1);
  s.send(1, 2, "m2");
  s.deliver("m2");
  s.checkpoint(2);
  s.checkpoint(1);
}

void warm_restart_preserves_lineage(StorageBackendKind kind) {
  ScratchDir dir("restart");
  Scenario s(3, ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
             media(kind, dir.path()));
  build_lineage(s);

  const std::vector<CheckpointIndex> stored_before =
      s.node(1).store().stored_indices();
  const CheckpointIndex last = s.node(1).store().last_index();
  ASSERT_EQ(last, s.recorder().last_stable(1));

  s.restart(1);

  // The same lineage, resumed: the stored set survived the death, the new
  // incarnation's volatile interval is last+1, and the recorder counted a
  // restart (not a rollback — nothing was undone below the last stable).
  EXPECT_EQ(s.system().restarts(), 1u);
  EXPECT_EQ(s.recorder().stats().restarts, 1u);
  EXPECT_EQ(s.recorder().stats().rollbacks, 0u);
  EXPECT_EQ(s.node(1).store().stored_indices(), stored_before);
  EXPECT_EQ(s.node(1).dv()[1], last + 1);
  EXPECT_EQ(s.node(1).last_checkpoint_index(), last);
  EXPECT_TRUE(s.recorder().audit_no_orphans());

  // The replacement is a full citizen: it checkpoints, exchanges messages,
  // and the Theorem-1 oracle still certifies the whole run.
  s.checkpoint(1);
  s.send(1, 0, "m3");
  s.deliver("m3");
  s.checkpoint(0);
  s.send(2, 1, "m4");
  s.deliver("m4");
  s.checkpoint(1);
  // At least the scripted basic checkpoint and the final one (the protocol
  // may force more on the receives).
  EXPECT_GE(s.recorder().last_stable(1), last + 2);
  test::audit_safety_theorem1(s.system());
}

TEST(WarmRestart, PreservesLineageMmap) {
  warm_restart_preserves_lineage(StorageBackendKind::kMmapFile);
}
TEST(WarmRestart, PreservesLineageLog) {
  warm_restart_preserves_lineage(StorageBackendKind::kLogStructured);
}

/// Attach-after-attach: the second incarnation dies too, and the third
/// attaches to media already once recovered (meta rewritten by the second
/// incarnation's open).
void double_restart(StorageBackendKind kind) {
  ScratchDir dir("restart2");
  Scenario s(3, ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
             media(kind, dir.path()));
  build_lineage(s);

  s.restart(1);
  const CheckpointIndex last = s.node(1).last_checkpoint_index();
  s.restart(1);  // died again before doing anything new

  EXPECT_EQ(s.system().restarts(), 2u);
  EXPECT_EQ(s.recorder().stats().restarts, 2u);
  EXPECT_EQ(s.node(1).last_checkpoint_index(), last);
  EXPECT_EQ(s.node(1).dv()[1], last + 1);

  // Work, die, attach again: the new checkpoint persisted at take time, so
  // the third incarnation resumes past it.
  s.checkpoint(1);
  s.restart(1);
  EXPECT_EQ(s.system().restarts(), 3u);
  EXPECT_EQ(s.node(1).last_checkpoint_index(), last + 1);
  s.checkpoint(1);
  test::audit_safety_theorem1(s.system());
}

TEST(WarmRestart, DoubleRestartMmap) {
  double_restart(StorageBackendKind::kMmapFile);
}
TEST(WarmRestart, DoubleRestartLog) {
  double_restart(StorageBackendKind::kLogStructured);
}

/// A message parked for the dead incarnation must not reach the new one:
/// the death drops it (counted), exactly like the paper's lost in-transit
/// messages at a failure.
TEST(WarmRestart, DeathDropsParkedMessages) {
  ScratchDir dir("restart_drop");
  Scenario s(3, ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
             media(StorageBackendKind::kMmapFile, dir.path()));
  s.checkpoint(0);
  s.checkpoint(1);
  s.send(0, 1, "doomed_in");   // parked for p1
  s.send(1, 2, "doomed_out");  // sent by the dying incarnation
  const auto before = s.system().network().stats().dropped_in_flight;

  s.restart(1);

  EXPECT_EQ(s.system().network().stats().dropped_in_flight, before + 2);
  EXPECT_TRUE(s.recorder().audit_no_orphans());
}

/// Warm restart needs media: in-memory storage dies with the process, so
/// restart_node refuses it up front.
TEST(WarmRestart, InMemoryStorageRejected) {
  SystemConfig config;
  config.process_count = 2;
  config.network.manual = true;
  config.network.loss_probability = 0.0;
  System system(config);
  EXPECT_THROW(system.restart_node(0), util::ContractViolation);
}

/// The full churn cycle: kill/reopen/rejoin followed by a recovery session
/// through the provider-based RecoveryManager (no dangling Node*).  The
/// session rolls the survivors back to a line consistent with the restarted
/// process's stable lineage.
void restart_then_recovery_session(StorageBackendKind kind) {
  ScratchDir dir("restart_session");
  Scenario s(3, ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
             media(kind, dir.path()));
  build_lineage(s);
  // Volatile progress at p1 that the death erases: a send recorded in the
  // volatile interval.
  s.send(1, 0, "volatile_m");
  s.deliver("volatile_m");
  s.checkpoint(0);

  recovery::RecoveryManager::Config rc;
  recovery::RecoveryManager manager(
      s.system().simulator(), s.system().network(), s.recorder(),
      s.system().node_provider(), rc);

  s.restart(1);
  const auto outcome = manager.recover({1});

  // p0 received from p1's volatile interval, so the session must roll it
  // back below that receive; afterwards the run is orphan-free and the
  // oracle certifies the stores.
  EXPECT_GE(outcome.line.size(), 3u);
  EXPECT_TRUE(s.recorder().audit_no_orphans());
  test::audit_safety_theorem1(s.system());

  // Life goes on after the session.
  s.checkpoint(1);
  s.send(1, 2, "after");
  s.deliver("after");
  s.checkpoint(2);
  test::audit_safety_theorem1(s.system());
}

TEST(WarmRestart, RestartThenRecoverySessionMmap) {
  restart_then_recovery_session(StorageBackendKind::kMmapFile);
}
TEST(WarmRestart, RestartThenRecoverySessionLog) {
  restart_then_recovery_session(StorageBackendKind::kLogStructured);
}

// ---- Unobserved attach ----------------------------------------------------

sim::Network::Config manual_network() {
  sim::Network::Config config;
  config.manual = true;
  return config;
}

/// n Nodes wired like fleet workers — the default observer and a clock
/// that stays at 0 — over a manual network, so one thread drives them.
/// restart() does what a re-spawned worker does: the Node dies and its
/// replacement attaches to the same media, with no recorder to certify it.
class UnobservedSystem {
 public:
  UnobservedSystem(std::size_t n, const StorageConfig& storage)
      : network_(network_time_, util::Rng(1), manual_network()),
        storage_(storage),
        nodes_(n) {
    for (std::size_t p = 0; p < n; ++p)
      nodes_[p] = make(static_cast<ProcessId>(p), OpenMode::kFresh);
  }

  ckpt::Node& node(ProcessId p) { return *nodes_[static_cast<std::size_t>(p)]; }
  void checkpoint(ProcessId p) { node(p).take_basic_checkpoint(); }
  void send_deliver(ProcessId p, ProcessId dst) {
    network_.deliver_now(node(p).send_app_message(dst));
  }
  void restart(ProcessId p) {
    nodes_[static_cast<std::size_t>(p)].reset();
    network_.disconnect(p);
    nodes_[static_cast<std::size_t>(p)] = make(p, OpenMode::kAttach);
  }

 private:
  std::unique_ptr<ckpt::Node> make(ProcessId p, OpenMode open_mode) {
    ckpt::Node::Config config;
    config.storage = storage_;
    config.storage.open_mode = open_mode;
    return std::make_unique<ckpt::Node>(
        p, nodes_.size(), clock_, network_, observer_,
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
        std::make_unique<core::RdtLgc>(core::RdtLgc::RollbackSearch::kBinary),
        config);
  }

  sim::Simulator network_time_;
  sim::Network network_;
  ccp::NodeObserver observer_;
  const sim::Clock clock_;
  StorageConfig storage_;
  std::vector<std::unique_ptr<ckpt::Node>> nodes_;
};

/// One script, two systems: an observed Scenario, whose recorder certifies
/// every attach, and its unobserved twin on media of its own.
struct Twins {
  Scenario observed;
  UnobservedSystem unobserved;
  int messages = 0;

  Twins(StorageBackendKind kind, const std::string& observed_dir,
        const std::string& unobserved_dir)
      : observed(3, ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
                 media(kind, observed_dir)),
        unobserved(3, media(kind, unobserved_dir)) {}

  void checkpoint(ProcessId p) {
    observed.checkpoint(p);
    unobserved.checkpoint(p);
  }
  void send_deliver(ProcessId p, ProcessId dst) {
    const std::string label = "m" + std::to_string(++messages);
    observed.send(p, dst, label);
    observed.deliver(label);
    unobserved.send_deliver(p, dst);
  }
  void restart(ProcessId p) {
    observed.restart(p);
    unobserved.restart(p);
  }
  void expect_same_state() {
    for (ProcessId p = 0; p < 3; ++p) {
      SCOPED_TRACE("p" + std::to_string(p));
      const ckpt::Node& want = observed.node(p);
      const ckpt::Node& got = unobserved.node(p);
      EXPECT_EQ(got.dv(), want.dv());
      EXPECT_EQ(got.last_checkpoint_index(), want.last_checkpoint_index());
      EXPECT_EQ(got.store().stored_indices(), want.store().stored_indices());
      const auto* lgc = dynamic_cast<const core::RdtLgc*>(&got.gc());
      ASSERT_NE(lgc, nullptr);
      EXPECT_EQ(lgc->uc().to_string(),
                observed.system().rdt_lgc(p).uc().to_string());
    }
  }
};

/// The worker's attach path, in-process: an unobserved Node re-attaches
/// and comes back exactly where its observed twin does.
void unobserved_attach_matches_observed(StorageBackendKind kind) {
  ScratchDir observed_dir("attach_observed");
  ScratchDir unobserved_dir("attach_unobserved");
  Twins twins(kind, observed_dir.path(), unobserved_dir.path());
  // build_lineage's script: c_1^1 depends on p0 through the first message.
  twins.checkpoint(0);
  twins.send_deliver(0, 1);
  twins.checkpoint(1);
  twins.send_deliver(1, 2);
  twins.checkpoint(2);
  twins.checkpoint(1);

  twins.restart(1);
  twins.expect_same_state();

  // Life after the attach (the receives force checkpoints), then two more
  // deaths, one of them a second attach of the same process.
  twins.send_deliver(1, 0);
  twins.checkpoint(0);
  twins.send_deliver(2, 1);
  twins.send_deliver(1, 2);
  twins.checkpoint(1);
  twins.restart(1);
  twins.restart(2);
  twins.expect_same_state();
  EXPECT_EQ(twins.observed.recorder().stats().restarts, 3u);
}

TEST(UnobservedAttach, MatchesObservedTwinMmap) {
  unobserved_attach_matches_observed(StorageBackendKind::kMmapFile);
}
TEST(UnobservedAttach, MatchesObservedTwinLog) {
  unobserved_attach_matches_observed(StorageBackendKind::kLogStructured);
}

/// An observed attach certifies the recovered DVs against the lineage its
/// recorder saw; a recorder that never saw p's lineage cannot, and the
/// attach is rejected.
TEST(UnobservedAttach, ObservedAttachWithoutTheRecordedLineageIsRejected) {
  ScratchDir dir("attach_unrecorded");
  const StorageConfig storage =
      media(StorageBackendKind::kMmapFile, dir.path());
  {
    UnobservedSystem written(2, storage);
    written.checkpoint(0);
    written.send_deliver(0, 1);
    written.checkpoint(1);
  }
  sim::Simulator simulator;
  sim::Network network(simulator, util::Rng(1), manual_network());
  ccp::CcpRecorder recorder(2);
  ckpt::Node::Config config;
  config.storage = storage;
  config.storage.open_mode = OpenMode::kAttach;
  EXPECT_THROW(ckpt::Node(1, 2, simulator, network, recorder,
                          ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
                          std::make_unique<core::RdtLgc>(), config),
               util::ContractViolation);
}

// ---- Sweep progress/cancellation ------------------------------------------

TEST(SweepProgress, ReportsEveryCompletedJob) {
  harness::FleetConfig fc;
  fc.workers = 2;
  harness::FleetRunner fleet(fc);
  const auto seeds = harness::seed_range(100, 6);

  std::size_t calls = 0;
  std::size_t last_completed = 0;
  const auto runs = harness::run_seed_sweep(
      fleet, seeds,
      [](std::uint64_t seed, harness::WorkerContext&) {
        harness::SweepRun run;
        run.collected = seed;
        return run;
      },
      [&](std::size_t completed, std::size_t total) {
        EXPECT_EQ(total, 6u);
        EXPECT_GE(completed, 1u);
        EXPECT_LE(completed, total);
        ++calls;
        last_completed = completed;
        return true;
      });

  EXPECT_EQ(calls, 6u);
  EXPECT_EQ(last_completed, 6u);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t j = 0; j < runs.size(); ++j) {
    EXPECT_EQ(runs[j].seed, seeds[j]);
    EXPECT_EQ(runs[j].collected, seeds[j]);
  }
}

TEST(SweepProgress, CancellationSkipsRemainingJobs) {
  harness::FleetConfig fc;
  fc.workers = 1;  // sequential, so the cancellation point is exact
  harness::FleetRunner fleet(fc);
  const auto seeds = harness::seed_range(7, 8);

  const auto runs = harness::run_seed_sweep(
      fleet, seeds,
      [](std::uint64_t, harness::WorkerContext&) {
        harness::SweepRun run;
        run.collected = 1;
        return run;
      },
      [](std::size_t completed, std::size_t) { return completed < 3; });

  ASSERT_EQ(runs.size(), 8u);
  std::size_t executed = 0;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    EXPECT_EQ(runs[j].seed, seeds[j]);  // skipped slots still carry the seed
    if (runs[j].collected == 1) ++executed;
  }
  EXPECT_EQ(executed, 3u);
}

TEST(SweepProgress, ChurnGridSeedsVaryFastest) {
  const auto grid =
      harness::churn_grid({1, 2}, {100, 200}, 0.5);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].seed, 1u);
  EXPECT_EQ(grid[1].seed, 2u);
  EXPECT_EQ(grid[0].mean_interval, 100u);
  EXPECT_EQ(grid[2].mean_interval, 200u);
  EXPECT_EQ(grid[3].seed, 2u);
  EXPECT_EQ(grid[0].restart_prob, 0.5);
  EXPECT_THROW(harness::churn_grid({1}, {100}, 1.5), util::ContractViolation);
  EXPECT_THROW(harness::churn_grid({1}, {0}, 0.5), util::ContractViolation);
}

}  // namespace
}  // namespace rdtgc
