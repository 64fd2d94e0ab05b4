// Recovery-session tests: the RecoveryManager end to end, Algorithm 3 in
// both information models (LI and DV-only), peer recovery, failure
// injection, and post-recovery invariants.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "recovery/failure_injector.hpp"
#include "recovery/recovery_manager.hpp"
#include "util/check.hpp"
#include "workload/workload.hpp"

namespace rdtgc {
namespace {

/// Safety sandwich after recovery: Theorem-1 non-obsolete ⊆ stored ⊆
/// Corollary-1 retained.  (With global information Algorithm 3 collects
/// strictly more than causal knowledge alone, so equality with the
/// Corollary-1 set is not required.)
void audit_sandwich(const harness::System& system) {
  test::audit_safety_theorem1(system);
  const auto& recorder = system.recorder();
  for (ProcessId p = 0; p < static_cast<ProcessId>(system.process_count());
       ++p) {
    const auto retained = ccp::retained_corollary1(recorder, p);
    const std::set<CheckpointIndex> allowed(retained.begin(), retained.end());
    for (const CheckpointIndex g : system.node(p).store().stored_indices())
      EXPECT_TRUE(allowed.count(g))
          << "p" << p << " retains s^" << g
          << " beyond what causal knowledge permits";
  }
}

struct Rig {
  std::unique_ptr<harness::System> system;
  std::unique_ptr<workload::WorkloadDriver> driver;
  std::unique_ptr<recovery::RecoveryManager> manager;
};

Rig make_rig(std::uint64_t seed, std::size_t n, bool global_info,
             harness::GcChoice gc = harness::GcChoice::kRdtLgc) {
  Rig rig;
  harness::SystemConfig config;
  config.process_count = n;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.gc = gc;
  config.seed = seed;
  rig.system = std::make_unique<harness::System>(config);
  workload::WorkloadConfig wl;
  wl.seed = seed + 1;
  rig.driver = std::make_unique<workload::WorkloadDriver>(
      rig.system->simulator(), rig.system->node_ptrs(), wl);
  recovery::RecoveryManager::Config rc;
  rc.global_information = global_info;
  rig.manager = std::make_unique<recovery::RecoveryManager>(
      rig.system->simulator(), rig.system->network(), rig.system->recorder(),
      rig.system->node_ptrs(), rc);
  return rig;
}

TEST(Recovery, SingleFailureRestoresAConsistentLine) {
  Rig rig = make_rig(3, 4, true);
  rig.driver->start(2000);
  rig.system->simulator().run_until(1000);

  const auto outcome = rig.manager->recover({1});
  // The faulty process must restore a stable checkpoint.
  EXPECT_LE(outcome.line[1], rig.system->recorder().last_stable(1));
  // After the rollback the restored cut is exactly the line: every process
  // sits at the line's interval.
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(rig.system->recorder().last_stable(p) + 1,
              rig.system->node(p).dv()[p]);
  }
  EXPECT_TRUE(rig.system->recorder().audit_no_orphans());

  // Execution continues and the invariants still hold.
  rig.system->simulator().run();
  test::audit_rdt(rig.system->recorder());
  test::audit_eq2(rig.system->recorder());
  audit_sandwich(*rig.system);
  test::audit_eq4(*rig.system);
  test::audit_bounds(*rig.system);
}

TEST(Recovery, CausalOnlyVariantKeepsCorollary1Exactness) {
  Rig rig = make_rig(5, 4, /*global_info=*/false);
  rig.driver->start(2000);
  rig.system->simulator().run_until(900);
  rig.manager->recover({2});
  rig.system->simulator().run();
  // The DV-variant of Algorithm 3 collects exactly per Theorem 2, so the
  // stored set must still equal the Corollary-1 set everywhere.
  test::audit_exact_corollary1(*rig.system);
  test::audit_eq4(*rig.system);
  test::audit_safety_theorem1(*rig.system);
  test::audit_rdt(rig.system->recorder());
}

TEST(Recovery, MultiProcessFailure) {
  Rig rig = make_rig(7, 5, true);
  rig.driver->start(3000);
  rig.system->simulator().run_until(1500);
  const auto outcome = rig.manager->recover({0, 3});
  EXPECT_LE(outcome.line[0], rig.system->recorder().last_stable(0));
  EXPECT_LE(outcome.line[3], rig.system->recorder().last_stable(3));
  rig.system->simulator().run();
  audit_sandwich(*rig.system);
  test::audit_rdt(rig.system->recorder());
  test::audit_bounds(*rig.system);
}

TEST(Recovery, RepeatedFailuresSurvive) {
  Rig rig = make_rig(11, 4, true);
  rig.driver->start(6000);
  for (SimTime t : {1000u, 2500u, 4000u, 5500u}) {
    rig.system->simulator().run_until(t);
    rig.manager->recover({static_cast<ProcessId>(t / 1000 % 4)});
  }
  rig.system->simulator().run();
  EXPECT_EQ(rig.manager->stats().sessions, 4u);
  audit_sandwich(*rig.system);
  test::audit_eq4(*rig.system);
  test::audit_rdt(rig.system->recorder());
  EXPECT_TRUE(rig.system->recorder().audit_no_orphans());
}

TEST(Recovery, InTransitMessagesAreDropped) {
  Rig rig = make_rig(13, 3, true);
  rig.driver->start(2000);
  // Stop at a moment with something actually in flight.
  rig.system->simulator().run_until(800);
  while (rig.system->network().in_flight() == 0)
    rig.system->simulator().run_until(rig.system->simulator().now() + 1);
  const auto in_flight = rig.system->network().in_flight();
  ASSERT_GT(in_flight, 0u);
  rig.manager->recover({0});
  EXPECT_EQ(rig.system->network().in_flight(), 0u);
  rig.system->simulator().run();
  // The dropped deliveries are accounted when their stale events surface.
  EXPECT_GE(rig.system->network().stats().dropped_in_flight, in_flight);
  EXPECT_TRUE(rig.system->recorder().audit_no_orphans());
}

TEST(Recovery, RollbackDiscardsAreNotCollections) {
  Rig rig = make_rig(17, 3, true, harness::GcChoice::kNone);
  rig.driver->start(1500);
  rig.system->simulator().run_until(1200);
  const auto outcome = rig.manager->recover({1});
  std::uint64_t discarded = 0;
  for (ProcessId p = 0; p < 3; ++p)
    discarded += rig.system->node(p).store().stats().discarded;
  EXPECT_EQ(discarded, outcome.checkpoints_discarded);
  EXPECT_GE(outcome.general_checkpoints_rolled_back, outcome.rolled_back.size());
}

TEST(Recovery, PeerRecoveryReleasesStalePins) {
  // With global information, a process that does not roll back releases
  // every UC[f] with DV[f] < LI[f] (§4.3): its knowledge of f is older than
  // f's restored position, so f's last checkpoint precedes nothing here.
  harness::SystemConfig config;
  config.process_count = 3;
  config.protocol = ckpt::ProtocolKind::kUncoordinated;
  config.gc = harness::GcChoice::kRdtLgc;
  config.network.manual = true;
  harness::System system(config);
  auto& simulator = system.simulator();
  auto step = [&] { simulator.run_until(simulator.now() + 1); };

  // p1 tells p0 about its initial checkpoint: p0 pins s_0^0 through UC[1].
  step();
  const auto mid = system.node(1).send_app_message(0);
  step();
  system.network().deliver_now(mid);
  step();
  system.node(0).take_basic_checkpoint();  // s_0^1
  ASSERT_EQ(system.rdt_lgc(0).uc().entry(1), std::optional<CheckpointIndex>(0));
  ASSERT_TRUE(system.node(0).store().contains(0));

  // p1 silently advances: p0's knowledge (interval 1) goes stale.
  step();
  system.node(1).take_basic_checkpoint();
  step();
  system.node(1).take_basic_checkpoint();

  // An unrelated process fails.  p0 keeps its volatile state, receives LI
  // with LI[p1] = 3 > DV[p1] = 1, and releases the stale pin — which makes
  // s_0^0 obsolete (Theorem 1 agrees: p1's s^2 precedes nothing at p0).
  recovery::RecoveryManager manager(simulator, system.network(),
                                    system.recorder(), system.node_ptrs(), {});
  manager.recover({2});
  EXPECT_FALSE(system.rdt_lgc(0).uc().entry(1).has_value());
  EXPECT_FALSE(system.node(0).store().contains(0));
  test::audit_safety_theorem1(system);
}

// ---- Session plan/apply split (the wire-driven session's building blocks) -

// Property (seed-swept): after a session with global information, every
// surviving process's UC table matches an Algorithm-3/§4.3 rebuild oracle
// computed from its pre-session state — UC[f] is released exactly where
// DV[f] < LI[f], and untouched everywhere else.
TEST(Recovery, PeerRecoveryReleasesMatchAlgorithm3Oracle) {
  for (const std::uint64_t seed : {3u, 9u, 21u, 33u, 57u, 71u}) {
    const std::size_t n = 4;
    Rig rig = make_rig(seed, n, /*global_info=*/true);
    rig.driver->start(3000);
    rig.system->simulator().run_until(1400);
    const auto faulty = static_cast<ProcessId>(seed % n);

    // Pre-session snapshot: every process's DV and UC table.
    std::vector<std::vector<IntervalIndex>> dv_before(n);
    std::vector<std::vector<std::optional<CheckpointIndex>>> uc_before(n);
    for (std::size_t p = 0; p < n; ++p) {
      const auto pid = static_cast<ProcessId>(p);
      const auto entries = rig.system->node(pid).dv().entries();
      dv_before[p].assign(entries.begin(), entries.end());
      uc_before[p].resize(n);
      for (std::size_t f = 0; f < n; ++f)
        uc_before[p][f] =
            rig.system->rdt_lgc(pid).uc().entry(static_cast<ProcessId>(f));
    }

    // plan() is pure, so the plan captured here is the session recover()
    // runs — the same split the fleet parent and the replay oracle use.
    const auto plan = rig.manager->plan({faulty});
    const auto outcome = rig.manager->recover({faulty});
    ASSERT_EQ(outcome.line, plan.line) << "seed " << seed;

    for (std::size_t p = 0; p < n; ++p) {
      const auto pid = static_cast<ProcessId>(p);
      const bool rolled =
          std::find(outcome.rolled_back.begin(), outcome.rolled_back.end(),
                    pid) != outcome.rolled_back.end();
      if (rolled) continue;  // rolled-back processes rebuild UC from scratch
      for (std::size_t f = 0; f < n; ++f) {
        if (f == p) continue;  // UC[self] always pins the last checkpoint
        const auto fid = static_cast<ProcessId>(f);
        const bool release = dv_before[p][f] < plan.li[f];
        const auto got = rig.system->rdt_lgc(pid).uc().entry(fid);
        if (release) {
          EXPECT_FALSE(got.has_value())
              << "seed " << seed << ": p" << p << " kept UC[" << f
              << "] though DV=" << dv_before[p][f] << " < LI=" << plan.li[f];
        } else {
          EXPECT_EQ(got, uc_before[p][f])
              << "seed " << seed << ": p" << p << " changed UC[" << f
              << "] though DV=" << dv_before[p][f] << " >= LI=" << plan.li[f];
        }
      }
    }
    rig.system->simulator().run();
    audit_sandwich(*rig.system);
  }
}

// The fleet's restart-during-session path, replayed in the simulator: a
// session's plan is applied to only SOME processes (the acks that landed
// before the second kill), then a new session with the accumulated faulty
// set plans against the partially-applied state and applies everywhere —
// and the system converges to a consistent, orphan-free line.
TEST(Recovery, SessionRestartAfterPartialApplicationConverges) {
  Rig rig = make_rig(31, 4, /*global_info=*/true);
  rig.driver->start(3000);
  rig.system->simulator().run_until(1500);

  // Attempt 0: plan for {1}, but only processes 0 and 1 get to apply it
  // before the "second kill" interrupts the session.
  const auto plan0 = rig.manager->plan({1});
  rig.manager->apply_to(plan0, 0);
  rig.manager->apply_to(plan0, 1);

  // Attempt 1: process 2 joins the faulty set; the new plan is computed on
  // the partially-applied state and the full session runs to completion.
  const auto plan1 = rig.manager->plan({1, 2});
  const auto outcome = rig.manager->recover({1, 2});
  ASSERT_EQ(outcome.line, plan1.line);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_LE(plan1.line[j], plan0.line[j])
        << "growing the faulty set must never raise the line";

  // Re-applying the completed session models a worker whose restarted
  // attempt names the position it already holds: the digest must not move.
  for (ProcessId p = 0; p < 4; ++p) {
    const auto last = rig.system->node(p).last_checkpoint_index();
    std::vector<IntervalIndex> dv(rig.system->node(p).dv().entries().begin(),
                                  rig.system->node(p).dv().entries().end());
    const auto stored = rig.system->node(p).store().stored_indices();
    rig.manager->apply_to(plan1, p);
    EXPECT_EQ(rig.system->node(p).last_checkpoint_index(), last);
    EXPECT_TRUE(std::equal(dv.begin(), dv.end(),
                           rig.system->node(p).dv().entries().begin()));
    EXPECT_EQ(rig.system->node(p).store().stored_indices(), stored);
  }

  EXPECT_TRUE(rig.system->recorder().audit_no_orphans());
  rig.system->simulator().run();
  audit_sandwich(*rig.system);
  test::audit_rdt(rig.system->recorder());
  test::audit_eq2(rig.system->recorder());
}

// recover() and the plan/apply split are the same session: running one or
// the other from identical states produces identical lines, digests, and
// stored sets everywhere (the equivalence the replay certification of
// wire-driven sessions rests on).
TEST(Recovery, PlanApplySplitEqualsMonolithicRecover) {
  for (const std::uint64_t seed : {5u, 13u, 29u}) {
    Rig split = make_rig(seed, 4, true);
    Rig mono = make_rig(seed, 4, true);
    for (Rig* rig : {&split, &mono}) {
      rig->driver->start(2500);
      rig->system->simulator().run_until(1200);
    }
    const auto faulty = static_cast<ProcessId>((seed + 1) % 4);

    const auto plan = split.manager->plan({faulty});
    // recover() = drop in-flight + plan + apply everywhere; mirror the
    // drop so the split path starts from the identical channel state.
    split.system->network().drop_in_flight();
    for (ProcessId p = 0; p < 4; ++p) split.manager->apply_to(plan, p);
    const auto outcome = mono.manager->recover({faulty});
    ASSERT_EQ(outcome.line, plan.line) << "seed " << seed;

    for (ProcessId p = 0; p < 4; ++p) {
      EXPECT_EQ(split.system->node(p).last_checkpoint_index(),
                mono.system->node(p).last_checkpoint_index());
      EXPECT_TRUE(std::equal(
          split.system->node(p).dv().entries().begin(),
          split.system->node(p).dv().entries().end(),
          mono.system->node(p).dv().entries().begin()));
      EXPECT_EQ(split.system->node(p).store().stored_indices(),
                mono.system->node(p).store().stored_indices());
    }
  }
}

// The production Lemma-1 scan (recovery::first_unpreceded, shared by the
// fleet parent's FleetMirror::plan and recovery_line_from_storage) against
// the oracle's own copy: over the recorder's rows, newest first with the
// volatile DV, it names the same line as ccp::recovery_line_lemma1 for
// every non-empty faulty set, on seeded runs of three RDT protocols.
TEST(Recovery, SharedLemma1ScanEqualsTheOracleOnEveryFaultySet) {
  const std::size_t n = 4;
  for (const ckpt::ProtocolKind kind :
       {ckpt::ProtocolKind::kFdas, ckpt::ProtocolKind::kFdi,
        ckpt::ProtocolKind::kMrs}) {
    for (const std::uint64_t seed : {7u, 19u, 44u}) {
      harness::SystemConfig config;
      config.process_count = n;
      config.protocol = kind;
      config.seed = seed;
      harness::System system(config);
      workload::WorkloadConfig wl;
      wl.seed = seed + 1;
      workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(),
                                      wl);
      driver.start(1500);
      system.simulator().run_until(900);

      const ccp::CcpRecorder& recorder = system.recorder();
      const ccp::DvPrecedence causal(recorder);
      std::vector<CheckpointIndex> last(n);
      for (std::size_t p = 0; p < n; ++p)
        last[p] = recorder.last_stable(static_cast<ProcessId>(p));
      for (unsigned mask = 1; mask < (1u << n); ++mask) {
        std::vector<bool> faulty(n);
        for (std::size_t f = 0; f < n; ++f) faulty[f] = ((mask >> f) & 1) != 0;
        std::vector<CheckpointIndex> line(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto p = static_cast<ProcessId>(i);
          // Every general checkpoint, the volatile state first.
          const auto candidates = static_cast<std::size_t>(last[i] + 2);
          const std::size_t k = recovery::first_unpreceded(
              candidates,
              [&](std::size_t c) {
                return recorder.general_checkpoint_dv(
                    p, static_cast<CheckpointIndex>(candidates - 1 - c));
              },
              last, faulty);
          ASSERT_LT(k, candidates) << "s^0 is preceded by nothing";
          line[i] = static_cast<CheckpointIndex>(candidates - 1 - k);
        }
        EXPECT_EQ(line, ccp::recovery_line_lemma1(recorder, causal, faulty))
            << ckpt::protocol_kind_name(kind) << " seed " << seed
            << " faulty mask " << mask;
      }
    }
  }
}

TEST(FailureInjector, DrivesDeterministicSessions) {
  auto run_once = [](std::uint64_t seed) {
    Rig rig = make_rig(seed, 4, true);
    rig.driver->start(5000);
    recovery::FailureInjector::Config fc;
    fc.mean_interval = 1200;
    fc.seed = seed;
    recovery::FailureInjector injector(rig.system->simulator(), *rig.manager,
                                       4, fc);
    injector.start(5000);
    rig.system->simulator().run();
    return std::make_tuple(injector.outcomes().size(),
                           rig.manager->stats().checkpoints_discarded,
                           rig.system->total_collected());
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 0u);
}

TEST(FailureInjector, RejectsInvalidConfig) {
  Rig rig = make_rig(5, 3, true);
  const auto construct = [&](recovery::FailureInjector::Config fc) {
    recovery::FailureInjector injector(rig.system->simulator(), *rig.manager,
                                       3, fc);
  };
  recovery::FailureInjector::Config fc;

  fc.mean_interval = 0;  // degenerate rate
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc = {};
  fc.multi_failure_prob = -0.1;
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc.multi_failure_prob = 1.5;
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc = {};
  fc.restart_prob = -0.5;
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc.restart_prob = 1.5;
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc = {};
  fc.restart_prob = 0.5;  // churn without a restart hook is a contradiction
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc = {};
  fc.churn_start = 100;
  fc.churn_end = 100;  // zero-length window
  EXPECT_THROW(construct(fc), util::ContractViolation);
  fc.churn_end = 50;  // inverted window
  EXPECT_THROW(construct(fc), util::ContractViolation);

  // The valid shapes construct: plain crashes, and churn with a hook.
  fc = {};
  construct(fc);
  fc.restart_prob = 1.0;
  fc.churn_start = 100;
  fc.churn_end = 200;
  recovery::FailureInjector churn(rig.system->simulator(), *rig.manager, 3,
                                  fc, [](ProcessId) {});
  // A horizon that never reaches the window is a caller bug.
  EXPECT_THROW(churn.start(100), util::ContractViolation);
}

TEST(FailureInjector, ChurnWindowBoundsEvents) {
  Rig rig = make_rig(11, 4, true);
  rig.driver->start(6000);
  recovery::FailureInjector::Config fc;
  fc.mean_interval = 150;
  fc.seed = 7;
  fc.churn_start = 2000;
  fc.churn_end = 4000;
  recovery::FailureInjector injector(
      rig.system->simulator(), *rig.manager, 4, fc);
  injector.start(6000);
  // Events only land inside [churn_start, churn_end) even though the
  // horizon extends past the window; the full horizon would fit ~40.
  rig.system->simulator().run();
  ASSERT_GT(injector.outcomes().size(), 0u);
  EXPECT_LT(injector.outcomes().size(), 20u)
      << "events scheduled outside [churn_start, churn_end)";
  audit_sandwich(*rig.system);
}

TEST(FailureInjector, SystemStaysSaneUnderRandomFailures) {
  Rig rig = make_rig(23, 5, true);
  rig.driver->start(8000);
  recovery::FailureInjector::Config fc;
  fc.mean_interval = 1500;
  fc.multi_failure_prob = 0.5;
  fc.seed = 99;
  recovery::FailureInjector injector(rig.system->simulator(), *rig.manager, 5,
                                     fc);
  injector.start(8000);
  rig.system->simulator().run();
  ASSERT_GT(injector.outcomes().size(), 0u);
  audit_sandwich(*rig.system);
  test::audit_eq4(*rig.system);
  test::audit_bounds(*rig.system);
  test::audit_rdt(rig.system->recorder());
  test::audit_eq2(rig.system->recorder());
}

}  // namespace
}  // namespace rdtgc
