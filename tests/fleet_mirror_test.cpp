// FleetMirror without processes: the fleet parent's DV rows, delivery
// records, orphan rule and Lemma-1 plan, driven input by input.
//
// One case each: a Hello's last index is bounded by what the mirror saw
// (one further per delivery an unclean kill dropped); rows missing at an
// attach are padded from the Hello and rows past it are cut; every width,
// lineage and Equation-3 check refuses by name and changes nothing; the
// three prune rules (a sender's checkpoint, a re-attach without a session,
// a session's end); and the orphan count, which names one incarnation's
// sends, across two kills of the same worker, with the session plan
// between them.  transport_test folds whole certified fleet logs into a
// mirror the same way.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "transport/fleet_mirror.hpp"

namespace rdtgc::transport {
namespace {

using Dv = std::vector<IntervalIndex>;

Dv dv_of(causality::DvView view) {
  return Dv(view.entries().begin(), view.entries().end());
}

/// A mirror of n fresh workers: each holds s^0 and is in interval 1.
FleetMirror fresh(std::size_t n) {
  FleetMirror mirror(n);
  for (std::size_t p = 0; p < n; ++p) {
    Dv dv(n, 0);
    dv[p] = 1;
    EXPECT_TRUE(mirror.attach(static_cast<ProcessId>(p), 0, 0, dv))
        << mirror.error();
  }
  return mirror;
}

TEST(FleetMirror, HelloIndexIsBoundedByWhatTheMirrorSaw) {
  FleetMirror mirror(3);
  // A fresh worker holds s^0 only.
  EXPECT_FALSE(mirror.attach(0, 0, 1, Dv{2, 0, 0}));
  EXPECT_EQ(mirror.error(),
            "Hello frame from p0 claims last checkpoint index 1, at most 0 "
            "is possible");
  ASSERT_TRUE(mirror.attach(0, 0, 0, Dv{1, 0, 0})) << mirror.error();
  ASSERT_TRUE(mirror.checkpoint(0, 1, Dv{1, 0, 0})) << mirror.error();
  // A re-attached one resumes at a checkpoint the mirror holds...
  EXPECT_FALSE(mirror.attach(0, 1, 2, Dv{3, 0, 0}));
  EXPECT_EQ(mirror.error(),
            "Hello frame from p0 claims last checkpoint index 2, at most 1 "
            "is possible");
  // ...or, after an unclean kill, one further per delivery it dropped.
  mirror.unclean_kill(0, 2);
  EXPECT_FALSE(mirror.attach(0, 1, 4, Dv{5, 0, 0}));
  EXPECT_EQ(mirror.error(),
            "Hello frame from p0 claims last checkpoint index 4, at most 3 "
            "is possible");
  ASSERT_TRUE(mirror.attach(0, 1, 3, Dv{4, 0, 0})) << mirror.error();
  EXPECT_EQ(mirror.last_stable(0), 3);
  // The allowance is spent by the attach it bounded.
  EXPECT_FALSE(mirror.attach(0, 2, 4, Dv{5, 0, 0}));
  EXPECT_EQ(mirror.error(),
            "Hello frame from p0 claims last checkpoint index 4, at most 3 "
            "is possible");
}

TEST(FleetMirror, AttachPadsMissingRowsFromTheHelloAndCutsTheRest) {
  FleetMirror mirror = fresh(3);
  // Two deliveries died with p1's unclean kill, each of which may have
  // forced a checkpoint whose frame never surfaced.
  mirror.unclean_kill(1, 2);
  ASSERT_TRUE(mirror.attach(1, 1, 2, Dv{4, 3, 1})) << mirror.error();
  EXPECT_EQ(mirror.last_stable(1), 2);
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(1, 0)), (Dv{0, 0, 0}));
  // Padded: the Hello's DV, with the row's own index as its own entry.
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(1, 1)), (Dv{4, 1, 1}));
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(1, 2)), (Dv{4, 2, 1}));
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(1, 3)), (Dv{4, 3, 1}));
  // A re-attach at s^1 cuts the row of s^2, which died with it.
  ASSERT_TRUE(mirror.attach(1, 2, 1, Dv{4, 2, 1})) << mirror.error();
  EXPECT_EQ(mirror.last_stable(1), 1);
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(1, 2)), (Dv{4, 2, 1}));
}

// Every check runs in order — width, then lineage, then Equation 3 — and a
// refused input leaves the mirror exactly as it was.
TEST(FleetMirror, EveryCheckRefusesByNameAndChangesNothing) {
  using Input = std::function<bool(FleetMirror&)>;
  const struct {
    Input input;
    const char* error;
  } cases[] = {
      {[](FleetMirror& m) { return m.checkpoint(0, 1, Dv{1, 0}); },
       "Checkpoint frame from p0 carries a DV of width 2, expected 3"},
      {[](FleetMirror& m) { return m.attach(0, 1, 0, Dv{2, 0, 0}); },
       "Hello frame from p0 has own DV entry 2, Equation 3 requires 1"},
      {[](FleetMirror& m) { return m.send(0, 2, Dv{2, 0, 0}); },
       "Data frame from p0 puts its send in interval 2, its lineage in 1"},
      {[](FleetMirror& m) { return m.send(0, 1, Dv{3, 0, 0}); },
       "Data frame from p0 has own DV entry 3, Equation 3 requires 1"},
      {[](FleetMirror& m) {
         return m.deliver(Delivery{0, 0, 1, 1, 1, 2}, false, Dv{1, 2, 0});
       },
       "RecvAck frame from p1 puts its receive in interval 2, its lineage "
       "in 1"},
      {[](FleetMirror& m) {
         return m.deliver(Delivery{0, 0, 1, 1, 1, 1}, true, Dv{1, 1, 0});
       },
       "RecvAck frame from p1 puts its receive in interval 1, its lineage "
       "in 2"},
      {[](FleetMirror& m) {
         return m.deliver(Delivery{0, 0, 1, 1, 1, 1}, false, Dv{1, 3, 0});
       },
       "RecvAck frame from p1 has own DV entry 3, Equation 3 requires 1"},
      {[](FleetMirror& m) { return m.checkpoint(0, 2, Dv{2, 0, 0}); },
       "Checkpoint frame from p0 has index 2, its lineage 1"},
      {[](FleetMirror& m) { return m.checkpoint(0, 1, Dv{2, 0, 0}); },
       "Checkpoint frame from p0 has own DV entry 2, Equation 3 requires 1"},
      {[](FleetMirror& m) { return m.rolled_back(0, 1, Dv{2, 0, 0}); },
       "RolledBack frame from p0 restores index 1, its lineage ends at 0"},
      {[](FleetMirror& m) { return m.rolled_back(0, 0, Dv{2, 0, 0}); },
       "RolledBack frame from p0 has own DV entry 2, Equation 3 requires 1"},
  };
  for (const auto& c : cases) {
    FleetMirror mirror = fresh(3);
    EXPECT_FALSE(c.input(mirror)) << c.error;
    EXPECT_EQ(mirror.error(), c.error);
    EXPECT_EQ(mirror.delivered_records(), 0u) << c.error;
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(mirror.last_stable(p), 0) << c.error;
      Dv volatile_dv(3, 0);
      volatile_dv[static_cast<std::size_t>(p)] = 1;
      EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(p, 1)), volatile_dv)
          << c.error;
    }
  }
}

TEST(FleetMirror, ASendersCheckpointRetiresTheRecordsOfItsSends) {
  FleetMirror mirror = fresh(3);
  ASSERT_TRUE(mirror.deliver(Delivery{0, 0, 1, 1, 1, 1}, false, Dv{1, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{2, 0, 1, 1, 1, 1}, false, Dv{1, 1, 1}));
  EXPECT_EQ(mirror.delivered_records(), 2u);
  // p0's basic checkpoint closes the interval it sent from: no later kill
  // of p0 resumes below it.
  ASSERT_TRUE(mirror.checkpoint(0, 1, Dv{1, 0, 0}));
  EXPECT_EQ(mirror.delivered_records(), 1u);
  // A forced checkpoint does the same for the receiver's own sends: p2's
  // receive of p1's message forces s_2^1, which retires p2's send.
  ASSERT_TRUE(mirror.deliver(Delivery{1, 0, 1, 1, 2, 2}, true, Dv{1, 1, 2}));
  EXPECT_EQ(mirror.delivered_records(), 1u);
  EXPECT_EQ(mirror.last_stable(2), 1);
  EXPECT_EQ(dv_of(mirror.general_checkpoint_dv(2, 1)), (Dv{0, 0, 1}));
}

TEST(FleetMirror, AReattachWithoutSessionForgetsWhatDiedWithIt) {
  FleetMirror mirror = fresh(3);
  ASSERT_TRUE(mirror.deliver(Delivery{1, 0, 1, 1, 0, 1}, false, Dv{1, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{0, 0, 1, 1, 1, 1}, false, Dv{1, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{2, 0, 1, 1, 0, 1}, false, Dv{1, 1, 1}));
  ASSERT_TRUE(mirror.attach(1, 1, 0, Dv{0, 1, 0}));
  // p1's volatile interval died: its send and its receive with it.
  mirror.forget_after_attach(1);
  EXPECT_EQ(mirror.delivered_records(), 1u);
  EXPECT_EQ(mirror.orphans(2, 0), 1u);  // p2's send to p0 is still there
}

TEST(FleetMirror, ASessionEndForgetsWhatLiesPastItsLine) {
  FleetMirror mirror = fresh(3);
  // Received past the line (p1 keeps s^0), sent past it (p1 again), and
  // inside it on both sides.
  ASSERT_TRUE(mirror.deliver(Delivery{0, 0, 1, 1, 1, 1}, false, Dv{1, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{1, 0, 1, 1, 2, 1}, false, Dv{1, 1, 1}));
  ASSERT_TRUE(mirror.deliver(Delivery{2, 0, 1, 1, 0, 1}, false, Dv{1, 0, 1}));
  mirror.end_session(std::vector<CheckpointIndex>{1, 0, 1});
  EXPECT_EQ(mirror.delivered_records(), 1u);
  EXPECT_EQ(mirror.orphans(2, 0), 1u);
}

TEST(FleetMirror, OrphanCountNamesTheKilledIncarnationsSends) {
  FleetMirror mirror = fresh(3);
  // p1 sends from its volatile interval; p0 receives.  Then p1 dies and
  // re-attaches at s^0: p0's receive cites a dead send.
  ASSERT_TRUE(mirror.send(1, 1, Dv{0, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{1, 0, 1, 1, 0, 1}, false, Dv{1, 1, 0}));
  ASSERT_TRUE(mirror.attach(1, 1, 0, Dv{0, 1, 0}));
  EXPECT_EQ(mirror.orphans(1, 0), 1u);
  EXPECT_EQ(mirror.orphans(1, 1), 0u);

  // Lemma 1 for {p1}: p0's volatile state depends on p1's dead interval,
  // so p0 restores s^0; p2 depends on nothing and keeps its volatile state.
  std::vector<CheckpointIndex> line;
  std::vector<IntervalIndex> li;
  mirror.plan({1}, line, li);
  EXPECT_EQ(line, (std::vector<CheckpointIndex>{0, 0, 1}));
  EXPECT_EQ(li, (Dv{1, 1, 1}));
  ASSERT_TRUE(mirror.rolled_back(0, 0, Dv{1, 0, 0}));
  ASSERT_TRUE(mirror.rolled_back(1, 0, Dv{0, 1, 0}));
  ASSERT_TRUE(mirror.rolled_back(2, 0, Dv{0, 0, 1}));
  mirror.end_session(line);
  EXPECT_EQ(mirror.delivered_records(), 0u);

  // Incarnation 1 sends from the same interval number, and dies too: its
  // kill counts its own send once, and nothing of incarnation 0's.
  ASSERT_TRUE(mirror.send(1, 1, Dv{0, 1, 0}));
  ASSERT_TRUE(mirror.deliver(Delivery{1, 1, 1, 1, 2, 1}, false, Dv{0, 1, 1}));
  ASSERT_TRUE(mirror.attach(1, 2, 0, Dv{0, 1, 0}));
  EXPECT_EQ(mirror.orphans(1, 1), 1u);
  EXPECT_EQ(mirror.orphans(1, 0), 0u);
  mirror.plan({1}, line, li);
  EXPECT_EQ(line, (std::vector<CheckpointIndex>{1, 0, 0}));
  EXPECT_EQ(li, (Dv{1, 1, 1}));
}

}  // namespace
}  // namespace rdtgc::transport
