// Multi-process socket-transport tests (the ISSUE's tentpole acceptance).
//
// These tests run REAL OS processes: each run spawns one rdtgc_proc worker
// per checkpointing process (binary path injected by CMake through the
// RDTGC_PROC_BIN environment variable), wires them to the parent over
// Unix-domain SOCK_SEQPACKET sockets, drives a workload, SIGKILLs workers
// mid-run, re-attaches their replacements from the mmap/log media — and
// then certifies the whole distributed execution by replaying the parent's
// merged event log through the deterministic simulator
// (transport/replay.hpp): every DV, interval, forced-checkpoint decision,
// counter, and stored-index set must match bit for bit, and the Lemma-1
// recovery line computed from the REAL media on disk must equal the line
// from the replayed system's media.
//
// The acceptance pins: a 4-process run with >= 2 quiesced SIGKILL /
// re-attach cycles replays bit-identically (FourProcessChaosRun); a run
// whose kill orphans a delivered message completes a WIRE-DRIVEN recovery
// session (RecoveryStart broadcast, per-worker rollback, RolledBack
// barrier) and certifies with the full Eq2/RDT/Theorem-1 battery — no
// orphan-gated skips — including a run where a second SIGKILL lands
// mid-session and the session restarts with the accumulated faulty set.
// A seed sweep generalizes it property-style across random workloads and
// reports its orphan-gate skip count, which must be zero now that every
// orphaning kill runs a session (RDTGC_TRANSPORT_SOAK=1 stretches the
// sweep for the nightly leg and raises the orphan-forcing rate); the
// unclean SIGKILL case checks liveness (re-attach works) and that the
// replay certifies exactly the clean prefix, stopping at the tagged
// uncertifiable position; a tamper test shows the oracle actually bites.
// The parent's own bookkeeping is pinned too: its delivery records and
// outstanding deliveries stay bounded over 2000-call runs, kill/restart
// cycles leave no descriptor behind, and a rogue worker's malformed frames,
// or a reply other than the one it owes, fail the run by name.  The
// worker's side of the request/reply contract is pinned against the real
// rdtgc_proc: each frame it is sent is answered by exactly one frame.
// Every fleet wait is deadline-bounded, so a hung worker fails fast
// instead of hanging CI (ctest adds a TIMEOUT belt on top), and a worker
// killed from outside fails the next read of its socket by name.  A worker
// binary that cannot be executed fails start() at once, an event-log write
// that fails mid-run fails its call by name, and both worker binaries are
// pinned to carry their own libstdc++ and libgcc (their DT_NEEDED entries).
#include <elf.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/sharded_checkpoint_store.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "transport/event_log.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/replay.hpp"

namespace rdtgc::transport {
namespace {

using test::ScratchDir;

std::string proc_bin() {
  const char* env = std::getenv("RDTGC_PROC_BIN");
  return env != nullptr ? env : "";
}

/// 1 for the tier-1 run, 5 for the nightly socket-kill soak
/// (RDTGC_TRANSPORT_SOAK=1): 5x the seeds, 2x the ops and the kill budget
/// per seed, so the soak pushes hundreds of SIGKILL/re-attach cycles
/// through real processes per night.
int soak_factor() {
  const char* env = std::getenv("RDTGC_TRANSPORT_SOAK");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return 1;
  return 5;
}

FleetConfig fleet_config(const ScratchDir& dir, std::size_t n) {
  FleetConfig config;
  config.process_count = n;
  config.scratch_dir = dir.path();
  config.worker_binary = proc_bin();
  return config;
}

ReplayConfig replay_config(const ScratchDir& dir, std::size_t n) {
  ReplayConfig config;
  config.process_count = n;
  config.scratch_dir = dir.path() + "/replay";
  return config;
}

/// Lemma-1 recovery line of a full restart from the fleet's on-disk media:
/// reopen every worker's store with OpenMode::kAttach, recover, evaluate.
std::vector<CheckpointIndex> line_from_fleet_media(const ProcFleet& fleet,
                                                   std::size_t n) {
  std::vector<std::unique_ptr<ckpt::ShardedCheckpointStore>> stores;
  std::vector<const ckpt::ShardedCheckpointStore*> ptrs;
  for (std::size_t p = 0; p < n; ++p) {
    ckpt::StorageConfig storage;
    storage.kind = ckpt::StorageBackendKind::kMmapFile;
    storage.directory = fleet.storage_dir(static_cast<ProcessId>(p));
    storage.open_mode = ckpt::OpenMode::kAttach;
    stores.push_back(std::make_unique<ckpt::ShardedCheckpointStore>(
        static_cast<ProcessId>(p),
        ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, storage));
    stores.back()->recover();
    ptrs.push_back(stores.back().get());
  }
  return recovery::recovery_line_from_storage(ptrs);
}

std::vector<CheckpointIndex> line_from_replay_system(
    const harness::System& system) {
  std::vector<const ckpt::ShardedCheckpointStore*> ptrs;
  for (std::size_t p = 0; p < system.process_count(); ++p)
    ptrs.push_back(&system.node(static_cast<ProcessId>(p)).store());
  return recovery::recovery_line_from_storage(ptrs);
}

/// Orphan-gate skips across the whole binary: runs where the graph-based
/// oracles (Eq. 2 / RDT / Theorem 1) had to be skipped because the final
/// recorder still contained an orphan receive.  Before wire-driven recovery
/// sessions existed this was the expected cost of an orphaning kill; now
/// every such kill runs the paper's session, so the count must be ZERO —
/// the sweep asserts it and prints it in its summary.
std::uint64_t g_orphan_gate_skips = 0;

/// Run the full certification battery over a completed, quiesced-only run.
///
/// A kill CAN orphan: if the victim sent from its volatile interval and the
/// message was delivered before the quiesce, the re-attach rolls the send
/// record back while the receive stays live.  The fleet repairs exactly
/// that state with a wire-driven recovery session, so by the final State
/// digests the recorder is orphan-free again and the full oracle battery
/// applies UNCONDITIONALLY — there is no orphan gate anymore, and a run
/// that still trips it is a bug (counted in g_orphan_gate_skips).
void certify(const ProcFleet& fleet, const ScratchDir& dir, std::size_t n) {
  ReplayResult replay = replay_event_log(fleet.log_path(),
                                         replay_config(dir, n));
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_NE(replay.system, nullptr);
  EXPECT_FALSE(replay.stopped_at.has_value()) << replay.stop_reason;

  if (!replay.system->recorder().audit_no_orphans()) {
    ++g_orphan_gate_skips;
    FAIL() << "recorder still holds an orphan after "
           << fleet.recovery_sessions() << " recovery sessions";
  }
  test::audit_eq2(replay.system->recorder());
  test::audit_rdt(replay.system->recorder());
  test::audit_safety_theorem1(*replay.system);

  // The REAL media on disk must agree with the replayed media on the
  // recovery line a full cluster restart would use (Lemma 1 over storage).
  EXPECT_EQ(line_from_fleet_media(fleet, n),
            line_from_replay_system(*replay.system));
}

// ---- The acceptance run ---------------------------------------------------

TEST(Transport, FourProcessChaosRunReplaysBitIdentical) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 4;
  ScratchDir dir("transport_accept");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  // Phase 1: mesh traffic + checkpoints building cross-process dependencies.
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(2, 3));
  ASSERT_TRUE(fleet.send_app(3, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));
  ASSERT_TRUE(fleet.send_app(0, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));

  // SIGKILL cycle one: quiesce p1, kill -9, re-attach from its mmap media.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 1u);

  // Phase 2: the replacement participates immediately.
  ASSERT_TRUE(fleet.send_app(1, 3));
  ASSERT_TRUE(fleet.send_app(3, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(3));
  ASSERT_TRUE(fleet.send_app(2, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));

  // SIGKILL cycle two, different victim.
  ASSERT_TRUE(fleet.kill_and_restart(3)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(3), 1u);

  // Phase 3, including a second death of an already-restarted process.
  ASSERT_TRUE(fleet.send_app(3, 2));
  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 2u);
  ASSERT_TRUE(fleet.send_app(1, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));

  ASSERT_TRUE(fleet.shutdown()) << fleet.error();
  EXPECT_EQ(fleet.dropped(), 0u);  // quiesced kills lose nothing

  // The script checkpoints every victim after its last send, so no kill
  // orphans anything and no session ever fires.
  EXPECT_EQ(fleet.recovery_sessions(), 0u);
  EXPECT_EQ(fleet.orphans_repaired(), 0u);
  certify(fleet, dir, n);
}

// ---- Property sweep: random workloads, many seeds -------------------------

/// Accumulated across every seed of a sweep and printed in its summary:
/// how often the recovery-session machinery actually fired, and how often
/// the orphan gate forced an oracle skip (must stay zero).
struct SweepStats {
  std::uint64_t runs = 0;
  std::uint64_t sessions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t orphans_repaired = 0;
};

void random_run(std::uint64_t seed, SweepStats& stats) {
  const std::size_t n = 3;
  ScratchDir dir("transport_seed" + std::to_string(seed));
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << "seed " << seed << ": " << fleet.error();

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<std::size_t> proc(0, n - 1);
  const int ops = soak_factor() > 1 ? 60 : 30;
  const int max_kills = soak_factor() > 1 ? 6 : 3;
  // Orphan-forcing rate: the soak leg leans harder on the recovery-session
  // path (a send immediately followed by the sender's kill ALWAYS orphans:
  // the delivery lands during the quiesce drain, then the re-attach rolls
  // the volatile send record back).
  const int orphan_roll = soak_factor() > 1 ? 90 : 95;
  int kills = 0;
  for (int op = 0; op < ops; ++op) {
    const int roll = op_dist(rng);
    if (roll < 60) {
      const auto src = static_cast<ProcessId>(proc(rng));
      auto dst = static_cast<ProcessId>(proc(rng));
      if (dst == src) dst = static_cast<ProcessId>((src + 1) % n);
      ASSERT_TRUE(fleet.send_app(src, dst))
          << "seed " << seed << ": " << fleet.error();
    } else if (roll < 85 || kills >= max_kills) {
      ASSERT_TRUE(fleet.basic_checkpoint(static_cast<ProcessId>(proc(rng))))
          << "seed " << seed << ": " << fleet.error();
    } else if (roll < orphan_roll) {
      ++kills;
      ASSERT_TRUE(fleet.kill_and_restart(static_cast<ProcessId>(proc(rng))))
          << "seed " << seed << ": " << fleet.error();
    } else {
      ++kills;
      const auto victim = static_cast<ProcessId>(proc(rng));
      const auto peer = static_cast<ProcessId>((victim + 1) % n);
      ASSERT_TRUE(fleet.send_app(victim, peer))
          << "seed " << seed << ": " << fleet.error();
      ASSERT_TRUE(fleet.kill_and_restart(victim))
          << "seed " << seed << ": " << fleet.error();
    }
  }
  ASSERT_TRUE(fleet.shutdown()) << "seed " << seed << ": " << fleet.error();
  ++stats.runs;
  stats.sessions += fleet.recovery_sessions();
  stats.restarts += fleet.recovery_restarts();
  stats.orphans_repaired += fleet.orphans_repaired();

  ReplayResult replay =
      replay_event_log(fleet.log_path(), replay_config(dir, n));
  ASSERT_TRUE(replay.ok) << "seed " << seed << ": " << replay.error;
  if (replay.system->recorder().audit_no_orphans()) {
    test::audit_safety_theorem1(*replay.system);
  } else {
    ++g_orphan_gate_skips;
    ADD_FAILURE() << "seed " << seed << ": orphan survived "
                  << fleet.recovery_sessions() << " recovery sessions";
  }
  EXPECT_EQ(line_from_fleet_media(fleet, n),
            line_from_replay_system(*replay.system))
      << "seed " << seed;
}

TEST(Transport, TwentySeedsReplayBitIdentical) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::uint64_t seeds = 20 * static_cast<std::uint64_t>(soak_factor());
  SweepStats stats;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    random_run(seed, stats);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The sweep summary the nightly soak log greps for: sessions exercised,
  // orphans repaired, and — the point of this PR — zero orphan-gated
  // oracle skips: every orphaning kill was repaired over the wire.
  std::cout << "[sweep] runs=" << stats.runs
            << " recovery_sessions=" << stats.sessions
            << " session_restarts=" << stats.restarts
            << " orphans_repaired=" << stats.orphans_repaired
            << " orphan_gate_skips=" << g_orphan_gate_skips << "\n";
  RecordProperty("recovery_sessions", static_cast<int>(stats.sessions));
  RecordProperty("orphan_gate_skips", static_cast<int>(g_orphan_gate_skips));
  EXPECT_EQ(g_orphan_gate_skips, 0u);
  // The schedule above contains deliberate orphan-forcing kills, so the
  // session machinery must actually have fired across the sweep.
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_GE(stats.orphans_repaired, stats.sessions);
}

// ---- Wire-driven recovery sessions ----------------------------------------

/// Count log events of one kind.
std::size_t count_events(const std::vector<Event>& events, EventKind kind) {
  std::size_t count = 0;
  for (const Event& e : events)
    if (e.kind == kind) ++count;
  return count;
}

// The tentpole acceptance: a kill that orphans delivered messages triggers
// the paper's recovery session over the wire — RecoveryStart broadcast with
// the Lemma-1 line and LI vector, every worker rolls back (or runs peer
// recovery) and acks RolledBack — and the whole run, session included,
// replays bit-identically with the FULL oracle battery.  No skips.
TEST(Transport, OrphaningKillRunsWireRecoverySession) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_orphan");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));  // receive becomes checkpointed...
  ASSERT_TRUE(fleet.send_app(1, 0));
  // ...and p1 dies with BOTH sends still in its volatile interval: the
  // quiesce drain lands the deliveries, the re-attach resumes at p1's
  // initial checkpoint, and two live receives now cite a dead send.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  EXPECT_EQ(fleet.recovery_restarts(), 0u);
  EXPECT_EQ(fleet.orphans_repaired(), 2u);

  // Traffic resumes on the post-session lineage.
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  const std::vector<Event> events = read_event_log(fleet.log_path());
  EXPECT_EQ(count_events(events, EventKind::kRecoveryStart), 1u);
  EXPECT_EQ(count_events(events, EventKind::kRolledBack), n);

  certify(fleet, dir, n);
}

// A log in which an orphaning kill is NOT followed by a recovery session
// must be refused — and the refusal names the orphaning event, so the
// failure is diagnosable from the message alone.
TEST(Transport, OrphanedLogWithoutSessionIsRefusedByName) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_orphan_refuse");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  // Strip the session from the log: what remains is exactly the old
  // pre-session world — an orphaned run that used to be silently skipped.
  std::vector<Event> events = read_event_log(fleet.log_path());
  std::erase_if(events, [](const Event& e) {
    return e.kind == EventKind::kRecoveryStart ||
           e.kind == EventKind::kRolledBack;
  });
  ReplayResult refused = replay_events(events, replay_config(dir, n));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("orphaned"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("recovery session"), std::string::npos)
      << refused.error;
}

// The restart-during-session acceptance: a second SIGKILL lands mid-session
// (one worker never sees the broadcast and dies), the session restarts with
// the accumulated faulty set and a new attempt, everyone re-applies, and
// the whole thing — both logged session starts, every ack — replays
// bit-identically.
TEST(Transport, SecondKillMidSessionRestartsAndCertifies) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_midsession");
  FleetConfig config = fleet_config(dir, n);
  config.recovery_withhold_then_kill = 2;  // second victim, mid-session
  ProcFleet fleet(config);
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(1, 0));
  // p1's kill orphans its volatile sends and starts the session; the test
  // hook withholds the broadcast from p2, collects the other acks, then
  // quiesce-kills p2 — the session must restart as {1, 2} and converge.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  EXPECT_EQ(fleet.recovery_restarts(), 1u);
  EXPECT_EQ(fleet.incarnation(1), 1u);
  EXPECT_EQ(fleet.incarnation(2), 1u);

  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  const std::vector<Event> events = read_event_log(fleet.log_path());
  // Two session starts (attempt 0 and the restarted attempt 1)...
  EXPECT_EQ(count_events(events, EventKind::kRecoveryStart), 2u);
  std::uint32_t max_attempt = 0;
  for (const Event& e : events)
    if (e.kind == EventKind::kRecoveryStart)
      max_attempt = std::max(max_attempt, e.attempt);
  EXPECT_EQ(max_attempt, 1u);
  // ...and at least the partial attempt-0 acks plus all attempt-1 acks.
  EXPECT_GE(count_events(events, EventKind::kRolledBack), n + 1);

  certify(fleet, dir, n);
}

// ---- Unclean SIGKILL: liveness yes, certification of the clean prefix ----

TEST(Transport, UncleanKillCertifiesExactlyTheCleanPrefix) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_unclean");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.send_app(2, 1));  // may still be in flight at the kill

  // No drain: frames can die unlogged in kernel socket buffers.
  ASSERT_TRUE(fleet.kill_unclean(1)) << fleet.error();
  ASSERT_TRUE(fleet.restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 1u);

  // Liveness: the replacement re-attached from its media and participates.
  ASSERT_TRUE(fleet.send_app(1, 0));
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  // The unclean kill tags the log with its own event index; replay
  // certifies everything before it and stops exactly there, reporting the
  // boundary instead of refusing the run wholesale.
  const std::vector<Event> events = read_event_log(fleet.log_path());
  std::size_t ukill_index = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kUncleanKill) {
      ukill_index = i;
      EXPECT_EQ(events[i].seq, i);  // the tag IS the event's own position
      break;
    }
  }
  ASSERT_LT(ukill_index, events.size());

  ReplayResult replay =
      replay_event_log(fleet.log_path(), replay_config(dir, n));
  EXPECT_TRUE(replay.ok) << replay.error;
  ASSERT_TRUE(replay.stopped_at.has_value());
  EXPECT_EQ(*replay.stopped_at, ukill_index);
  EXPECT_EQ(replay.events_replayed, ukill_index);
  EXPECT_NE(replay.stop_reason.find("unclean"), std::string::npos)
      << replay.stop_reason;
  EXPECT_NE(replay.stop_reason.find("clean prefix"), std::string::npos)
      << replay.stop_reason;
}

// ---- The oracle bites: a tampered log must fail certification -------------

TEST(Transport, TamperedLogFailsReplay) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_tamper");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  std::vector<Event> events = read_event_log(fleet.log_path());
  ReplayResult honest = replay_events(events, replay_config(dir, n));
  ASSERT_TRUE(honest.ok) << honest.error;

  // Corrupt one delivered dependency-vector entry.
  bool tampered = false;
  for (Event& e : events) {
    if (e.kind == EventKind::kDeliver && !e.dv.empty()) {
      e.dv[0] += 1;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "run produced no deliver events";
  ScratchDir tamper_dir("transport_tamper_replay");
  ReplayResult caught = replay_events(events, replay_config(tamper_dir, n));
  EXPECT_FALSE(caught.ok);
  EXPECT_NE(caught.error.find("deliver"), std::string::npos) << caught.error;
}

// ---- The parent's bookkeeping stays bounded -------------------------------

// A delivery record is kept only until its sender checkpoints past the
// send, so a steady run holds a handful of records, not one per delivery.
TEST(Transport, DeliveryRecordsStayBoundedInASteadyRun) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 4;
  ScratchDir dir("transport_steady_records");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> roll(0, 99);
  std::uniform_int_distribution<std::size_t> proc(0, n - 1);
  std::size_t peak = 0;
  for (int call = 0; call < 2000; ++call) {
    const auto p = static_cast<ProcessId>(proc(rng));
    if (roll(rng) < 80) {
      const auto dst =
          static_cast<ProcessId>((p + 1 + proc(rng) % (n - 1)) % n);
      ASSERT_TRUE(fleet.send_app(p, dst)) << fleet.error();
    } else {
      ASSERT_TRUE(fleet.basic_checkpoint(p)) << fleet.error();
    }
    peak = std::max(peak, fleet.delivered_records());
  }
  // Observed 16-17; without pruning, one per delivery (about 1600).
  EXPECT_LE(peak, 32u);
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();
  certify(fleet, dir, n);
}

// A receiver that falls behind holds its deliveries outstanding.  p1 is
// stopped, so it cannot acknowledge: the call that passes the bound must
// not return before p1 resumes and its RecvAcks bring the count back.
// After that p1 only receives, and the count stays within the bound.
TEST(Transport, ReceiveOnlyWorkerKeepsOutstandingAtTheBound) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_receive_only");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  const pid_t receiver = fleet.pid(1);
  ASSERT_EQ(::kill(receiver, SIGSTOP), 0);
  for (std::size_t i = 1; i <= ProcFleet::kMaxOutstanding; ++i) {
    ASSERT_TRUE(fleet.send_app(i % 2 == 0 ? 0 : 2, 1)) << fleet.error();
    ASSERT_EQ(fleet.outstanding(), i);
  }
  std::atomic<bool> resumed{false};
  std::thread resume([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    resumed = true;
    ::kill(receiver, SIGCONT);
  });
  const bool sent = fleet.send_app(0, 1);
  const bool waited = resumed.load();
  resume.join();
  ASSERT_TRUE(sent) << fleet.error();
  EXPECT_TRUE(waited) << "returned past the bound before p1 could acknowledge";
  EXPECT_LE(fleet.outstanding(), ProcFleet::kMaxOutstanding);

  std::size_t peak = 0;
  for (int call = 0; call < 2000; ++call) {
    ASSERT_TRUE(fleet.send_app(call % 2 == 0 ? 0 : 2, 1)) << fleet.error();
    peak = std::max(peak, fleet.outstanding());
  }
  EXPECT_LE(peak, ProcFleet::kMaxOutstanding);
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();
  EXPECT_EQ(fleet.outstanding(), 0u);
  certify(fleet, dir, n);
}

/// This process's open descriptors: number -> target, socket inodes masked
/// (a respawned worker's socket is a new one under the same number).
std::map<int, std::string> open_descriptors() {
  std::map<int, std::string> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    std::string target = std::filesystem::read_symlink(entry.path(), ec);
    if (ec || target.starts_with("/proc/")) continue;  // the listing itself
    if (target.starts_with("socket:")) target = "socket";
    fds[std::stoi(entry.path().filename().string())] = target;
  }
  return fds;
}

TEST(Transport, KillRestartCyclesLeaveNoDescriptorBehind) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_fd_cycles");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  const std::map<int, std::string> at_start = open_descriptors();
  for (int cycle = 0; cycle < 20; ++cycle) {
    const auto victim = static_cast<ProcessId>(cycle % n);
    const auto peer = static_cast<ProcessId>((victim + 1) % n);
    ASSERT_TRUE(fleet.send_app(peer, victim)) << fleet.error();
    // Every other cycle the victim's send orphans and runs a session.
    ASSERT_TRUE(fleet.send_app(victim, peer)) << fleet.error();
    if (cycle % 2 == 0)
      ASSERT_TRUE(fleet.basic_checkpoint(victim)) << fleet.error();
    ASSERT_TRUE(fleet.kill_and_restart(victim)) << fleet.error();
  }
  EXPECT_GT(fleet.recovery_sessions(), 0u);
  EXPECT_EQ(open_descriptors(), at_start);
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();
  certify(fleet, dir, n);
}

// ---- A rogue worker's frames fail the run by name -------------------------

std::string rogue_bin() {
  const char* env = std::getenv("RDTGC_ROGUE_BIN");
  return env != nullptr ? env : "";
}

/// Sets RDTGC_ROGUE_MODE for the workers spawned in its scope.
class RogueMode {
 public:
  explicit RogueMode(const char* mode) {
    ::setenv("RDTGC_ROGUE_MODE", mode, 1);
  }
  ~RogueMode() { ::unsetenv("RDTGC_ROGUE_MODE"); }
  RogueMode(const RogueMode&) = delete;
  RogueMode& operator=(const RogueMode&) = delete;
};

FleetConfig rogue_config(const ScratchDir& dir) {
  FleetConfig config = fleet_config(dir, 3);
  config.worker_binary = rogue_bin();
  config.step_timeout_ms = 5000;
  return config;
}

TEST(Transport, RogueHelloFailsStartByName) {
  ASSERT_FALSE(rogue_bin().empty()) << "RDTGC_ROGUE_BIN not set";
  for (const char* mode : {"short-hello", "huge-hello-index"}) {
    const RogueMode rogue(mode);
    ScratchDir dir(std::string("transport_rogue_") + mode);
    ProcFleet fleet(rogue_config(dir));
    EXPECT_FALSE(fleet.start()) << mode;
    EXPECT_NE(fleet.error().find("Hello frame from p"), std::string::npos)
        << mode << ": " << fleet.error();
  }
}

TEST(Transport, RogueFramesFailTheCallByName) {
  ASSERT_FALSE(rogue_bin().empty()) << "RDTGC_ROGUE_BIN not set";
  const struct {
    const char* mode;
    const char* error;
  } cases[] = {
      {"short-recv-ack", "RecvAck frame from p1 carries a DV of width 2"},
      {"forced-ack-lineage", "RecvAck frame from p1 puts its receive in"},
      {"short-checkpoint", "Checkpoint frame from p0 carries a DV of width 2"},
      // p0's Data frame is its seq 2 (its Hello is seq 1).
      {"phantom-recv-ack",
       "p1 replied with RecvAck of message (p0, inc 0, seq 1002) where it "
       "owed RecvAck of message (p0, inc 0, seq 2)"},
      // The stray CmdDone waits in p0's socket until p0 is next read, when
      // it owes the RecvAck of p1's Data frame (p1's seq 3).
      {"extra-cmd-done",
       "p0 replied with CmdDone answering Cmd SendApp #1 where it owed "
       "RecvAck of message (p1, inc 0, seq 3)"},
  };
  for (const auto& c : cases) {
    const RogueMode rogue(c.mode);
    ScratchDir dir(std::string("transport_rogue_") + c.mode);
    ProcFleet fleet(rogue_config(dir));
    ASSERT_TRUE(fleet.start()) << c.mode << ": " << fleet.error();
    // p1's RecvAck for p0's message is read no later than p1's own next
    // command: its socket is FIFO.
    const bool ok = fleet.send_app(0, 1) && fleet.send_app(1, 0) &&
                    fleet.basic_checkpoint(0);
    EXPECT_FALSE(ok) << c.mode;
    EXPECT_NE(fleet.error().find(c.error), std::string::npos)
        << c.mode << ": " << fleet.error();
  }
}

// ---- The worker's side of the request/reply contract ----------------------

/// Fork/exec one real rdtgc_proc as p0 of a two-process fleet whose parent
/// is the test itself, listening at `socket_path`.
pid_t spawn_worker(const std::string& socket_path, const std::string& storage) {
  const std::vector<std::string> args = {
      proc_bin(), socket_path, "0", "2", "0",
      std::to_string(static_cast<int>(ckpt::ProtocolKind::kFdas)),
      std::to_string(static_cast<int>(ckpt::StorageBackendKind::kMmapFile)),
      storage, "1", "10000"};
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

// Each frame the parent sends gets exactly one frame back, and nothing
// more: after every reply the socket is empty.  Wire v3 followed the Data
// and Checkpoint replies with a CmdDone.
TEST(Transport, WorkerAnswersEachFrameWithExactlyOneFrame) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  ScratchDir dir("transport_worker_contract");
  const std::string socket_path = dir.path() + "/worker.sock";
  std::filesystem::create_directories(dir.path() + "/p0");
  Fd listener = uds_listen(socket_path, 1);
  ASSERT_TRUE(listener.valid());
  const pid_t pid = spawn_worker(socket_path, dir.path() + "/p0");
  ASSERT_GT(pid, 0);
  Fd fd = uds_accept(listener.get(), 10000);
  ASSERT_TRUE(fd.valid());

  WireBuffer in;
  DecodedFrame frame;
  const auto reply = [&] {
    EXPECT_EQ(recv_frame(fd.get(), in, 10000), RecvStatus::kFrame);
    EXPECT_EQ(decode_frame(in, frame), WireError::kOk);
    return frame.header.kind();
  };
  ASSERT_EQ(reply(), FrameKind::kHello);

  std::uint64_t seq = 0;
  WireBuffer out;
  const auto meta = [&](ProcessId src) {
    FrameMeta m;
    m.src = src;
    m.dst = 0;
    m.incarnation = 0;
    m.seq = ++seq;
    return m;
  };
  const auto cmd = [&](CmdOp op, ProcessId target) {
    CmdBody body;
    body.op = static_cast<std::uint8_t>(op);
    body.target = target;
    body.param = 1;
    encode_cmd(out, meta(-1), body);
    return out;
  };
  DataBody data;
  data.send_interval = 1;
  data.bytes = 1;
  data.dv = {0, 1};
  WireBuffer data_frame;
  encode_data(data_frame, meta(1), data);

  const struct {
    WireBuffer request;
    FrameKind reply;
  } exchanges[] = {
      {cmd(CmdOp::kSendApp, 1), FrameKind::kData},
      {data_frame, FrameKind::kRecvAck},
      {cmd(CmdOp::kCheckpoint, -1), FrameKind::kCheckpoint},
      {cmd(CmdOp::kQuiesce, -1), FrameKind::kCmdDone},
      {cmd(CmdOp::kShutdown, -1), FrameKind::kState},
  };
  for (const auto& x : exchanges) {
    ASSERT_TRUE(send_frame(fd.get(), x.request, 10000));
    EXPECT_EQ(reply(), x.reply) << "reply kind " << int{frame.header.kind_raw};
    // After its State the worker exits, which closes the socket.
    const RecvStatus next = recv_frame(fd.get(), in, 0);
    if (x.reply == FrameKind::kState)
      EXPECT_NE(next, RecvStatus::kFrame);
    else
      EXPECT_EQ(next, RecvStatus::kTimeout)
          << "a second frame after the reply to a kind "
          << int{x.request[10]} << " frame";
  }
  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(recv_frame(fd.get(), in, 10000), RecvStatus::kClosed);
}

// ---- Deadlines and deaths on the parent's reads ---------------------------

// A stopped command target never replies: the call fails at its deadline,
// naming it, and the fleet's destructor still reaps the stopped worker.
TEST(Transport, StoppedCommandTargetFailsTheCallAtItsDeadline) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  ScratchDir dir("transport_stopped_target");
  FleetConfig config = fleet_config(dir, 3);
  config.step_timeout_ms = 300;
  pid_t stopped = -1;
  {
    ProcFleet fleet(config);
    ASSERT_TRUE(fleet.start()) << fleet.error();
    ASSERT_TRUE(fleet.send_app(0, 1)) << fleet.error();
    stopped = fleet.pid(1);
    ASSERT_EQ(::kill(stopped, SIGSTOP), 0);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(fleet.basic_checkpoint(1));
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(took, std::chrono::milliseconds(300));
    EXPECT_LT(took, std::chrono::milliseconds(300 + 200));
    EXPECT_NE(fleet.error().find("deadline expired after 300 ms: p1 still "
                                 "owes"),
              std::string::npos)
        << fleet.error();
  }
  // Reaped: no such process, not even a zombie.
  EXPECT_EQ(::kill(stopped, 0), -1);
  EXPECT_EQ(errno, ESRCH);
}

// A worker SIGKILLed from outside while it owes a RecvAck: the next read
// of its socket fails the call by name instead of waiting out a deadline.
TEST(Transport, WorkerKilledOwingARecvAckFailsTheNextRead) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  ScratchDir dir("transport_killed_owing");
  FleetConfig config = fleet_config(dir, 3);
  config.step_timeout_ms = 5000;
  ProcFleet fleet(config);
  ASSERT_TRUE(fleet.start()) << fleet.error();
  const pid_t victim = fleet.pid(1);
  ASSERT_EQ(::kill(victim, SIGSTOP), 0);
  ASSERT_TRUE(fleet.send_app(0, 1)) << fleet.error();
  // The next call sends the Data frame on to the stopped p1.
  ASSERT_TRUE(fleet.send_app(2, 0)) << fleet.error();
  ASSERT_EQ(fleet.outstanding(), 2u);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(victim), &info,
                     WEXITED | WNOWAIT),
            0);  // dead, left for the fleet to reap
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fleet.shutdown());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(config.step_timeout_ms));
  EXPECT_NE(fleet.error().find("worker p1 died unexpectedly, owing RecvAck "
                               "of message (p0"),
            std::string::npos)
      << fleet.error();
}

// An event log that cannot be opened is an I/O error of the run, reported
// by start() like any other, not a broken contract.
TEST(Transport, UnopenableEventLogFailsStartByName) {
  ScratchDir dir("transport_log_dir");
  std::filesystem::create_directories(dir.path() + "/events.log");
  ProcFleet fleet(fleet_config(dir, 2));
  EXPECT_FALSE(fleet.start());
  EXPECT_NE(fleet.error().find("events.log"), std::string::npos)
      << fleet.error();
}

/// Lowers this process's soft RLIMIT_FSIZE with SIGXFSZ ignored, so a write
/// past the limit fails with EFBIG ("File too large"); restores both on
/// scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit_), 0);
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    EXPECT_EQ(::sigaction(SIGXFSZ, &ignore, &saved_action_), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_limit_{};
  struct sigaction saved_action_ {};
};

// An event-log write that fails mid-run fails the call that made it, by
// name, with no exception escaping; the failed fleet stays failed.
TEST(Transport, EventLogWriteFailureFailsTheCallByName) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_log_full");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  const FileSizeLimit limit(4096);
  bool ok = true;
  int calls = 0;
  for (; ok && calls < 200; ++calls) {
    const auto src = static_cast<ProcessId>(calls % n);
    ASSERT_NO_THROW(ok = fleet.send_app(src, (src + 1) % n)) << calls;
  }
  EXPECT_FALSE(ok);
  EXPECT_LT(calls, 100);
  EXPECT_NE(fleet.error().find("events.log"), std::string::npos)
      << fleet.error();
  EXPECT_NE(fleet.error().find("File too large"), std::string::npos)
      << fleet.error();
  bool later = true;
  ASSERT_NO_THROW(later = fleet.basic_checkpoint(0));
  EXPECT_FALSE(later);
  ASSERT_NO_THROW(later = fleet.shutdown());
  EXPECT_FALSE(later);
}

// ---- A fleet that cannot spawn fails at once, never waits out a deadline --

/// start() with `binary` as the worker fails well inside the default step
/// deadline, naming the binary and the exec error.
void expect_start_fails_at_once(const ScratchDir& dir,
                                const std::string& binary,
                                const char* strerror_text) {
  FleetConfig config = fleet_config(dir, 2);
  config.worker_binary = binary;
  ASSERT_EQ(config.step_timeout_ms, FleetConfig{}.step_timeout_ms);
  ProcFleet fleet(config);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fleet.start());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  EXPECT_NE(fleet.error().find(binary), std::string::npos) << fleet.error();
  EXPECT_NE(fleet.error().find(strerror_text), std::string::npos)
      << fleet.error();
}

TEST(Transport, MissingWorkerBinaryFailsWithinDeadline) {
  ScratchDir dir("transport_nobin");
  expect_start_fails_at_once(dir, dir.path() + "/no_such_binary",
                             std::strerror(ENOENT));
}

TEST(Transport, NonExecutableWorkerBinaryFailsAtOnce) {
  ScratchDir dir("transport_noexec");
  const std::string binary = dir.path() + "/not_executable";
  std::ofstream(binary) << "#!/bin/sh\n";
  ASSERT_EQ(::chmod(binary.c_str(), 0644), 0);
  expect_start_fails_at_once(dir, binary, std::strerror(EACCES));
}

// ---- The worker binaries carry their own libstdc++ and libgcc -------------

/// The DT_NEEDED entries of the 64-bit ELF file at `path`, read from its
/// dynamic section and the string table that section links to.
void read_needed(const std::string& path, std::vector<std::string>& needed) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto read = [&](std::uint64_t offset, auto& out) {
    ASSERT_LE(offset + sizeof out, bytes.size()) << path;
    std::memcpy(&out, bytes.data() + offset, sizeof out);
  };
  Elf64_Ehdr eh{};
  ASSERT_NO_FATAL_FAILURE(read(0, eh));
  ASSERT_EQ(std::memcmp(eh.e_ident, ELFMAG, SELFMAG), 0) << path;
  ASSERT_EQ(eh.e_ident[EI_CLASS], ELFCLASS64) << path;
  for (std::uint64_t i = 0; i < eh.e_shnum; ++i) {
    Elf64_Shdr dynamic{};
    ASSERT_NO_FATAL_FAILURE(read(eh.e_shoff + i * eh.e_shentsize, dynamic));
    if (dynamic.sh_type != SHT_DYNAMIC) continue;
    Elf64_Shdr strings{};
    ASSERT_NO_FATAL_FAILURE(
        read(eh.e_shoff + dynamic.sh_link * eh.e_shentsize, strings));
    for (std::uint64_t off = 0; off + sizeof(Elf64_Dyn) <= dynamic.sh_size;
         off += sizeof(Elf64_Dyn)) {
      Elf64_Dyn entry{};
      ASSERT_NO_FATAL_FAILURE(read(dynamic.sh_offset + off, entry));
      if (entry.d_tag == DT_NULL) break;
      if (entry.d_tag != DT_NEEDED) continue;
      const std::uint64_t name = strings.sh_offset + entry.d_un.d_val;
      ASSERT_LT(name, bytes.size()) << path;
      needed.emplace_back(bytes.data() + name,
                          ::strnlen(bytes.data() + name, bytes.size() - name));
    }
  }
}

// Workers start once per process and again at every restart; a shared
// libstdc++ would cost each start its map, relocation and page faults
// (tools/CMakeLists.txt).  A build change that undoes the static link
// fails here.
TEST(Transport, WorkerBinariesCarryTheirOwnLibstdcxx) {
  for (const std::string& bin : {proc_bin(), rogue_bin()}) {
    ASSERT_FALSE(bin.empty()) << "RDTGC_PROC_BIN or RDTGC_ROGUE_BIN not set";
    std::vector<std::string> needed;
    ASSERT_NO_FATAL_FAILURE(read_needed(bin, needed));
    // libc stays shared (sanitizer runtimes and LD_PRELOAD shims need it),
    // which also shows the reader found the dynamic section.
    EXPECT_TRUE(std::any_of(needed.begin(), needed.end(), [](const auto& lib) {
      return lib.starts_with("libc.so");
    })) << bin;
    for (const std::string& lib : needed) {
      EXPECT_FALSE(lib.starts_with("libstdc++.so")) << bin << ": " << lib;
      EXPECT_FALSE(lib.starts_with("libgcc_s.so")) << bin << ": " << lib;
    }
  }
}

}  // namespace
}  // namespace rdtgc::transport
