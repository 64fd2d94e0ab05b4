// Storage-medium contract tests: a store over each medium behind the
// ckpt::StorageBackend trait — none (in-memory), mmap'd segment,
// log-structured — is driven through the shared test::RandomStoreTrace
// harness next to the flat reference and must present bit-identical
// observable state (indices, counters, stats, DV contents), including
// across mid-trace reopens and after crash-style drops reopened via
// recover().  The medium tests below drive each file format directly.
//
// The recovery tests close the loop to the paper: a full system run
// persists through a backend, the stores are reopened from disk alone, and
// the reconstructed recovery line and retained sets are checked against the
// Lemma-1 / Theorem-1 oracles computed from the recorded CCP.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "util/check.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"

namespace rdtgc {
namespace {

using ckpt::CheckpointStore;
using ckpt::OpenMode;
using ckpt::ShardedCheckpointStore;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using test::RandomStoreTrace;
using test::ScratchDir;

StorageConfig persistent_config(StorageBackendKind kind,
                                const std::string& directory) {
  StorageConfig config;
  config.kind = kind;
  config.directory = directory;
  // Small knobs so a 400-op trace exercises segment growth and log
  // compaction, not just the happy path.
  config.initial_slots = 2;
  config.compact_min_records = 16;
  // The CI forced-policy leg re-runs this whole suite with the async
  // durability pipeline on (RDTGC_FORCE_DURABILITY=group).
  return test::with_forced_durability(config);
}

/// Whether the forced-policy leg put an async pipeline under the stores.
/// Unclean-drop expectations change: a pipelined store dropped mid-window
/// recovers a consistent PREFIX, not the full acknowledged state.
bool forced_async_durability() {
  const auto forced = test::forced_durability();
  return forced.has_value() && forced->mode != ckpt::DurabilityMode::kSync;
}

// ---- One trace, every medium, equal after every op ------------------------

/// An identical randomized schedule through the flat reference and a store
/// over each medium (none, mmap, log) yields identical observable state
/// after every operation.  `reopen_probability > 0` additionally drops and
/// reopens the persistent stores at random points (recover() mid-schedule),
/// alternating clean flushes with unclean drops.  Every trace ends with a
/// crash-style reopen of both persistent stores, so the bytes the media
/// wrote are checked even when no reopen happened mid-trace.
void run_backend_trace(std::uint64_t seed, double reopen_probability) {
  const RandomStoreTrace trace(seed);
  CheckpointStore flat(5);
  ShardedCheckpointStore memory(5);

  ScratchDir mmap_dir("mmap_eq");
  ScratchDir log_dir("log_eq");
  StorageConfig mmap_cfg =
      persistent_config(StorageBackendKind::kMmapFile, mmap_dir.path());
  StorageConfig log_cfg =
      persistent_config(StorageBackendKind::kLogStructured, log_dir.path());
  auto mmap_store = std::make_unique<ShardedCheckpointStore>(
      5, 1, ckpt::StoreConcurrency::kUnsynchronized, mmap_cfg);
  auto log_store = std::make_unique<ShardedCheckpointStore>(
      5, 1, ckpt::StoreConcurrency::kUnsynchronized, log_cfg);
  mmap_cfg.open_mode = OpenMode::kAttach;
  log_cfg.open_mode = OpenMode::kAttach;

  // Drop both persistent stores (flushing first when `clean`) and reopen
  // them from their media alone.
  const auto reopen = [&](bool clean) {
    if (clean) {
      mmap_store->flush();
      log_store->flush();
    }
    mmap_store.reset();
    log_store.reset();
    mmap_store = std::make_unique<ShardedCheckpointStore>(
        5, 1, ckpt::StoreConcurrency::kUnsynchronized, mmap_cfg);
    log_store = std::make_unique<ShardedCheckpointStore>(
        5, 1, ckpt::StoreConcurrency::kUnsynchronized, log_cfg);
    ASSERT_EQ(mmap_store->recover(), flat.count());
    ASSERT_EQ(log_store->recover(), flat.count());
    test::expect_stores_equal(flat, *mmap_store);
    test::expect_stores_equal(flat, *log_store);
  };

  util::Rng reopen_rng(seed ^ 0x5ca7c4d1ull);
  bool clean = false;
  for (const RandomStoreTrace::Op& op : trace.ops()) {
    trace.apply(op, flat);
    trace.apply(op, memory);
    trace.apply(op, *mmap_store);
    trace.apply(op, *log_store);
    test::expect_stores_equal(flat, memory);
    test::expect_stores_equal(flat, *mmap_store);
    test::expect_stores_equal(flat, *log_store);
    if (::testing::Test::HasFatalFailure()) return;

    if (reopen_probability > 0 && reopen_rng.bernoulli(reopen_probability)) {
      // Reopen-from-disk in the middle of the schedule, alternating a clean
      // close (flush) with a crash-style drop.  Under a forced async policy
      // every reopen flushes — an unclean drop would recover a prefix and
      // diverge from the flat reference; the mid-window-kill contract has
      // its own tests in durability_test.cpp.
      clean = !clean;
      reopen(clean || forced_async_durability());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  reopen(forced_async_durability());
}

TEST(BackendEquivalence, AllBackendsMatchFlatReferenceOnRandomizedTraces) {
  run_backend_trace(20260726, 0.0);
  run_backend_trace(97, 0.0);
  run_backend_trace(7, 0.0);
}

TEST(BackendEquivalence, MidTraceReopenSchedulesKeepEquivalence) {
  run_backend_trace(41, 0.05);
  run_backend_trace(13, 0.08);
}

// ---- Crash-style recovery at the trace level ------------------------------

void run_crash_recovery(StorageBackendKind kind, bool clean,
                        std::uint64_t seed) {
  const RandomStoreTrace trace(seed);
  CheckpointStore flat(2);
  ScratchDir dir("crash");
  StorageConfig config = persistent_config(kind, dir.path());
  auto store = std::make_unique<ShardedCheckpointStore>(
      2, ShardedCheckpointStore::kDefaultShardCount,
      ckpt::StoreConcurrency::kUnsynchronized, config);
  trace.replay(flat);
  trace.replay(*store);
  if (clean) store->flush();
  store.reset();  // clean=false models a crash: no durability point ran

  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(
      2, ShardedCheckpointStore::kDefaultShardCount,
      ckpt::StoreConcurrency::kUnsynchronized, config);
  if (!clean && forced_async_durability()) {
    // Crash mid-window under the forced pipeline: the acknowledged tail is
    // gone, but what recovers must be a consistent prefix of the schedule.
    reopened.recover();
    test::expect_consistent_prefix(trace, reopened, trace.ops().size());
    return;
  }
  ASSERT_EQ(reopened.recover(), flat.count());
  test::expect_stores_equal(flat, reopened);
}

TEST(BackendRecovery, MmapRecoversAfterCleanClose) {
  run_crash_recovery(StorageBackendKind::kMmapFile, true, 101);
}
TEST(BackendRecovery, MmapRecoversAfterUncleanDrop) {
  run_crash_recovery(StorageBackendKind::kMmapFile, false, 102);
}
TEST(BackendRecovery, LogRecoversAfterCleanClose) {
  run_crash_recovery(StorageBackendKind::kLogStructured, true, 103);
}
TEST(BackendRecovery, LogRecoversAfterUncleanDrop) {
  run_crash_recovery(StorageBackendKind::kLogStructured, false, 104);
}

// ---- Direct medium behaviour ----------------------------------------------
//
// The media are write-only: these tests write through a medium directly
// and read what it holds back through recover() into a flat store.

/// Replays the medium at `path` into a fresh flat store.
template <typename Medium, typename... Knobs>
CheckpointStore recover_medium(const std::string& path, Knobs... knobs) {
  CheckpointStore store(0);
  Medium medium(0, path, OpenMode::kAttach, knobs...);
  medium.recover(store);
  return store;
}

TEST(MmapBackend, SegmentGrowsAndTracksSlots) {
  ScratchDir dir("mmap_grow");
  const std::string path = dir.path() + "/p0_s0.seg";
  causality::DependencyVector dv(3);
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 2);
    for (CheckpointIndex i = 0; i < 10; ++i) {
      dv.at(1) = i;
      backend.put(i, dv, static_cast<SimTime>(i), 1);
    }
    EXPECT_EQ(backend.slots_used(), 10u);
    EXPECT_GE(backend.slot_capacity(), 10u);
    // Eliminations clear the live flag in place: no new slots.
    backend.collect(3);
    backend.collect(7);
    EXPECT_EQ(backend.slots_used(), 10u);
    EXPECT_EQ(backend.count(), 8u);
  }
  // The slots hold the DVs that were put.
  const CheckpointStore recovered =
      recover_medium<ckpt::MmapFileBackend>(path, std::size_t{2});
  EXPECT_EQ(recovered.count(), 8u);
  dv.at(1) = 9;
  EXPECT_EQ(recovered.get(9).dv, dv);
}

TEST(MmapBackend, DeadSlotsAreCompactedInPlaceSoTheSegmentStaysBounded) {
  // Sliding-window churn with a live set of ~4: without reclamation the
  // segment would grow with total history; the in-place compaction (slide
  // the live slots to the front when half are dead) must bound both the
  // capacity and the recover() scan at ~2x the live set.
  ScratchDir dir("mmap_bound");
  const std::string path = dir.path() + "/p0_s0.seg";
  CheckpointStore reference(0);
  ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 4);
  causality::DependencyVector dv(3);
  constexpr CheckpointIndex kWindow = 4;
  for (CheckpointIndex i = 0; i < kWindow; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
  }
  for (CheckpointIndex i = kWindow; i < 500; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
    backend.collect(i - kWindow);
    reference.collect(i - kWindow);
  }
  EXPECT_LE(backend.slot_capacity(), 4u * kWindow)
      << "dead slots were never reclaimed";
  EXPECT_LE(backend.slots_used(), backend.slot_capacity());
  EXPECT_EQ(backend.count(), reference.count());

  // The compacted segment still recovers exactly.
  const CheckpointStore recovered =
      recover_medium<ckpt::MmapFileBackend>(path, std::size_t{4});
  test::expect_stores_equal(reference, recovered);
}

TEST(MmapBackend, CleanFlagSurvivesExactlyUntilTheNextMutation) {
  ScratchDir dir("mmap_clean");
  const std::string path = dir.path() + "/p0_s0.seg";
  causality::DependencyVector dv(2);
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 2);
    backend.put(0, dv, 0, 1);
    backend.flush();  // clean close
  }
  {
    CheckpointStore store(0);
    ckpt::MmapFileBackend backend(0, path, OpenMode::kAttach, 2);
    EXPECT_EQ(backend.recover(store), 1u);
    EXPECT_TRUE(backend.recovered_clean());
    backend.put(1, dv, 1, 1);  // mutation invalidates the clean shutdown
  }  // dropped WITHOUT flush
  {
    CheckpointStore store(0);
    ckpt::MmapFileBackend backend(0, path, OpenMode::kAttach, 2);
    EXPECT_EQ(backend.recover(store), 2u);
    EXPECT_FALSE(backend.recovered_clean());
    EXPECT_TRUE(store.contains(1));
  }
}

TEST(MmapBackend, MutationsBeforeRecoverAreRejected) {
  ScratchDir dir("mmap_pending");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  config.initial_slots = 2;
  causality::DependencyVector dv(2);
  {
    ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    store.put(0, dv, 0, 1);
  }
  config.open_mode = OpenMode::kAttach;
  {
    ckpt::MmapFileBackend backend(0, config.stripe_file(0, 0),
                                  OpenMode::kAttach, 2);
    EXPECT_THROW(backend.put(1, dv, 1, 1), util::ContractViolation);
  }
  ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                               config);
  EXPECT_THROW(store.put(1, dv, 1, 1), util::ContractViolation);
  EXPECT_EQ(store.recover(), 1u);
  store.put(1, dv, 1, 1);  // fine now
  EXPECT_EQ(store.recover(), 2u);  // idempotent no-op on a live store
}

TEST(LogBackend, CompactionBoundsTheLogAndPreservesState) {
  ScratchDir dir("log_compact");
  const std::string path = dir.path() + "/p0_s0.log";
  CheckpointStore reference(0);
  ckpt::LogStructuredBackend backend(0, path, OpenMode::kFresh,
                                     /*compact_min_records=*/8,
                                     /*compact_dead_ratio=*/0.5);
  causality::DependencyVector dv(3);
  // Sliding-window churn: every put is followed by the elimination of an
  // index a fixed distance behind — the RDT-LGC steady state that fills a
  // log with dead records.
  constexpr CheckpointIndex kWindow = 4;
  for (CheckpointIndex i = 0; i < kWindow; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
  }
  for (CheckpointIndex i = kWindow; i < 200; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
    backend.collect(i - kWindow);
    reference.collect(i - kWindow);
  }
  EXPECT_GT(backend.compactions(), 0u);
  // 392 mutations ran; compaction keeps the log near the live set's size
  // instead (bounded by the compaction trigger, not the history length).
  EXPECT_LT(backend.log_records(), 2u * 8u + kWindow);
  EXPECT_EQ(backend.count(), reference.count());

  // And the compacted log still replays exactly — stats snapshot included.
  backend.flush();
  CheckpointStore recovered(0);
  ckpt::LogStructuredBackend reopened(0, path, OpenMode::kAttach, 8, 0.5);
  EXPECT_EQ(reopened.recover(recovered), reference.count());
  test::expect_stores_equal(reference, recovered);
  EXPECT_EQ(reopened.baseline_records(), backend.baseline_records());
}

// ---- Torn tails on log media ----------------------------------------------
//
// What an interrupted append can leave behind, and what recover() makes of
// it.  The tail is located by reopening once: recover() truncates the file
// to its last whole record.

constexpr std::size_t kTornWidth = 3;
constexpr std::uint64_t kLogHeaderBytes = 72;
constexpr std::uint64_t kRecordHeaderBytes = 32;
constexpr std::uint64_t kPutRecordBytes =
    kRecordHeaderBytes + kTornWidth * sizeof(IntervalIndex);

/// The DV stored with checkpoint `g`.
causality::DependencyVector torn_dv(CheckpointIndex g) {
  causality::DependencyVector dv(kTornWidth);
  dv.at(0) = g;
  dv.at(2) = 2 * g + 1;
  return dv;
}

/// Puts [from, to) into `store` (a flat store or a medium).
template <typename Store>
void put_range(Store& store, CheckpointIndex from, CheckpointIndex to) {
  for (CheckpointIndex g = from; g < to; ++g)
    store.put(g, torn_dv(g), static_cast<SimTime>(g + 1), 64);
}

/// Five puts, crash-dropped, then reopened once so the file ends exactly
/// at the last whole record.  Returns that file size.
std::uint64_t write_five_puts(const std::string& path) {
  {
    ckpt::LogStructuredBackend log(0, path, OpenMode::kFresh, 1024, 0.5);
    put_range(log, 0, 5);
  }
  CheckpointStore recovered(0);
  ckpt::LogStructuredBackend reopened(0, path, OpenMode::kAttach, 1024, 0.5);
  EXPECT_EQ(reopened.recover(recovered), 5u);
  return std::filesystem::file_size(path);
}

/// What recover() must make of a log whose final put (index 4) is torn:
/// the first four puts, and a file cut back to them.
void expect_recovers_first_four(const std::string& path, std::uint64_t whole) {
  CheckpointStore reference(0);
  put_range(reference, 0, 4);
  CheckpointStore recovered(0);
  ckpt::LogStructuredBackend log(0, path, OpenMode::kAttach, 1024, 0.5);
  EXPECT_EQ(log.recover(recovered), 4u);
  EXPECT_EQ(log.log_records(), 4u);
  test::expect_stores_equal(reference, recovered);
  EXPECT_EQ(std::filesystem::file_size(path), whole - kPutRecordBytes);
}

/// A process killed between storing a record's body and its magic leaves
/// the body in place and the magic word zero.
TEST(LogTornTail, ZeroMagicFinalPutIsDropped) {
  ScratchDir dir("torn_magic");
  const std::string path = dir.path() + "/p0_s0.log";
  const std::uint64_t whole = write_five_puts(path);
  ASSERT_EQ(whole, kLogHeaderBytes + 5 * kPutRecordBytes);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(whole - kPutRecordBytes));
    const std::uint32_t zero = 0;
    file.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
    ASSERT_TRUE(file.good());
  }
  expect_recovers_first_four(path, whole);
}

/// A log cut inside the last record's DV payload.
TEST(LogTornTail, CutInsideTheLastPayloadIsDropped) {
  ScratchDir dir("torn_cut");
  const std::string path = dir.path() + "/p0_s0.log";
  const std::uint64_t whole = write_five_puts(path);
  std::filesystem::resize_file(path, whole - 3);
  expect_recovers_first_four(path, whole);
}

/// A crash-drop (no flush()) recovers exactly the appended records, cuts
/// the file back to them, and the log keeps appending after the reopen.
TEST(LogTornTail, CrashDropRecoversTheAppendsAndTruncatesTheReserve) {
  ScratchDir dir("torn_drop");
  const std::string path = dir.path() + "/p0_s0.log";
  CheckpointStore reference(0);
  put_range(reference, 0, 40);
  for (CheckpointIndex g = 0; g < 30; g += 2) reference.collect(g);
  {
    ckpt::LogStructuredBackend log(0, path, OpenMode::kFresh, 1024, 0.5);
    put_range(log, 0, 40);
    for (CheckpointIndex g = 0; g < 30; g += 2) log.collect(g);
  }
  const std::uint64_t records_end =
      kLogHeaderBytes + 40 * kPutRecordBytes + 15 * kRecordHeaderBytes;
  // The drop left the zero-filled reserve behind the last record.
  EXPECT_GT(std::filesystem::file_size(path), records_end);
  {
    CheckpointStore recovered(0);
    ckpt::LogStructuredBackend log(0, path, OpenMode::kAttach, 1024, 0.5);
    ASSERT_EQ(log.recover(recovered), reference.count());
    EXPECT_EQ(log.log_records(), 55u);
    test::expect_stores_equal(reference, recovered);
    EXPECT_EQ(std::filesystem::file_size(path), records_end);
    put_range(log, 40, 41);
    put_range(reference, 40, 41);
  }
  CheckpointStore recovered(0);
  ckpt::LogStructuredBackend log(0, path, OpenMode::kAttach, 1024, 0.5);
  ASSERT_EQ(log.recover(recovered), reference.count());
  test::expect_stores_equal(reference, recovered);
  EXPECT_EQ(std::filesystem::file_size(path), records_end + kPutRecordBytes);
}

// ---- The mapped tail window -----------------------------------------------
//
// Appends are stores through a window of kTailWindowPages pages that slides
// only when a record would cross its end; a record wider than the window
// gets a window of its own.  A fresh log maps its first window at offset 0,
// so that window ends at tail_window_bytes().  Each case drops the log
// without flush(), as a killed process would, and recovers it.

std::uint64_t tail_window_bytes() {
  return ckpt::LogStructuredBackend::kTailWindowPages *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Bytes of one put record at DV width `width`.
std::uint64_t put_record_bytes(std::size_t width) {
  return kRecordHeaderBytes + width * sizeof(IntervalIndex);
}

/// The DV stored with checkpoint `g` at width `width`: distinct entries at
/// both ends, so a record cut or shifted anywhere reads back wrong.
causality::DependencyVector window_dv(std::size_t width, CheckpointIndex g) {
  causality::DependencyVector dv(width);
  dv.at(0) = g;
  dv.at(static_cast<ProcessId>(width / 2)) = 2 * g + 1;
  dv.at(static_cast<ProcessId>(width - 1)) = 3 * g + 2;
  return dv;
}

/// Reopens the log at `path` and recovers it into a fresh store, which
/// must equal `reference`.
void expect_log_recovers(const std::string& path,
                         const CheckpointStore& reference) {
  CheckpointStore recovered(0);
  ckpt::LogStructuredBackend log(0, path, OpenMode::kAttach, 1u << 20, 0.5);
  ASSERT_EQ(log.recover(recovered), reference.count());
  test::expect_stores_equal(reference, recovered);
}

/// Puts and collects across three window ends; one record straddles the
/// first window's end.  The recovered store must equal the reference,
/// and so must one that kept appending after the reopen.
TEST(LogTailWindow, RecordStraddlingTheWindowEndRoundTrips) {
  ScratchDir dir("window_straddle");
  const std::string path = dir.path() + "/p0_s0.log";
  constexpr std::size_t width = 16;
  const std::uint64_t window = tail_window_bytes();
  CheckpointStore reference(0);
  bool straddled = false;
  CheckpointIndex next = 0;
  {
    ckpt::LogStructuredBackend log(0, path, OpenMode::kFresh, 1u << 20, 0.5);
    std::uint64_t end = kLogHeaderBytes;
    const auto appended = [&](std::uint64_t bytes) {
      straddled |= end < window && end + bytes > window;
      end += bytes;
    };
    while (end < 3 * window) {
      const auto dv = window_dv(width, next);
      log.put(next, dv, static_cast<SimTime>(next), 64);
      reference.put(next, dv, static_cast<SimTime>(next), 64);
      appended(put_record_bytes(width));
      if (next >= 4 && next % 3 == 0) {
        log.collect(next - 4);
        reference.collect(next - 4);
        appended(kRecordHeaderBytes);
      }
      ++next;
    }
    ASSERT_TRUE(straddled);
  }
  expect_log_recovers(path, reference);
  {
    CheckpointStore recovered(0);
    ckpt::LogStructuredBackend log(0, path, OpenMode::kAttach, 1u << 20, 0.5);
    ASSERT_EQ(log.recover(recovered), reference.count());
    for (const CheckpointIndex stop = next + 400; next < stop; ++next) {
      const auto dv = window_dv(width, next);
      log.put(next, dv, static_cast<SimTime>(next), 64);
      reference.put(next, dv, static_cast<SimTime>(next), 64);
    }
  }
  expect_log_recovers(path, reference);
}

/// A DV width whose put record is wider than the window: every append maps
/// a window of its own size.
TEST(LogTailWindow, RecordWiderThanTheWindowRoundTrips) {
  ScratchDir dir("window_wide");
  const std::string path = dir.path() + "/p0_s0.log";
  const std::size_t width =
      static_cast<std::size_t>(tail_window_bytes() / sizeof(IntervalIndex));
  ASSERT_GE(width, 8192u);
  ASSERT_GT(put_record_bytes(width), tail_window_bytes());
  CheckpointStore reference(0);
  {
    ckpt::LogStructuredBackend log(0, path, OpenMode::kFresh, 1u << 20, 0.5);
    for (CheckpointIndex g = 0; g < 6; ++g) {
      log.put(g, window_dv(width, g), static_cast<SimTime>(g), 64);
      reference.put(g, window_dv(width, g), static_cast<SimTime>(g), 64);
    }
    log.collect(1);
    reference.collect(1);
    log.discard_after(4);
    reference.discard_after(4);
    log.put(5, window_dv(width, 50), 50, 64);
    reference.put(5, window_dv(width, 50), 50, 64);
  }
  expect_log_recovers(path, reference);
  EXPECT_EQ(std::filesystem::file_size(path),
            kLogHeaderBytes + 7 * put_record_bytes(width) +
                2 * kRecordHeaderBytes);
}

/// A process killed right after the append that slid the window: the
/// record straddling the first window's end was stored through the new
/// window and recovers; with its magic word still zero (killed before the
/// magic store), it is dropped as a torn tail.
TEST(LogTailWindow, KillAtTheWindowBoundaryRecovers) {
  ScratchDir dir("window_kill");
  const std::string path = dir.path() + "/p0_s0.log";
  constexpr std::size_t width = 16;
  const std::uint64_t record = put_record_bytes(width);
  // Puts [0, last] end with the first record that crosses the window end.
  const auto last =
      static_cast<CheckpointIndex>((tail_window_bytes() - kLogHeaderBytes) /
                                   record);
  const std::uint64_t last_offset = kLogHeaderBytes + last * record;
  ASSERT_LT(last_offset, tail_window_bytes());
  ASSERT_GT(last_offset + record, tail_window_bytes());
  CheckpointStore reference(0);
  {
    ckpt::LogStructuredBackend log(0, path, OpenMode::kFresh, 1u << 20, 0.5);
    for (CheckpointIndex g = 0; g <= last; ++g) {
      log.put(g, window_dv(width, g), static_cast<SimTime>(g), 64);
      reference.put(g, window_dv(width, g), static_cast<SimTime>(g), 64);
    }
  }
  expect_log_recovers(path, reference);
  EXPECT_EQ(std::filesystem::file_size(path), last_offset + record);

  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(last_offset));
    const std::uint32_t zero = 0;
    file.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
    ASSERT_TRUE(file.good());
  }
  CheckpointStore torn(0);
  for (CheckpointIndex g = 0; g < last; ++g)
    torn.put(g, window_dv(width, g), static_cast<SimTime>(g), 64);
  expect_log_recovers(path, torn);
  EXPECT_EQ(std::filesystem::file_size(path), last_offset);
}

// ---- Whole-system runs over persistent storage ----------------------------

/// A complete randomized workload writes its checkpoints through `kind`;
/// the simulation outcome must be identical to the in-memory run (storage
/// is an implementation detail below the middleware), the RDT-LGC optimum
/// must hold (Corollary 1), and reopening the stores from disk alone must
/// reproduce the stored sets and the Lemma-1 recovery line.
void run_system_recovery(StorageBackendKind kind, bool clean) {
  ScratchDir dir("system");
  test::RunSpec spec;
  spec.n = 4;
  spec.duration = 3000;
  spec.seed = 17;
  spec.storage = persistent_config(kind, dir.path());
  const auto system = test::run_workload(spec);

  test::RunSpec memory_spec = spec;
  memory_spec.storage = StorageConfig();
  const auto memory_system = test::run_workload(memory_spec);

  const auto n = static_cast<ProcessId>(spec.n);
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(system->node(p).store().stored_indices(),
              memory_system->node(p).store().stored_indices())
        << "persistent backend perturbed the simulation, p" << p;
    ASSERT_EQ(system->node(p).counters().forced_checkpoints,
              memory_system->node(p).counters().forced_checkpoints);
  }
  test::audit_exact_corollary1(*system);
  test::audit_bounds(*system);

  // Under the forced async pipeline an unclean stop would recover each
  // process at a DIFFERENT earlier point of its lineage, and the
  // end-of-run oracles below would not apply; durability_test.cpp audits
  // that crash-cut against the oracle on its own schedule, so this test
  // always flushes there.
  if (clean || forced_async_durability())
    for (ProcessId p = 0; p < n; ++p) system->node(p).store().flush();

  // Reopen every process's store from the directory alone and recover.
  StorageConfig attach = spec.storage;
  attach.open_mode = OpenMode::kAttach;
  std::vector<std::unique_ptr<ShardedCheckpointStore>> reopened;
  std::vector<const ShardedCheckpointStore*> reopened_ptrs;
  for (ProcessId p = 0; p < n; ++p) {
    reopened.push_back(std::make_unique<ShardedCheckpointStore>(
        p, ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, attach));
    reopened.back()->recover();
    test::expect_stores_equal(system->node(p).store(), *reopened.back());
    reopened_ptrs.push_back(reopened.back().get());
  }
  if (::testing::Test::HasFatalFailure()) return;

  // GC verdict from the Theorem-1 oracle: everything non-obsolete in the
  // recorded CCP must be present in the RECOVERED stores.
  const ccp::DvPrecedence causal(system->recorder());
  const auto obsolete = ccp::obsolete_theorem1(system->recorder(), causal);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& flags = obsolete[static_cast<std::size_t>(p)];
    for (CheckpointIndex g = 0;
         g < static_cast<CheckpointIndex>(flags.size()); ++g) {
      if (!flags[static_cast<std::size_t>(g)]) {
        ASSERT_TRUE(reopened_ptrs[static_cast<std::size_t>(p)]->contains(g))
            << "non-obsolete s_" << p << "^" << g
            << " missing after recover()";
      }
    }
  }

  // The restart-from-disk recovery line equals the Lemma-1 oracle line for
  // the all-faulty set, capped at the last stored checkpoint (no volatile
  // state survives a full restart).
  const std::vector<CheckpointIndex> line =
      recovery::recovery_line_from_storage(reopened_ptrs);
  std::vector<bool> all_faulty(spec.n, true);
  const std::vector<CheckpointIndex> oracle =
      ccp::recovery_line_lemma1(system->recorder(), causal, all_faulty);
  for (std::size_t p = 0; p < spec.n; ++p) {
    EXPECT_EQ(line[p],
              std::min(oracle[p], reopened_ptrs[p]->last_index()))
        << "recovery line from storage diverges from Lemma 1 at p" << p;
  }
}

TEST(BackendRecovery, SystemRestartFromMmapMatchesOracles) {
  run_system_recovery(StorageBackendKind::kMmapFile, true);
}
TEST(BackendRecovery, SystemRestartFromMmapAfterUncleanStop) {
  run_system_recovery(StorageBackendKind::kMmapFile, false);
}
TEST(BackendRecovery, SystemRestartFromLogMatchesOracles) {
  run_system_recovery(StorageBackendKind::kLogStructured, true);
}
TEST(BackendRecovery, SystemRestartFromLogAfterUncleanStop) {
  run_system_recovery(StorageBackendKind::kLogStructured, false);
}

// ---- Restart-from-disk edge cases -----------------------------------------
//
// recovery_line_from_storage() and the kAttach open path sit on the warm
// restart critical path (ckpt::Node attach); the failure modes below must be
// loud errors, never a silently empty line.

/// Attaching to a directory no store ever wrote: the medium file is absent,
/// so construction itself fails with an I/O error — there is nothing to
/// recover.
void attach_empty_directory(StorageBackendKind kind) {
  ScratchDir dir("attach_empty");
  StorageConfig attach = persistent_config(kind, dir.path());
  attach.open_mode = OpenMode::kAttach;
  EXPECT_THROW(ShardedCheckpointStore(0, 1,
                                      ckpt::StoreConcurrency::kUnsynchronized,
                                      attach),
               util::IoError);
}

TEST(BackendRecoveryEdge, AttachEmptyDirectoryMmap) {
  attach_empty_directory(StorageBackendKind::kMmapFile);
}
TEST(BackendRecoveryEdge, AttachEmptyDirectoryLog) {
  attach_empty_directory(StorageBackendKind::kLogStructured);
}

/// The medium file deleted out from under a persisted store: the attach
/// open must fail with an I/O error rather than recover an empty store.
void attach_missing_medium(StorageBackendKind kind) {
  ScratchDir dir("attach_torn");
  StorageConfig config = persistent_config(kind, dir.path());
  {
    ShardedCheckpointStore store(0, 1,
                                 ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(3);
    for (CheckpointIndex g = 0; g < 8; ++g) {
      dv.at(0) = g;
      store.put(g, dv, static_cast<SimTime>(g + 1), 64);
    }
    store.flush();
  }
  ASSERT_EQ(std::remove(config.stripe_file(0, 0).c_str()), 0);
  config.open_mode = OpenMode::kAttach;
  EXPECT_THROW(ShardedCheckpointStore(0, 1,
                                      ckpt::StoreConcurrency::kUnsynchronized,
                                      config),
               util::IoError);
}

TEST(BackendRecoveryEdge, AttachMissingMediumFileMmap) {
  attach_missing_medium(StorageBackendKind::kMmapFile);
}
TEST(BackendRecoveryEdge, AttachMissingMediumFileLog) {
  attach_missing_medium(StorageBackendKind::kLogStructured);
}

/// A store whose every checkpoint was collected before the crash: the media
/// open and recover() succeed (zero live records is a valid on-disk state),
/// but a recovery line cannot be built over an empty lineage — the contract
/// fires instead of fabricating index 0.
void attach_zero_survivors(StorageBackendKind kind) {
  ScratchDir dir("attach_barren");
  StorageConfig config = persistent_config(kind, dir.path());
  {
    ShardedCheckpointStore store(0, 1,
                                 ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(3);
    for (CheckpointIndex g = 0; g < 8; ++g) {
      dv.at(0) = g;
      store.put(g, dv, static_cast<SimTime>(g + 1), 64);
    }
    for (CheckpointIndex g = 0; g < 8; ++g) store.collect(g);
    ASSERT_EQ(store.count(), 0u);
    store.flush();
  }
  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(0, 1,
                                  ckpt::StoreConcurrency::kUnsynchronized,
                                  config);
  EXPECT_EQ(reopened.recover(), 0u);
  const std::vector<const ShardedCheckpointStore*> stores = {&reopened};
  EXPECT_THROW(recovery::recovery_line_from_storage(stores),
               util::ContractViolation);
}

TEST(BackendRecoveryEdge, ZeroSurvivingCheckpointsMmap) {
  attach_zero_survivors(StorageBackendKind::kMmapFile);
}
TEST(BackendRecoveryEdge, ZeroSurvivingCheckpointsLog) {
  attach_zero_survivors(StorageBackendKind::kLogStructured);
}

/// No stores at all is a caller bug, not an empty line.
TEST(BackendRecoveryEdge, NoStoresRejected) {
  const std::vector<const ShardedCheckpointStore*> stores;
  EXPECT_THROW(recovery::recovery_line_from_storage(stores),
               util::ContractViolation);
}

// ---- One medium file per process ------------------------------------------

/// The names of the files in `dir`, sorted.
std::vector<std::string> file_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

/// A fresh persistent Node keeps its whole store in one file,
/// stripe_file(self, 0), and a reopen recovers from that file alone.
void run_one_file_per_node(StorageBackendKind kind) {
  ScratchDir dir("one_file");
  harness::SystemConfig config;
  config.process_count = 1;
  config.node.storage = persistent_config(kind, dir.path());
  harness::System system(config);
  const std::vector<std::string> medium = {
      std::filesystem::path(config.node.storage.stripe_file(0, 0))
          .filename()
          .string()};
  EXPECT_EQ(file_names(dir.path()), medium);

  for (int k = 0; k < 6; ++k) system.node(0).take_basic_checkpoint();
  system.node(0).store().flush();
  EXPECT_EQ(file_names(dir.path()), medium);
  // What the node stores before it dies, as a flat reference.
  CheckpointStore before(0);
  for (const CheckpointIndex g : system.node(0).store().stored_indices()) {
    const ckpt::StoredCheckpoint& c = system.node(0).store().get(g);
    before.put(c.index, c.dv, c.stored_at, c.bytes);
  }
  before.restore_stats(system.node(0).store().stats());

  const ckpt::Node& reattached = system.restart_node(0);
  test::expect_stores_equal(before, reattached.store());
  EXPECT_EQ(file_names(dir.path()), medium);
}

TEST(StoreLayout, FreshMmapNodeKeepsOneFileAndReattachesFromIt) {
  run_one_file_per_node(StorageBackendKind::kMmapFile);
}
TEST(StoreLayout, FreshLogNodeKeepsOneFileAndReattachesFromIt) {
  run_one_file_per_node(StorageBackendKind::kLogStructured);
}

}  // namespace
}  // namespace rdtgc
