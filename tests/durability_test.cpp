// The async durability pipeline's contract suite (ckpt/durability_pipeline.hpp).
//
// What is certified here, mapped to the machinery:
//  * policy equivalence — under kGroupCommit every read and every counter
//    still matches the flat reference after every op (the read store
//    serves reads), and a flushed store recovers bit-identical;
//  * group-commit window math — a window of k ops reaches the medium as ONE
//    fsync (log) / ONE msync (mmap), pinned via the media's introspection
//    counters and the pipeline's commits();
//  * dirty-flag skip — flush() with nothing written issues no syscall
//    (regression for the fsyncs()/msyncs() counters);
//  * flush error paths — an injected fsync/msync failure surfaces as
//    util::IoError with store and medium still coherent, and so does an
//    injected ENOSPC while the log's mapped tail grows (the store writes
//    the medium before its read store, so the throw leaves both as they
//    were); under group commit the same ENOSPC inside a drain leaves the
//    applied prefix on the medium, later mutations under a medium that
//    keeps refusing return or throw IoError and never wait, and the
//    retried flush() resumes at the refused op;
//  * kill inside the window — dropping a store mid-window recovers a
//    consistent PREFIX of the acknowledged schedule, exactly the last
//    commit boundary, across randomized kill schedules on both media;
//  * system-level crash cut — an unclean stop of a whole simulated system
//    mid-window loses only each process's open window: every checkpoint the
//    end-of-run Theorem-1 oracle calls non-obsolete that lies below a
//    process's crash cut is still on its medium (obsoleteness is monotone,
//    so the durable prefix can never have collected it);
//  * the metrics::DurabilityLag probe and the sweep-summary plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "metrics/durability_lag.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rdtgc {
namespace {

using ckpt::CheckpointStore;
using ckpt::DurabilityPolicy;
using ckpt::LogStructuredBackend;
using ckpt::MmapFileBackend;
using ckpt::OpenMode;
using ckpt::ShardedCheckpointStore;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using test::RandomStoreTrace;
using test::ScratchDir;

/// The medium under `store`, as its concrete type.
template <typename Medium>
const Medium& medium_of(const ShardedCheckpointStore& store) {
  return dynamic_cast<const Medium&>(*store.medium());
}

StorageConfig async_config(StorageBackendKind kind, const std::string& dir,
                           DurabilityPolicy policy) {
  StorageConfig config;
  config.kind = kind;
  config.directory = dir;
  config.initial_slots = 2;        // exercise segment growth
  config.compact_min_records = 16; // and log compaction inside windows
  config.durability = policy;
  return config;
}

const StorageBackendKind kPersistentKinds[] = {
    StorageBackendKind::kMmapFile,
    StorageBackendKind::kLogStructured,
};

// ---- Policy equivalence ---------------------------------------------------

/// The read store serves every read, so a pipelined store must match the
/// flat reference after EVERY op — under any policy — and, once flushed,
/// recover bit-identical from the media with the lag collapsed to zero.
TEST(DurabilityEquivalence, AckedStateMatchesFlatReferenceUnderEveryPolicy) {
  const DurabilityPolicy policies[] = {
      DurabilityPolicy::GroupCommit(4),
      DurabilityPolicy::GroupCommit(16, /*per_checkpoint=*/true),
  };
  for (const StorageBackendKind kind : kPersistentKinds) {
    for (const DurabilityPolicy& policy : policies) {
      const RandomStoreTrace trace(20260808);
      CheckpointStore flat(3);
      ScratchDir dir("policy_eq");
      StorageConfig config = async_config(kind, dir.path(), policy);
      auto store = std::make_unique<ShardedCheckpointStore>(
          3, ShardedCheckpointStore::kDefaultShardCount,
          ckpt::StoreConcurrency::kUnsynchronized, config);
      ASSERT_TRUE(store->pipelined());

      for (const RandomStoreTrace::Op& op : trace.ops()) {
        trace.apply(op, flat);
        trace.apply(op, *store);
        test::expect_stores_equal(flat, *store);
        if (::testing::Test::HasFatalFailure()) return;
      }

      store->flush();
      EXPECT_EQ(store->durability().lag_ops(), 0u);
      store.reset();

      config.open_mode = OpenMode::kAttach;
      ShardedCheckpointStore reopened(
          3, ShardedCheckpointStore::kDefaultShardCount,
          ckpt::StoreConcurrency::kUnsynchronized, config);
      ASSERT_EQ(reopened.recover(), flat.count());
      test::expect_stores_equal(flat, reopened);
      // reset_after_recover: the recovered store reports zero lag and a
      // synced index equal to the acked one.
      const ckpt::DurabilityStatus status = reopened.durability();
      EXPECT_EQ(status.lag_ops(), 0u);
      EXPECT_EQ(status.acked_index, status.synced_index);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- Group-commit window math ---------------------------------------------

/// k puts through a log store must reach the medium with ONE fsync per
/// window, with the lag counting the open tail.
TEST(GroupCommitWindow, LogCoalescesKOpsIntoOneFsync) {
  constexpr std::size_t kEvery = 4;
  ScratchDir dir("gc_log");
  const StorageConfig config =
      async_config(StorageBackendKind::kLogStructured, dir.path(),
                   DurabilityPolicy::GroupCommit(kEvery));
  ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                               config);
  const auto& log = medium_of<LogStructuredBackend>(store);
  const std::uint64_t fsyncs_before = log.fsyncs();

  causality::DependencyVector dv(4);
  for (CheckpointIndex i = 0; i < 10; ++i) store.put(i, dv, 0, 1);

  // 10 ops, window 4: two commits fired (at op 4 and op 8), two ops remain
  // acked-but-unsynced, and each commit cost exactly one fsync.
  ASSERT_NE(store.pipeline(), nullptr);
  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(log.fsyncs() - fsyncs_before, 2u);
  const ckpt::DurabilityStatus status = store.durability();
  EXPECT_EQ(status.acked_ops, 10u);
  EXPECT_EQ(status.synced_ops, 8u);
  EXPECT_EQ(status.lag_ops(), 2u);
  EXPECT_EQ(status.acked_index, 9);
  EXPECT_EQ(status.synced_index, 7);
  EXPECT_EQ(store.medium()->count(), 8u);
  EXPECT_EQ(store.count(), 10u);  // reads come from the read store
}

/// Same window math on the mmap backend: the drain's mutations are mapped
/// writes and the commit pays one msync, deferred from the hot path.
TEST(GroupCommitWindow, MmapDefersMsyncToTheCommit) {
  constexpr std::size_t kEvery = 4;
  ScratchDir dir("gc_mmap");
  const StorageConfig config =
      async_config(StorageBackendKind::kMmapFile, dir.path(),
                   DurabilityPolicy::GroupCommit(kEvery));
  ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                               config);
  const auto& mmap = medium_of<MmapFileBackend>(store);
  const std::uint64_t msyncs_before = mmap.msyncs();

  causality::DependencyVector dv(4);
  for (CheckpointIndex i = 0; i < 9; ++i) store.put(i, dv, 0, 1);

  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(mmap.msyncs() - msyncs_before, 2u);
  EXPECT_EQ(store.durability().lag_ops(), 1u);
  EXPECT_EQ(store.medium()->count(), 8u);
}

/// every_checkpoint: each put closes the window immediately (checkpoint-
/// granular durability) while collects batch until the next put.
TEST(GroupCommitWindow, EveryCheckpointCommitsOnPutsAndBatchesCollects) {
  ScratchDir dir("gc_everyckpt");
  const StorageConfig config = async_config(
      StorageBackendKind::kLogStructured, dir.path(),
      DurabilityPolicy::GroupCommit(64, /*per_checkpoint=*/true));
  ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                               config);
  causality::DependencyVector dv(4);

  store.put(0, dv, 0, 1);
  EXPECT_EQ(store.durability().lag_ops(), 0u);  // put committed inline
  EXPECT_EQ(store.pipeline()->commits(), 1u);

  store.collect(0);
  EXPECT_EQ(store.durability().lag_ops(), 1u);  // collects wait for a put

  store.put(1, dv, 0, 1);  // drains the batched collect AND this put
  EXPECT_EQ(store.durability().lag_ops(), 0u);
  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(store.medium()->count(), 1u);
}

/// flush() quiesces the pipeline: acked == synced afterwards and the
/// medium holds exactly the acked checkpoints.
TEST(GroupCommitWindow, FlushQuiescesAndDropsLagToZero) {
  ScratchDir dir("gc_flush");
  StorageConfig config =
      async_config(StorageBackendKind::kLogStructured, dir.path(),
                   DurabilityPolicy::GroupCommit(8));
  std::vector<CheckpointIndex> acked;
  ckpt::StoreStats acked_stats;
  {
    ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(4);
    for (CheckpointIndex i = 0; i < 37; ++i) store.put(i, dv, 0, 1);
    for (CheckpointIndex i = 0; i < 37; i += 3) store.collect(i);

    store.flush();
    const ckpt::DurabilityStatus status = store.durability();
    EXPECT_EQ(status.lag_ops(), 0u);
    EXPECT_EQ(status.acked_ops, 37u + 13u);
    EXPECT_EQ(status.acked_index, status.synced_index);
    EXPECT_EQ(store.medium()->count(), store.count());
    acked = store.stored_indices();
    acked_stats = store.stats();
  }
  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                  config);
  reopened.recover();
  EXPECT_EQ(reopened.stored_indices(), acked);
  EXPECT_EQ(reopened.stats().stored, acked_stats.stored);
  EXPECT_EQ(reopened.stats().collected, acked_stats.collected);
}

// ---- Dirty-flag flush skip (regression) -----------------------------------

TEST(DirtyFlag, LogFlushSkipsFsyncWhenClean) {
  ScratchDir dir("dirty_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  LogStructuredBackend log(0, config.stripe_file(0, 0), OpenMode::kFresh, 64,
                           0.5);
  causality::DependencyVector dv(4);

  log.put(0, dv, 0, 1);
  log.flush();
  const std::uint64_t after_first = log.fsyncs();
  EXPECT_GE(after_first, 1u);

  log.flush();  // nothing written since: no syscall
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first);

  log.collect(0);  // any mutation re-arms the flag
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first + 1);
}

TEST(DirtyFlag, MmapFlushSkipsMsyncWhenClean) {
  ScratchDir dir("dirty_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  MmapFileBackend mmap(0, config.stripe_file(0, 0), OpenMode::kFresh, 4);
  causality::DependencyVector dv(4);

  mmap.put(0, dv, 0, 1);
  mmap.flush();
  const std::uint64_t after_first = mmap.msyncs();
  EXPECT_GE(after_first, 1u);

  mmap.flush();  // segment unchanged and already marked clean: no msync
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first);

  mmap.collect(0);
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first + 1);
}

// ---- Injected flush failures ----------------------------------------------

TEST(FlushErrors, LogFsyncFailureSurfacesAsIoErrorAndKeepsStateCoherent) {
  ScratchDir dir("err_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  {
    ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(4);
    store.put(0, dv, 0, 1);

    util::set_io_fsync_for_test(+[](int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(store.flush(), util::IoError);
    util::set_io_fsync_for_test(nullptr);

    // The store is untouched and the log stays dirty: the retry issues a
    // real fsync and succeeds.
    EXPECT_EQ(store.count(), 1u);
    EXPECT_TRUE(store.contains(0));
    const auto& log = medium_of<LogStructuredBackend>(store);
    const std::uint64_t before_retry = log.fsyncs();
    store.flush();
    EXPECT_EQ(log.fsyncs(), before_retry + 1);
  }
  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                  config);
  ASSERT_EQ(reopened.recover(), 1u);
  EXPECT_TRUE(reopened.contains(0));
}

/// A full disk while the log's tail grows: the reservation fails before any
/// byte is stored, so put() throws IoError (never a SIGBUS from the mapped
/// tail), the store is unchanged, and the log still appends and recovers
/// exactly the acknowledged puts.
TEST(FlushErrors, LogTailGrowthFailureSurfacesAsIoErrorAndKeepsStateCoherent) {
  ScratchDir dir("err_log_grow");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  config.compact_min_records = 1024;
  static std::atomic<int> refused{0};
  refused = 0;
  CheckpointStore reference(0);
  {
    ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(4);
    CheckpointIndex next = 0;
    const auto put = [&] {
      dv.at(1) = next;
      store.put(next, dv, static_cast<SimTime>(next), 8);
      reference.put(next, dv, static_cast<SimTime>(next), 8);
      ++next;
    };
    put();  // the first reservation succeeds
    store.collect(0);
    reference.collect(0);

    util::set_io_fallocate_for_test(+[](int, off_t, off_t) {
      ++refused;
      return ENOSPC;
    });
    // Puts land in the reserved space until the tail must grow again.
    bool threw = false;
    while (!threw && next < 10000) {
      const std::size_t count = store.count();
      const std::vector<CheckpointIndex> indices = store.stored_indices();
      const ckpt::StoreStats stats = store.stats();
      try {
        dv.at(1) = next;
        store.put(next, dv, static_cast<SimTime>(next), 8);
      } catch (const util::IoError&) {
        threw = true;
        EXPECT_EQ(store.count(), count);
        EXPECT_EQ(store.stored_indices(), indices);
        EXPECT_EQ(store.stats().stored, stats.stored);
        EXPECT_EQ(store.stats().peak_count, stats.peak_count);
        EXPECT_EQ(store.stats().peak_bytes, stats.peak_bytes);
        EXPECT_EQ(store.bytes(), reference.bytes());
        EXPECT_EQ(store.medium()->count(), count);
        break;
      }
      reference.put(next, dv, static_cast<SimTime>(next), 8);
      ++next;
    }
    util::set_io_fallocate_for_test(nullptr);
    ASSERT_TRUE(threw);
    EXPECT_EQ(refused.load(), 1);
    test::expect_stores_equal(reference, store);

    put();  // the refused put, retried with space available
    test::expect_stores_equal(reference, store);
  }
  // Dropped without flush(): the reopen recovers exactly the acknowledged
  // puts, nothing of the refused attempt.
  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                  config);
  ASSERT_EQ(reopened.recover(), reference.count());
  test::expect_stores_equal(reference, reopened);
}

/// A full disk inside a group commit's drain.  The read store acknowledged
/// the put that filled the window, so put() throws IoError with the put
/// stored; the drain hands the ops the log applied before the refused one
/// over to it.  While the disk stays full, every later put returns or
/// throws IoError with its put stored, and none waits: the refused op
/// holds the window open and nothing overtakes it.  Once space returns
/// flush() resumes at the refused op: every op reaches the log exactly
/// once.  Each DV width moves the record that crosses the reserved space
/// to another place in its window.
TEST(FlushErrors, GroupCommitDrainResumesAfterAMediaError) {
  constexpr std::size_t kEvery = 4;
  constexpr std::size_t kPutsWhileFull = 200;
  bool refused_mid_window = false;
  for (const std::size_t width : {4u, 5u, 6u, 7u}) {
    SCOPED_TRACE(width);
    ScratchDir dir("err_group_" + std::to_string(width));
    StorageConfig config;
    config.kind = StorageBackendKind::kLogStructured;
    config.directory = dir.path();
    config.compact_min_records = 1u << 20;
    config.durability = DurabilityPolicy::GroupCommit(kEvery);
    CheckpointStore reference(0);
    {
      ShardedCheckpointStore store(
          0, 1, ckpt::StoreConcurrency::kUnsynchronized, config);
      causality::DependencyVector dv(width);
      CheckpointIndex next = 0;
      // The first window drains with space to spare.
      for (; next < static_cast<CheckpointIndex>(kEvery); ++next) {
        dv.at(1) = next;
        store.put(next, dv, static_cast<SimTime>(next), 8);
        reference.put(next, dv, static_cast<SimTime>(next), 8);
      }
      ASSERT_EQ(store.medium()->count(), kEvery);

      util::set_io_fallocate_for_test(
          +[](int, off_t, off_t) { return ENOSPC; });
      bool threw = false;
      while (!threw && next < 10000) {
        const std::size_t on_medium = store.medium()->count();
        dv.at(1) = next;
        try {
          store.put(next, dv, static_cast<SimTime>(next), 8);
        } catch (const util::IoError&) {
          threw = true;
          EXPECT_TRUE(store.contains(next));  // acknowledged all the same
          if (store.medium()->count() > on_medium) refused_mid_window = true;
        }
        reference.put(next, dv, static_cast<SimTime>(next), 8);
        ++next;
      }
      ASSERT_TRUE(threw);

      // The disk stays full.  From the put that fills the window on, each
      // put retries the drain, which is refused again at the same op.
      const std::size_t on_medium = store.medium()->count();
      std::size_t refusals = 0;
      for (std::size_t k = 0; k < kPutsWhileFull; ++k, ++next) {
        dv.at(1) = next;
        try {
          store.put(next, dv, static_cast<SimTime>(next), 8);
        } catch (const util::IoError&) {
          ++refusals;
        }
        EXPECT_TRUE(store.contains(next));
        reference.put(next, dv, static_cast<SimTime>(next), 8);
      }
      util::set_io_fallocate_for_test(nullptr);
      EXPECT_GT(refusals, kPutsWhileFull - kEvery);
      EXPECT_EQ(store.medium()->count(), on_medium);
      EXPECT_GT(store.durability().lag_ops(), kPutsWhileFull);
      test::expect_stores_equal(reference, store);
      EXPECT_LT(store.medium()->count(), store.count());

      store.flush();
      EXPECT_EQ(store.medium()->count(), store.count());
      const ckpt::DurabilityStatus status = store.durability();
      EXPECT_EQ(status.lag_ops(), 0u);
      EXPECT_EQ(status.synced_index, store.last_index());
    }
    config.open_mode = OpenMode::kAttach;
    ShardedCheckpointStore reopened(
        0, 1, ckpt::StoreConcurrency::kUnsynchronized, config);
    ASSERT_EQ(reopened.recover(), reference.count());
    test::expect_stores_equal(reference, reopened);
  }
  EXPECT_TRUE(refused_mid_window)
      << "no width refused space after the drain applied part of a window";
}

TEST(FlushErrors, MmapMsyncFailureSurfacesAsIoErrorAndRollsTheCleanFlagBack) {
  ScratchDir dir("err_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  config.initial_slots = 4;
  {
    ShardedCheckpointStore store(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                                 config);
    causality::DependencyVector dv(4);
    store.put(0, dv, 0, 1);

    util::set_io_msync_for_test(+[](void*, std::size_t, int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(store.flush(), util::IoError);
    util::set_io_msync_for_test(nullptr);
    EXPECT_EQ(store.count(), 1u);  // store coherent after the failure
  }
  config.open_mode = OpenMode::kAttach;
  {
    // The failed flush must NOT have left a clean flag the medium never
    // got: the reopen sees an unclean segment (contents still recover —
    // the page cache survived this in-process "crash").
    ShardedCheckpointStore reopened(
        0, 1, ckpt::StoreConcurrency::kUnsynchronized, config);
    ASSERT_EQ(reopened.recover(), 1u);
    EXPECT_FALSE(medium_of<MmapFileBackend>(reopened).recovered_clean());
    reopened.flush();
  }
  ShardedCheckpointStore clean(0, 1, ckpt::StoreConcurrency::kUnsynchronized,
                               config);
  ASSERT_EQ(clean.recover(), 1u);
  EXPECT_TRUE(medium_of<MmapFileBackend>(clean).recovered_clean());
}

// ---- Kill inside the window -----------------------------------------------

/// kGroupCommit is deterministic: inline commits fire every k ops, so a
/// drop mid-window recovers EXACTLY the last commit boundary's prefix.
TEST(KillInsideWindow, GroupCommitRecoversExactlyTheLastCommittedWindow) {
  constexpr std::size_t kEvery = 4;
  for (const StorageBackendKind kind : kPersistentKinds) {
    util::Rng rng(0x9e3779b9ull ^ static_cast<std::uint64_t>(kind));
    for (int round = 0; round < 4; ++round) {
      const RandomStoreTrace trace(7000 + round);
      const std::size_t kill = 1 + rng.uniform(trace.ops().size());
      const std::size_t boundary = (kill / kEvery) * kEvery;

      ScratchDir dir("kill_gc");
      StorageConfig config = async_config(kind, dir.path(),
                                          DurabilityPolicy::GroupCommit(kEvery));
      auto store = std::make_unique<ShardedCheckpointStore>(
          1, ShardedCheckpointStore::kDefaultShardCount,
          ckpt::StoreConcurrency::kUnsynchronized, config);
      trace.replay_prefix(*store, kill);
      store.reset();  // crash: the open window is discarded

      config.open_mode = OpenMode::kAttach;
      ShardedCheckpointStore reopened(
          1, ShardedCheckpointStore::kDefaultShardCount,
          ckpt::StoreConcurrency::kUnsynchronized, config);
      reopened.recover();
      const std::size_t prefix =
          test::expect_consistent_prefix(trace, reopened, kill, boundary);
      EXPECT_EQ(prefix, boundary)
          << backend_kind_name(kind) << " kill=" << kill;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// The tentpole crash property: randomized kill schedules inside open
/// windows, on both media and under every group-commit shape, always
/// recover to a consistent prefix of the acknowledged schedule — never a
/// reordering, never a gap.
TEST(KillInsideWindow, RandomizedKillsRecoverAConsistentPrefix) {
  const DurabilityPolicy policies[] = {
      DurabilityPolicy::GroupCommit(4),
      DurabilityPolicy::GroupCommit(16, /*per_checkpoint=*/true),
  };
  util::Rng rng(0xabad1deaull);
  for (const StorageBackendKind kind : kPersistentKinds) {
    for (const DurabilityPolicy& policy : policies) {
      for (int round = 0; round < 3; ++round) {
        const RandomStoreTrace trace(9100 + round);
        const std::size_t kill = 1 + rng.uniform(trace.ops().size());

        ScratchDir dir("kill_rand");
        StorageConfig config = async_config(kind, dir.path(), policy);
        auto store = std::make_unique<ShardedCheckpointStore>(
            2, ShardedCheckpointStore::kDefaultShardCount,
            ckpt::StoreConcurrency::kUnsynchronized, config);
        trace.replay_prefix(*store, kill);
        store.reset();

        config.open_mode = OpenMode::kAttach;
        ShardedCheckpointStore reopened(
            2, ShardedCheckpointStore::kDefaultShardCount,
            ckpt::StoreConcurrency::kUnsynchronized, config);
        reopened.recover();
        test::expect_consistent_prefix(trace, reopened, kill);
        EXPECT_EQ(reopened.durability().lag_ops(), 0u);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---- System-level crash cut against the paper's oracles -------------------

/// An unclean stop of a whole simulated system mid-window.  Each process's
/// store recovers the state at SOME earlier point of its own acknowledged
/// history (its crash cut), so the end-of-run Theorem-1 oracle certifies
/// the cut via obsoleteness monotonicity: a checkpoint non-obsolete at the
/// end of the run was non-obsolete at every earlier moment it existed, so
/// Theorem-1 GC can never have collected it — every non-obsolete
/// checkpoint BELOW the cut must have survived the crash.
///
/// Deliberately NOT asserted: a joint recovery line across the recovered
/// stores.  The pipeline guarantees a consistent prefix PER PROCESS, not a
/// consistent durable frontier ACROSS processes — one process's crash cut
/// can regress behind what its peers' Theorem-1 GC (which ran against
/// acknowledged state) assumed durable, which is exactly the stable-storage
/// model gap metrics::DurabilityLag quantifies (see docs/PAPER_MAP.md).
TEST(SystemCrash, MidWindowKillKeepsEveryNonObsoleteCheckpointBelowTheCut) {
  for (const StorageBackendKind kind : kPersistentKinds) {
    ScratchDir dir("system_crash");
    test::RunSpec spec;
    spec.n = 4;
    spec.duration = 3000;
    spec.seed = 29;
    spec.storage = async_config(kind, dir.path(),
                                DurabilityPolicy::GroupCommit(32));
    auto system = test::run_workload(spec);
    const auto n = static_cast<ProcessId>(spec.n);

    // Oracle artifacts, computed while the recorder is still alive.
    const ccp::CausalGraph causal(system->recorder());
    const auto obsolete = ccp::obsolete_theorem1(system->recorder(), causal);
    std::vector<CheckpointIndex> last_stable(spec.n);
    for (ProcessId p = 0; p < n; ++p)
      last_stable[static_cast<std::size_t>(p)] =
          system->recorder().last_stable(p);

    system.reset();  // unclean stop: every pipeline's open window is gone

    StorageConfig attach = spec.storage;
    attach.open_mode = OpenMode::kAttach;
    for (ProcessId p = 0; p < n; ++p) {
      ShardedCheckpointStore reopened(
          p, ShardedCheckpointStore::kDefaultShardCount,
          ckpt::StoreConcurrency::kUnsynchronized, attach);
      reopened.recover();
      ASSERT_GT(reopened.count(), 0u);  // s^0 is flushed at start_fresh

      // The recovered lineage is a prefix of the acknowledged one...
      const CheckpointIndex cut = reopened.last_index();
      EXPECT_LE(cut, last_stable[static_cast<std::size_t>(p)]);

      // ...and Theorem-1 safety holds below the cut: anything the oracle
      // calls non-obsolete (over the FULL recorded CCP) that was taken by
      // the cut must still be stored — the durable prefix replays collects
      // in acknowledgment order, and none of them can have touched it.
      const auto& flags = obsolete[static_cast<std::size_t>(p)];
      for (CheckpointIndex g = 0; g <= cut; ++g) {
        if (!flags[static_cast<std::size_t>(g)]) {
          EXPECT_TRUE(reopened.contains(g))
              << backend_kind_name(kind) << ": non-obsolete s_" << p << "^"
              << g << " below the crash cut " << cut << " is missing";
        }
      }
    }
  }
}

// ---- metrics::DurabilityLag -----------------------------------------------

TEST(DurabilityLagProbe, CertifiesZeroLagUnderSyncPolicy) {
  harness::SystemConfig config;
  config.process_count = 4;
  config.seed = 5;
  harness::System system(config);  // in-memory storage: no pipeline

  workload::WorkloadConfig wl;
  wl.seed = 55;
  wl.checkpoint_probability = 0.2;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(2000);

  metrics::DurabilityLag lag(system.simulator(),
                             std::as_const(system).node_ptrs());
  lag.start(16, 2000);
  system.simulator().run();

  EXPECT_GT(lag.global_series().samples().size(), 10u);
  EXPECT_EQ(lag.peak_lag_ops(), 0u);
  EXPECT_EQ(lag.peak_index_gap(), 0);
  EXPECT_EQ(lag.global_series().stat().max(), 0.0);
}

TEST(DurabilityLagProbe, SamplesGroupCommitLagAndSeesTheFlushQuiesce) {
  ScratchDir dir("probe");
  harness::SystemConfig config;
  config.process_count = 4;
  config.seed = 7;
  config.node.storage = async_config(StorageBackendKind::kLogStructured,
                                     dir.path(),
                                     DurabilityPolicy::GroupCommit(16));
  harness::System system(config);

  workload::WorkloadConfig wl;
  wl.seed = 77;
  wl.checkpoint_probability = 0.25;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(2000);

  metrics::DurabilityLag lag(system.simulator(),
                             std::as_const(system).node_ptrs());
  lag.start(16, 2000);
  system.simulator().run();

  EXPECT_GT(lag.global_series().samples().size(), 10u);
  EXPECT_EQ(lag.per_process().size(), 4u);

  // Quiesce every pipeline, then one more sample must read zero lag.
  for (ProcessId p = 0; p < 4; ++p) system.node(p).store().flush();
  lag.sample();
  ASSERT_FALSE(lag.global_series().samples().empty());
  EXPECT_EQ(lag.global_series().samples().back().second, 0.0);
}

TEST(SweepSummary, AggregatesDurabilityLagAcrossRuns) {
  harness::SweepRun a;
  a.durability_lag.add(2.0);
  a.durability_lag.add(4.0);
  a.peak_durability_lag = 6.0;
  harness::SweepRun b;
  b.durability_lag.add(8.0);
  b.peak_durability_lag = 9.0;

  const harness::SweepSummary summary = harness::summarize_sweep({a, b});
  EXPECT_EQ(summary.durability_lag.count(), 3u);
  EXPECT_EQ(summary.durability_lag.max(), 8.0);
  EXPECT_EQ(summary.peak_durability_lag.count(), 2u);
  EXPECT_EQ(summary.peak_durability_lag.max(), 9.0);
}

// ---- Scenario on an async policy ------------------------------------------

/// A scripted CCP replayed over async media is protocol-identical to the
/// in-memory run: the pipeline changes WHEN bytes reach the medium, never
/// what the middleware observes.
TEST(ScenarioDurability, AsyncPolicyKeepsScriptedRunsIdentical) {
  ScratchDir dir("scenario");
  StorageConfig media = async_config(StorageBackendKind::kLogStructured,
                                     dir.path(),
                                     DurabilityPolicy::GroupCommit(2));
  harness::Scenario persistent(3, ckpt::ProtocolKind::kFdas,
                               harness::GcChoice::kRdtLgc, media);
  harness::Scenario memory(3, ckpt::ProtocolKind::kFdas,
                           harness::GcChoice::kRdtLgc);

  const auto script = [](harness::Scenario& s) {
    s.checkpoint(0);
    s.send(0, 1, "m1");
    s.deliver("m1");
    s.checkpoint(1);
    s.send(1, 2, "m2");
    s.deliver("m2");
    s.checkpoint(2);
    s.send(2, 0, "m3");
    s.deliver("m3");
    s.checkpoint(0);
    s.checkpoint(1);
  };
  script(persistent);
  script(memory);

  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(persistent.node(p).store().stored_indices(),
              memory.node(p).store().stored_indices())
        << "async media perturbed the scripted run at p" << p;
    ASSERT_TRUE(persistent.node(p).store().pipelined());
    EXPECT_GT(persistent.node(p).store().pipeline()->commits(), 0u);
  }
  test::audit_safety_theorem1(persistent.system());
  test::audit_bounds(persistent.system());
}

}  // namespace
}  // namespace rdtgc
