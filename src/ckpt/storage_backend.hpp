// The persistent medium under a process's checkpoint store.
//
// The paper's Theorem-1-optimal GC reclaims *stable storage*; this trait is
// where stable storage actually lives.  A ShardedCheckpointStore keeps one
// flat CheckpointStore (checkpoint_store.hpp) as the only in-memory copy of
// every checkpoint and the only read path, and, for a persistent kind, at
// most one medium: a WRITE-ONLY record of the same mutations at
// StorageConfig::stripe_file(owner, 0).  Two media exist:
//
//  * ckpt::MmapFileBackend (mmap_backend.hpp) — one mmap'd segment file:
//    fixed header, fixed-size checkpoint slots appended with their
//    dependency vectors, GC eliminations clear a live flag in place, the
//    mapping grows geometrically via remap;
//  * ckpt::LogStructuredBackend (log_backend.hpp) — an append-only log of
//    put/collect/discard records; Algorithm-2 eliminations mark log records
//    dead, and a compaction pass copies the live records behind a fresh
//    header and truncates the file.
//
// A medium keeps only what writing and recovering need — its live
// index→slot (mmap) or index→record-offset (log) table and the lifetime
// counters its header persists — never a copy of the checkpoints.  Reads
// come from the store's CheckpointStore; recover(store) replays the medium
// into that store when a process reopens its files.
//
// Contract highlights shared by both media:
//  * the header's counters (StoreStats) describe the whole store, so a
//    reopened store's stats() — peaks included — equal the ones it had at
//    the last write that reached the medium;
//  * recover() rebuilds the store from a medium opened with
//    OpenMode::kAttach; mutations are rejected until it ran;
//  * flush() is the durability point (msync/fsync) of a clean close;
//    commit() is the durability point a DurabilityPipeline drain ends on
//    (durability_pipeline.hpp); dropping a medium without either models a
//    crash — the page-cache contents survive, and recover() must
//    reconstruct from whatever reached the file;
//  * a write that throws (util::IoError, e.g. ENOSPC) throws before the
//    medium changes, so the store, which writes its read store only after
//    the medium returned, never falls out of step with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"

namespace rdtgc::ckpt {

/// One checkpoint resident in stable storage.
struct StoredCheckpoint {
  CheckpointIndex index = 0;
  /// Dependency vector stored with the checkpoint (recovery needs it;
  /// Algorithm 3 line 5 restores DV from it).
  causality::DependencyVector dv;
  SimTime stored_at = 0;
  std::uint64_t bytes = 0;
};

/// Lifetime counters of a store (and of its medium, which carries them
/// across recover()).
struct StoreStats {
  std::uint64_t stored = 0;      ///< total put() calls
  std::uint64_t collected = 0;   ///< GC eliminations
  std::uint64_t discarded = 0;   ///< rollback discards
  std::size_t peak_count = 0;    ///< max simultaneous checkpoints
  std::uint64_t peak_bytes = 0;

  /// Count one put that left `count` checkpoints holding `bytes` live.
  void note_put(std::size_t count, std::uint64_t bytes) {
    ++stored;
    peak_count = std::max(peak_count, count);
    peak_bytes = std::max(peak_bytes, bytes);
  }
};

/// Fixed-width on-disk image of StoreStats, embedded verbatim in both
/// media headers (mmap segment, log) so the counters are
/// converted by one pair of helpers instead of a hand-copied field list per
/// header.  Growing StoreStats means extending this struct and bumping the
/// file-format versions.
struct PersistedStoreStats {
  std::uint64_t stored = 0;
  std::uint64_t collected = 0;
  std::uint64_t discarded = 0;
  std::uint64_t peak_count = 0;
  std::uint64_t peak_bytes = 0;

  static PersistedStoreStats from(const StoreStats& stats) {
    PersistedStoreStats p;
    p.stored = stats.stored;
    p.collected = stats.collected;
    p.discarded = stats.discarded;
    p.peak_count = stats.peak_count;
    p.peak_bytes = stats.peak_bytes;
    return p;
  }
  StoreStats to_stats() const {
    StoreStats stats;
    stats.stored = stored;
    stats.collected = collected;
    stats.discarded = discarded;
    stats.peak_count = static_cast<std::size_t>(peak_count);
    stats.peak_bytes = peak_bytes;
    return stats;
  }
};

/// Which persistence medium a store writes to.
enum class StorageBackendKind {
  kInMemory,       ///< no medium: the read store alone
  kMmapFile,       ///< mmap'd slot segment
  kLogStructured,  ///< append-only log + compaction
};

/// Human-readable backend name for tables, logs, and bench labels.
const char* backend_kind_name(StorageBackendKind kind);

/// How a persistent backend treats an existing file at construction.
enum class OpenMode {
  kFresh,   ///< start empty (truncate whatever the path held)
  kAttach,  ///< open the existing medium; recover() must run before use
};

/// When acknowledged mutations reach the persistent medium (see
/// durability_pipeline.hpp for the machinery and the precise crash
/// semantics; the policy is ignored by the in-memory kind, which has no
/// medium).
enum class DurabilityMode {
  /// Every mutation writes through to the medium before it returns (the
  /// default).  flush() is the only thing deferred (the msync/fsync
  /// durability point).
  kSync,
  /// Mutations are acknowledged from the read store and batched; a GROUP
  /// COMMIT — applying the whole window to the medium and syncing it once
  /// — runs inline on the triggering operation every `every_k_ops`
  /// mutations (and, when `every_checkpoint` is set, on every put).
  kGroupCommit,
};

/// The latency/durability knob of a store's persistent medium.
struct DurabilityPolicy {
  DurabilityMode mode = DurabilityMode::kSync;
  /// Group-commit window: commit after this many acknowledged mutations.
  /// Must be >= 1.
  std::size_t every_k_ops = 32;
  /// Additionally commit on every put() — checkpoint-granular durability
  /// with collect/discard batching (kGroupCommit only).
  bool every_checkpoint = false;

  static DurabilityPolicy Sync() { return {}; }
  static DurabilityPolicy GroupCommit(std::size_t k, bool per_checkpoint = false) {
    return {DurabilityMode::kGroupCommit, k, per_checkpoint};
  }
};

/// Construction-time storage choice for a ShardedCheckpointStore (and
/// through ckpt::Node::Config / harness::SystemConfig, for every process of
/// a simulated system).  `directory` must name an existing, writable
/// directory for the persistent kinds; the medium file is per owner, so any
/// number of processes may share one directory.
struct StorageConfig {
  StorageBackendKind kind = StorageBackendKind::kInMemory;
  std::string directory;
  OpenMode open_mode = OpenMode::kFresh;
  /// Mmap backend: slot capacity of a fresh segment (grows geometrically).
  std::size_t initial_slots = 16;
  /// Log backend: never compact below this many log records.
  std::size_t compact_min_records = 64;
  /// Log backend: compact when the dead-record fraction reaches this.
  double compact_dead_ratio = 0.5;
  /// When mutations become durable (persistent kinds only; see
  /// DurabilityMode).  The default kSync keeps every existing contract
  /// byte-for-byte.
  DurabilityPolicy durability;

  /// Segment/log path directory/p<owner>_s<stripe>.<ext>.  A store keeps
  /// its one medium at stripe 0.
  std::string stripe_file(ProcessId owner, std::size_t stripe) const;
  /// directory/p<owner>.meta.  No store opens this path — the medium's
  /// header persists the counters — but callers that lay out a store's
  /// files ahead of time still create it.
  std::string meta_file(ProcessId owner) const;
};

class CheckpointStore;

/// A write-only persistent medium: it records the store's mutations and
/// replays them on recover(), and serves no reads.  The store validates
/// every mutation against its read store before it reaches the medium.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Write a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).
  virtual void put(CheckpointIndex index, const causality::DependencyVector& dv,
                   SimTime stored_at, std::uint64_t bytes) = 0;

  /// Record the garbage-collection elimination of stored checkpoint
  /// `index`.
  virtual void collect(CheckpointIndex index) = 0;

  /// Record the rollback discard of every checkpoint with index > ri
  /// (Algorithm 3 line 4).
  virtual void discard_after(CheckpointIndex ri) = 0;

  /// Live checkpoints on the medium.  O(1), never allocates.
  virtual std::size_t count() const = 0;

  /// Replay a medium opened with OpenMode::kAttach into the empty `store`
  /// — its live checkpoints in ascending index order, then the persisted
  /// counters — and accept mutations from then on.  Returns the number of
  /// live checkpoints.  Runs once; may allocate.
  virtual std::size_t recover(CheckpointStore& store) = 0;

  /// Durability point of a clean close (msync/fsync).  Skips the syscall
  /// when nothing was written since the last one (the dirty-flag contract
  /// tests/durability_test.cpp pins via the fsyncs()/msyncs() counters).
  virtual void flush() = 0;

  /// Durability point of a group commit: the mutations written so far are
  /// durable on return.  The default is flush(); the mmap segment syncs
  /// without marking itself cleanly closed.
  virtual void commit() { flush(); }
};

/// Open the medium `config` selects for process `owner`'s store, at
/// config.stripe_file(owner, 0); nullptr for in-memory storage, which has
/// none.
std::unique_ptr<StorageBackend> make_backend(const StorageConfig& config,
                                             ProcessId owner);

}  // namespace rdtgc::ckpt
