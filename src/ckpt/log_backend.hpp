// Log-structured persistence for one checkpoint-store stripe.
//
// The medium is an append-only operation log:
//
//   ┌────────────────────────────────────────────────────────────────┐
//   │ LogHeader   magic, version, owner, dv_width,                   │
//   │             baseline_records, baseline StoreStats              │
//   ├────────────────────────────────────────────────────────────────┤
//   │ record 0    magic | type | index | stored_at | bytes [| dv…]   │
//   │ record 1    …   (kPut records carry the dependency vector)     │
//   ├────────────────────────────────────────────────────────────────┤
//   │ reserve     zero-filled space allocated ahead of the tail      │
//   └────────────────────────────────────────────────────────────────┘
//
// Every mutation appends one record at the tracked tail — never seeks back,
// never rewrites: a put() appends the checkpoint with its DV, an
// Algorithm-2 elimination appends a kCollect tombstone that marks the put
// record dead, a rollback appends one kDiscard record covering its whole
// suffix.
//
// Appends are stores through a MAPPED TAIL, not syscalls.  A page-aligned
// window over the tail (one page, plus the next when a record straddles
// it) is mapped MAP_SHARED at the stripe's first append — never at open,
// so a store of idle stripes maps nothing — and slides forward in place
// (MAP_FIXED) when the tail leaves it.  Before any byte of a record is
// stored, the file space under it is reserved with posix_fallocate
// (util::io_fallocate), one page first and then doubling steps up to
// 64 KiB: a full disk therefore throws util::IoError before the medium or
// the mirror changes, never a SIGBUS from a mapped page the filesystem
// cannot back.  The reserve reads as zeros, and each record is published
// magic-last: its body is stored first and its magic word after a compiler
// fence, so a process killed mid-append leaves a zero-magic record that
// recover() drops as a torn tail.  recover() truncates the file to its
// last whole record, which also releases the zero-filled reserve.
//
// Dead weight accumulates until the compaction pass runs: when the log
// holds at least `compact_min_records` records and the dead fraction
// (1 − live/records) reaches `compact_dead_ratio`, the live records are
// rewritten (pwrite) in ascending index order behind a fresh header into
// `path.tmp`, fsync'd, and atomically renamed over the log — the
// truncation step of a log-structured store.  The tail window is unmapped
// before the rename and the next append maps the new file.  The GC drives
// compaction indirectly: eliminations are what create dead records, so a
// collector that reclaims more (RDT-LGC at the Theorem-1 optimum) also
// compacts the log harder.
//
// The rewritten prefix is remembered in the header as `baseline_records`
// together with a snapshot of the lifetime counters at compaction time:
// recover() replays the baseline puts, restores the snapshot (replaying a
// rewritten live set must not recount history), then replays the remaining
// records one by one — reconstructing indices, DVs, stats, and peaks
// exactly.  A torn tail (a zero-magic record, or a record cut short) ends
// the replay and is truncated away.
//
// flush() is the durability point: one fsync, which writes back the mapped
// tail pages as well as the header.  There is no group-commit buffer — a
// mapped append costs no syscall to coalesce — so a durability-pipeline
// drain uses the trait's default end_batch() (flush when durable).
//
// Reads are served by a full in-memory CheckpointStore mirror, as in the
// mmap backend.  The DV width is fixed per stripe at the first put().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class LogStructuredBackend final : public StorageBackend {
 public:
  /// Opens (kFresh: truncates; kAttach: recover() required before mutating)
  /// the log at `path`.  Throws util::IoError when the file cannot be
  /// created/opened.
  LogStructuredBackend(ProcessId owner, std::string path, OpenMode mode,
                       std::size_t compact_min_records,
                       double compact_dead_ratio);
  ~LogStructuredBackend() override;
  /// Owns a descriptor and the tail mapping.
  LogStructuredBackend(const LogStructuredBackend&) = delete;
  LogStructuredBackend& operator=(const LogStructuredBackend&) = delete;

  ProcessId owner() const override { return mem_.owner(); }
  StorageBackendKind kind() const override {
    return StorageBackendKind::kLogStructured;
  }

  void put(StoredCheckpoint checkpoint) override;
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes) override;
  bool contains(CheckpointIndex index) const override {
    return mem_.contains(index);
  }
  const StoredCheckpoint& get(CheckpointIndex index) const override {
    return mem_.get(index);
  }
  causality::DvView dv_view(CheckpointIndex index) const override {
    return mem_.dv_view(index);
  }
  void collect(CheckpointIndex index) override;
  std::size_t discard_after(CheckpointIndex ri) override;
  const std::vector<CheckpointIndex>& stored_indices() const override {
    return mem_.stored_indices();
  }
  CheckpointIndex last_index() const override { return mem_.last_index(); }
  std::size_t count() const override { return mem_.count(); }
  std::uint64_t bytes() const override { return mem_.bytes(); }
  const StoreStats& stats() const override { return mem_.stats(); }

  std::size_t recover() override;
  /// fsync the log (the durability point; it covers the mapped tail).
  /// Skipped entirely when nothing was written since the last flush (the
  /// dirty flag; see fsyncs()).
  void flush() override;

  // ---- Introspection (tests, benches) ----

  /// Records currently in the log (baseline + appended since).
  std::uint64_t log_records() const { return log_records_; }
  /// Put records rewritten by the last compaction (0 before the first).
  std::uint64_t baseline_records() const { return baseline_records_; }
  /// Compaction passes run over this object's lifetime.
  std::uint64_t compactions() const { return compactions_; }
  /// flush() fsync syscalls actually issued (dirty-flag skips excluded).
  std::uint64_t fsyncs() const { return fsyncs_; }
  const std::string& path() const { return path_; }

 private:
  struct LogHeader;
  struct RecordHeader;

  void open_fresh();
  void ensure_width(std::size_t width);
  /// Reserve file space and map the window so that [end_offset_,
  /// end_offset_ + size) can be stored; returns where the record goes.
  /// Throws util::IoError with the medium unchanged.
  std::byte* tail_for(std::size_t size);
  void unmap_tail();
  /// Store one record at the tail, magic last.
  void append_record(std::uint16_t type, CheckpointIndex index,
                     SimTime stored_at, std::uint64_t bytes,
                     const causality::DependencyVector* dv);
  /// Rewrite live records behind a fresh header when the dead fraction
  /// crossed the threshold.
  void maybe_compact();
  void compact();

  CheckpointStore mem_;  ///< in-memory mirror serving all reads
  std::string path_;
  int fd_ = -1;
  std::uint64_t end_offset_ = 0;  ///< append position (no O_APPEND: see .cpp)
  std::uint64_t reserved_ = 0;    ///< file size: records + zero reserve
  std::byte* window_ = nullptr;   ///< mapped tail window, or none yet
  std::uint64_t window_offset_ = 0;  ///< file offset of window_ (page-aligned)
  std::size_t window_size_ = 0;
  std::uint64_t log_records_ = 0;
  std::uint64_t baseline_records_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t compact_min_records_;
  double compact_dead_ratio_;
  std::uint32_t dv_width_ = kWidthUnset;
  std::uint64_t fsyncs_ = 0;
  bool pending_recover_ = false;
  /// Unsynced bytes reached the medium since the last successful flush().
  bool dirty_ = false;
  std::vector<std::byte> scratch_;  ///< compaction's record buffer

  static constexpr std::uint32_t kWidthUnset = 0xffffffffu;
};

}  // namespace rdtgc::ckpt
