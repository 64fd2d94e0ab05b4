// Log-structured medium for one process's checkpoint store.
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
// window of kTailWindowPages (8) pages, 32 KiB, starting at the tail's
// page is mapped MAP_SHARED at the first append — never at open, so
// opening costs no mapping.  It stays put until a record would cross its
// end, then slides in place (one MAP_FIXED mmap) to the page holding that
// record's first byte.  Records (a 72-byte header, then multiples of 32
// bytes) never end on a page boundary, so the straddled page is faulted
// again through the new window: about 8/7 minor faults per page and one
// mmap per 7 pages, against 2 faults and one mmap per page for a window
// that follows the tail page by page.  Up to 8 pages of the tail are
// resident per log.  The window may reach past the file's end; no byte is
// stored beyond the reserve below.  A record wider than 32 KiB gets a
// window of its own size.  Before any byte of a record is stored, the file
// space under it is reserved with posix_fallocate (util::io_fallocate), one
// page first and then doubling steps up to 64 KiB: a full disk therefore
// throws util::IoError before the medium changes, never a SIGBUS from a
// mapped page the filesystem cannot back.  The reserve reads as zeros, and
// each record is published magic-last: its body is stored first and its
// magic word after a compiler fence, so a process killed mid-append leaves
// a zero-magic record that recover() drops as a torn tail.  recover()
// truncates the file to its last whole record, which also releases the
// zero-filled reserve.
//
// Dead weight accumulates until the compaction pass runs: when a mutation
// finds the log holding at least `compact_min_records` records and the dead
// fraction (1 − live/records) at or above `compact_dead_ratio`, it first
// copies the live put records — read back out of the log itself, in
// ascending index order — behind a fresh header into `path.tmp`, fsyncs
// it, and atomically renames it over the log: the truncation step of a
// log-structured store.  The copy comes from
// the log, not the store, because under a durability pipeline the store's
// read side runs ahead of the medium.  Compacting BEFORE the mutation's own
// record keeps a failed compaction (IoError) from leaving the medium a
// mutation ahead of the store.  The tail window is unmapped before the
// rename and the next append maps the new file.  The GC drives compaction
// indirectly: eliminations are what create dead records, so a collector
// that reclaims more (RDT-LGC at the Theorem-1 optimum) also compacts the
// log harder.
//
// The copied prefix is remembered in the header as `baseline_records`
// together with a snapshot of the store's lifetime counters at compaction
// time: recover() replays the baseline puts into the store, restores the
// snapshot (replaying a copied live set must not recount history), then
// replays the remaining records one by one — reconstructing indices, DVs,
// stats, and peaks exactly.  A torn tail (a zero-magic record, or a record
// cut short) ends the replay and is truncated away.
//
// flush() is the durability point: one fsync, which writes back the mapped
// tail pages as well as the header.  There is no group-commit buffer — a
// mapped append costs no syscall to coalesce — so a durability-pipeline
// drain ends on the trait's default commit() (one flush).
//
// In memory the log keeps only its live index→record-offset table (with
// each checkpoint's byte count, for the counters' peaks) and the store's
// lifetime counters (for the next compaction's header).  The DV width is
// fixed at the first put().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class LogStructuredBackend final : public StorageBackend {
 public:
  /// Width of the mapped tail window, in pages (see the header comment).
  static constexpr std::size_t kTailWindowPages = 8;

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

  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes) override;
  void collect(CheckpointIndex index) override;
  void discard_after(CheckpointIndex ri) override;
  std::size_t count() const override { return live_.size(); }

  std::size_t recover(CheckpointStore& store) override;
  /// fsync the log (the durability point; it covers the mapped tail).
  /// Skipped entirely when nothing was written since the last flush (the
  /// dirty flag; see fsyncs()).
  void flush() override;

  // ---- Introspection (tests, benches) ----

  /// Records currently in the log (baseline + appended since).
  std::uint64_t log_records() const { return log_records_; }
  /// Put records copied by the last compaction (0 before the first).
  std::uint64_t baseline_records() const { return baseline_records_; }
  /// Compaction passes run over this object's lifetime.
  std::uint64_t compactions() const { return compactions_; }
  /// flush() fsync syscalls actually issued (dirty-flag skips excluded).
  std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  struct LogHeader;
  struct RecordHeader;

  /// One live checkpoint: its index, where its put record starts, and the
  /// bytes it holds.
  struct LiveRecord {
    CheckpointIndex index;
    std::uint64_t offset;
    std::uint64_t bytes;
  };

  void open_fresh();
  void ensure_width(std::size_t width);
  /// Reserve file space and map the window so that [end_offset_,
  /// end_offset_ + size) can be stored; returns where the record goes.
  /// Throws util::IoError with the medium unchanged.
  std::byte* tail_for(std::size_t size);
  void unmap_tail();
  /// Store one record at the tail, magic last; returns its offset.
  std::uint64_t append_record(std::uint16_t type, CheckpointIndex index,
                              SimTime stored_at, std::uint64_t bytes,
                              const causality::DependencyVector* dv);
  /// Position of `index` in live_ (live_.size() when absent).
  std::size_t live_position(CheckpointIndex index) const;
  /// Copy the live records behind a fresh header when the dead fraction
  /// crossed the threshold.
  void maybe_compact();
  void compact();

  ProcessId owner_;
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
  /// Live checkpoints, ascending in index.
  std::vector<LiveRecord> live_;
  std::uint64_t live_bytes_ = 0;
  /// The store's lifetime counters, as of the last write to this medium.
  StoreStats stats_;
  std::vector<std::byte> scratch_;  ///< compaction's new-log buffer

  static constexpr std::uint32_t kWidthUnset = 0xffffffffu;
};

}  // namespace rdtgc::ckpt
