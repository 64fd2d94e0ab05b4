// Mmap'd-file medium for one process's checkpoint store.
//
// File layout (all integers little-endian host order, 8-byte aligned):
//
//   ┌──────────────────────────────────────────────────────────────┐
//   │ SegmentHeader  magic, version, owner, dv_width, clean flag,  │
//   │                slot_capacity, slots_used, lifetime StoreStats │
//   ├──────────────────────────────────────────────────────────────┤
//   │ slot 0   state | index | stored_at | bytes | dv[dv_width]    │
//   │ slot 1   …                                                   │
//   │ …        (slot_capacity fixed-size slots)                    │
//   └──────────────────────────────────────────────────────────────┘
//
// Checkpoints are appended with their dependency vectors: a put() writes
// the next slot's payload and commits it by flipping the slot state to
// kLive last, so a torn append is recognized (state still kEmpty) and
// skipped by recover().  A GC elimination (collect) clears the state to
// kDead in place — the mmap'd page write IS the storage update, there is no
// separate log.  When the slots run out, the segment first tries an
// IN-PLACE COMPACTION (slide the live slots — already in ascending index
// order — to the front and release the dead tail) when at least half the
// slots are dead; otherwise it doubles via ftruncate+remap
// (util::MappedFile::resize).  The segment stays bounded by ~2× the peak
// live set instead of growing with total history.  (In-place compaction is
// not atomic against an OS crash mid-slide; the crash model here — and in
// the tests — is dropping the object between operations, where every state
// is consistent.)
//
// Exception safety on the put path: the segment is grown BEFORE anything is
// written, so an IoError from a failed growth (e.g. ENOSPC) leaves the
// medium untouched.
//
// In memory the medium keeps only its live index→slot table (ascending in
// index, at most n+1 entries under RDT-LGC) and the store's lifetime
// counters, which the header persists write-through on every mutation: an
// unclean drop loses nothing but the msync durability point.  recover()
// replays the committed live slots into the store — their file order is
// ascending in index, because puts are strictly increasing within a lineage
// and a rollback kills the whole suffix above its restore point before any
// index is reused — and then restores the persisted counters.
//
// The dependency-vector width is fixed at the first put(); storing vectors
// of a different width is a contract violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/mapped_file.hpp"

namespace rdtgc::ckpt {

class MmapFileBackend final : public StorageBackend {
 public:
  /// Opens (kFresh: truncates; kAttach: maps as-is, recover() required
  /// before mutating) the segment at `path`.  Throws util::IoError when the
  /// file cannot be created/opened.
  MmapFileBackend(ProcessId owner, std::string path, OpenMode mode,
                  std::size_t initial_slots);

  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes) override;
  void collect(CheckpointIndex index) override;
  void discard_after(CheckpointIndex ri) override;
  std::size_t count() const override { return live_.size(); }

  std::size_t recover(CheckpointStore& store) override;
  /// msync the segment and mark it cleanly closed.  Skipped entirely when
  /// nothing changed since the last flush (the dirty flag; see msyncs()).
  void flush() override;
  /// msync WITHOUT marking the segment cleanly closed (a group commit is a
  /// durability point, not a shutdown — the clean flag stays the flush()
  /// contract).  Skipped when nothing changed since the last sync.
  void commit() override;

  // ---- Introspection (tests, benches) ----

  /// Slots appended since the segment was created (live + dead).
  std::uint64_t slots_used() const;
  /// Current slot capacity of the mapping.
  std::uint64_t slot_capacity() const;
  /// msync syscalls actually issued by flush()/commit() (dirty-flag skips
  /// excluded).
  std::uint64_t msyncs() const { return msyncs_; }
  /// Whether the segment was flushed before it was last closed (valid right
  /// after recover(); any mutation clears the flag).
  bool recovered_clean() const { return recovered_clean_; }

 private:
  static constexpr std::uint32_t kSlotEmpty = 0;
  static constexpr std::uint32_t kSlotLive = 1;
  static constexpr std::uint32_t kSlotDead = 2;

  struct SegmentHeader;
  struct SlotHeader;

  /// One live checkpoint: its index and the slot holding it.
  struct LiveSlot {
    CheckpointIndex index;
    std::uint64_t slot;
  };

  SegmentHeader* header();
  const SegmentHeader* header() const;
  std::size_t slot_size() const;
  std::byte* slot_at(std::uint64_t slot);
  const std::byte* slot_at(std::uint64_t slot) const;
  SlotHeader& slot_header(std::uint64_t slot);

  /// Fix the DV width on first put; verify it afterwards.
  void ensure_width(std::size_t width);
  /// Make room for one more slot: in-place compaction when half the slots
  /// are dead, geometric growth otherwise.  May throw IoError (growth);
  /// everything after it on the put path is no-throw.
  void ensure_capacity();
  /// Write and commit one live slot.  No-throw (pure mapped-memory writes;
  /// ensure_capacity() reserved the slot and the live_ entry).
  void write_slot(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  /// Copy the counters into the mapped header and clear the clean flag
  /// (any mutation invalidates a clean shutdown).
  void sync_header_stats();

  ProcessId owner_;
  util::MappedFile file_;
  /// Live checkpoints, ascending in index.
  std::vector<LiveSlot> live_;
  std::uint64_t live_bytes_ = 0;
  /// The store's lifetime counters, as of the last write to this medium.
  StoreStats stats_;
  std::uint32_t dv_width_ = kWidthUnset;
  std::uint64_t msyncs_ = 0;
  bool pending_recover_ = false;
  bool recovered_clean_ = false;
  /// Mapped pages changed since the last successful msync.
  bool medium_dirty_ = false;

  static constexpr std::uint32_t kWidthUnset = 0xffffffffu;
};

}  // namespace rdtgc::ckpt
