#include "ckpt/mmap_backend.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ckpt/checkpoint_store.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {

// Plain-old-data header views over the mapping.  The mapping is
// page-aligned and every field offset is naturally aligned, so the
// reinterpret_casts below are valid object accesses on every platform this
// targets (static_asserts pin the layout).
struct MmapFileBackend::SegmentHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::int32_t owner;
  std::uint32_t dv_width;
  std::uint32_t clean;  ///< 1 iff the last close was preceded by flush()
  std::uint64_t slot_capacity;
  std::uint64_t slots_used;
  PersistedStoreStats stats;

  static_assert(sizeof(std::uint64_t) == 8 && sizeof(std::int32_t) == 4,
                "fixed-width file layout");
};

struct MmapFileBackend::SlotHeader {
  std::uint32_t state;
  std::int32_t index;
  std::uint64_t stored_at;
  std::uint64_t bytes;
  // IntervalIndex dv[dv_width] follows.
};

namespace {

constexpr std::uint64_t kSegmentMagic = 0x31474553434754ffull;  // "RDTGCSEG1"-ish
constexpr std::uint32_t kSegmentVersion = 2;

/// Slots are 8-byte aligned so the next slot's 64-bit fields stay aligned.
std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7u}; }

}  // namespace

MmapFileBackend::SegmentHeader* MmapFileBackend::header() {
  return reinterpret_cast<SegmentHeader*>(file_.data());
}
const MmapFileBackend::SegmentHeader* MmapFileBackend::header() const {
  return reinterpret_cast<const SegmentHeader*>(file_.data());
}

std::size_t MmapFileBackend::slot_size() const {
  RDTGC_ASSERT(dv_width_ != kWidthUnset);
  return align8(sizeof(SlotHeader) + dv_width_ * sizeof(IntervalIndex));
}

std::byte* MmapFileBackend::slot_at(std::uint64_t slot) {
  return file_.data() + sizeof(SegmentHeader) + slot * slot_size();
}
const std::byte* MmapFileBackend::slot_at(std::uint64_t slot) const {
  return file_.data() + sizeof(SegmentHeader) + slot * slot_size();
}

MmapFileBackend::SlotHeader& MmapFileBackend::slot_header(std::uint64_t slot) {
  return *reinterpret_cast<SlotHeader*>(slot_at(slot));
}

MmapFileBackend::MmapFileBackend(ProcessId owner, std::string path,
                                 OpenMode mode, std::size_t initial_slots)
    : owner_(owner) {
  static_assert(sizeof(SegmentHeader) == 80, "on-disk segment layout");
  static_assert(sizeof(SlotHeader) == 24, "on-disk slot layout");
  RDTGC_EXPECTS(initial_slots >= 1);
  if (mode == OpenMode::kFresh) {
    file_.open(path, util::MappedFile::Mode::kCreate, sizeof(SegmentHeader));
    SegmentHeader* h = header();
    h->magic = kSegmentMagic;
    h->version = kSegmentVersion;
    h->owner = owner;
    h->dv_width = kWidthUnset;
    h->clean = 0;
    h->slot_capacity = initial_slots;
    h->slots_used = 0;
    medium_dirty_ = true;
  } else {
    file_.open(path, util::MappedFile::Mode::kOpenExisting, 0);
    pending_recover_ = true;
  }
}

void MmapFileBackend::ensure_width(std::size_t width) {
  if (dv_width_ == kWidthUnset) {
    // First put fixes the record layout and sizes the slot region.
    dv_width_ = static_cast<std::uint32_t>(width);
    header()->dv_width = dv_width_;
    const std::uint64_t capacity = header()->slot_capacity;
    file_.resize(sizeof(SegmentHeader) + capacity * slot_size());
    return;
  }
  RDTGC_EXPECTS(width == dv_width_);
}

void MmapFileBackend::ensure_capacity() {
  // Reserve ahead (geometrically) so write_slot's push_back is no-throw.
  if (live_.size() == live_.capacity())
    live_.reserve(std::max<std::size_t>(8, live_.capacity() * 2));
  SegmentHeader* h = header();
  if (h->slots_used < h->slot_capacity) return;
  const std::uint64_t live = live_.size();
  if (live * 2 <= h->slot_capacity) {
    // At least half the slots are dead: compact in place instead of
    // growing.  live_ is ascending in slot as well as index, and
    // live_[k].slot >= k, so sliding each live slot down to position k
    // preserves the ascending-index file order recover() relies on
    // (overlap-safe via memmove).  Pure memory writes — no-throw.
    const std::uint64_t used_before = h->slots_used;
    for (std::uint64_t k = 0; k < live; ++k) {
      LiveSlot& entry = live_[static_cast<std::size_t>(k)];
      if (entry.slot != k)
        std::memmove(slot_at(k), slot_at(entry.slot), slot_size());
      entry.slot = k;
    }
    // Release the tail: stale copies above the live prefix must not be
    // mistaken for committed slots by a later recover().
    for (std::uint64_t slot = live; slot < used_before; ++slot)
      slot_header(slot).state = kSlotEmpty;
    h->slots_used = live;
    return;
  }
  const std::uint64_t capacity = h->slot_capacity * 2;
  file_.resize(sizeof(SegmentHeader) + capacity * slot_size());  // may throw
  header()->slot_capacity = capacity;  // header() re-read after remap
}

void MmapFileBackend::write_slot(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  const std::uint64_t slot = header()->slots_used;
  std::byte* raw = slot_at(slot);
  auto* sh = reinterpret_cast<SlotHeader*>(raw);
  sh->state = kSlotEmpty;
  sh->index = index;
  sh->stored_at = stored_at;
  sh->bytes = bytes;
  const auto entries = dv.entries();
  if (!entries.empty())
    std::memcpy(raw + sizeof(SlotHeader), entries.data(),
                entries.size() * sizeof(IntervalIndex));
  // Commit marker last: a torn append leaves state == kSlotEmpty and
  // recover() skips the slot.
  sh->state = kSlotLive;
  header()->slots_used = slot + 1;
  live_.push_back({index, slot});
}

void MmapFileBackend::sync_header_stats() {
  SegmentHeader* h = header();
  h->stats = PersistedStoreStats::from(stats_);
  h->clean = 0;
  medium_dirty_ = true;
}

void MmapFileBackend::put(CheckpointIndex index,
                          const causality::DependencyVector& dv,
                          SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  RDTGC_EXPECTS(live_.empty() || index > live_.back().index);
  // Grow the medium first: every throw (contract or IoError) happens before
  // anything is written.
  ensure_width(dv.size());
  ensure_capacity();
  write_slot(index, dv, stored_at, bytes);
  live_bytes_ += bytes;
  stats_.note_put(live_.size(), live_bytes_);
  sync_header_stats();
}

void MmapFileBackend::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), index,
      [](const LiveSlot& e, CheckpointIndex g) { return e.index < g; });
  RDTGC_EXPECTS(it != live_.end() && it->index == index);
  SlotHeader& sh = slot_header(it->slot);
  sh.state = kSlotDead;
  live_bytes_ -= sh.bytes;
  live_.erase(it);
  ++stats_.collected;
  sync_header_stats();
}

void MmapFileBackend::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  const auto first = std::upper_bound(
      live_.begin(), live_.end(), ri,
      [](CheckpointIndex g, const LiveSlot& e) { return g < e.index; });
  for (auto it = first; it != live_.end(); ++it) {
    SlotHeader& sh = slot_header(it->slot);
    sh.state = kSlotDead;
    live_bytes_ -= sh.bytes;
  }
  stats_.discarded += static_cast<std::uint64_t>(live_.end() - first);
  live_.erase(first, live_.end());
  sync_header_stats();
}

std::size_t MmapFileBackend::recover(CheckpointStore& store) {
  RDTGC_EXPECTS(pending_recover_);
  RDTGC_EXPECTS(store.count() == 0);
  RDTGC_EXPECTS(file_.size() >= sizeof(SegmentHeader));
  {
    const SegmentHeader* h = header();
    RDTGC_EXPECTS(h->magic == kSegmentMagic);
    RDTGC_EXPECTS(h->version == kSegmentVersion);
    RDTGC_EXPECTS(h->owner == owner_);
    recovered_clean_ = h->clean == 1;
    dv_width_ = h->dv_width;
    // The replay below counts the live set as fresh puts; the persisted
    // counters carry the full history (collections, discards, peaks).
    stats_ = h->stats.to_stats();
  }
  if (dv_width_ != kWidthUnset) {
    // Trust only what physically fits in the file: a crash between the
    // header update and the ftruncate of a growth cannot fabricate slots.
    const std::uint64_t fit =
        (file_.size() - sizeof(SegmentHeader)) / slot_size();
    const std::uint64_t used = std::min(header()->slots_used, fit);
    causality::DependencyVector dv(dv_width_);
    for (std::uint64_t slot = 0; slot < used; ++slot) {
      const auto* sh = reinterpret_cast<const SlotHeader*>(slot_at(slot));
      if (sh->state != kSlotLive) continue;  // dead, or torn (uncommitted)
      if (dv_width_ > 0)
        std::memcpy(&dv.at(0), slot_at(slot) + sizeof(SlotHeader),
                    dv_width_ * sizeof(IntervalIndex));
      store.put(sh->index, dv, sh->stored_at, sh->bytes);  // ascending
      live_.push_back({sh->index, slot});
      live_bytes_ += sh->bytes;
    }
    // Normalize the header and the mapping to the trusted extent: a header
    // claiming more slots (or capacity) than the file holds would otherwise
    // send the next append past the end of the mapping.
    const std::uint64_t capacity = std::max<std::uint64_t>(fit, 1);
    file_.resize(sizeof(SegmentHeader) + capacity * slot_size());
    header()->slot_capacity = capacity;
    header()->slots_used = used;
  }
  store.restore_stats(stats_);
  pending_recover_ = false;
  medium_dirty_ = true;  // the header normalization above is unsynced
  return live_.size();
}

void MmapFileBackend::flush() {
  // Dirty-flag skip: nothing changed since the last flush AND the segment
  // is already marked clean — the msync would be a pure no-op.
  if (!medium_dirty_ && header()->clean == 1) return;
  header()->clean = 1;
  try {
    file_.sync();
  } catch (...) {
    // An msync failure must not leave a clean flag the medium never got:
    // a subsequent crash-drop would then recover as "cleanly closed".
    header()->clean = 0;
    throw;
  }
  ++msyncs_;
  medium_dirty_ = false;
}

void MmapFileBackend::commit() {
  if (!medium_dirty_) return;
  // Group-commit durability point: msync without the clean flag (the
  // mutations already cleared it; a crash after this commit is still an
  // unclean-but-consistent state, not a clean close).
  file_.sync();
  ++msyncs_;
  medium_dirty_ = false;
}

std::uint64_t MmapFileBackend::slots_used() const { return header()->slots_used; }
std::uint64_t MmapFileBackend::slot_capacity() const {
  return header()->slot_capacity;
}

}  // namespace rdtgc::ckpt
