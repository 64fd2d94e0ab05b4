#include "ckpt/log_backend.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>

#include "ckpt/checkpoint_store.hpp"
#include "util/check.hpp"
#include "util/mapped_file.hpp"  // util::IoError

namespace rdtgc::ckpt {

struct LogStructuredBackend::LogHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::int32_t owner;
  std::uint32_t dv_width;
  std::uint32_t reserved;
  std::uint64_t baseline_records;
  PersistedStoreStats stats;
};

struct LogStructuredBackend::RecordHeader {
  std::uint32_t magic;
  std::uint16_t type;
  std::uint16_t reserved;
  std::int32_t index;
  std::uint32_t pad;
  std::uint64_t stored_at;
  std::uint64_t bytes;
};

namespace {

constexpr std::uint64_t kLogMagic = 0x31474f4c434754ffull;  // "RDTGCLOG1"-ish
constexpr std::uint32_t kLogVersion = 2;
constexpr std::uint32_t kRecordMagic = 0x52435244u;  // "RCRD"

constexpr std::uint16_t kRecPut = 1;
constexpr std::uint16_t kRecCollect = 2;
constexpr std::uint16_t kRecDiscard = 3;

/// Largest step the tail reservation grows by.  Below it the reserve grows
/// by the file's size: one page first, then doubling.
constexpr std::uint64_t kMaxReserveStep = 64 * 1024;

std::uint64_t page_size() {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw util::IoError(what + " '" + path + "': " + std::strerror(errno));
}

void pwrite_all(int fd, const void* data, std::size_t size, std::uint64_t off,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite", path);
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes.  Returns false only on EOF / short read (a
/// torn tail the caller may truncate away); a real I/O failure throws
/// IoError instead — recovery must never mistake a transient read error
/// for a torn tail and amputate healthy records behind it.
bool pread_exact(int fd, void* data, std::size_t size, std::uint64_t off,
                 const std::string& path) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, p, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread", path);
    }
    if (n == 0) return false;
    p += n;
    off += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

LogStructuredBackend::LogStructuredBackend(ProcessId owner, std::string path,
                                           OpenMode mode,
                                           std::size_t compact_min_records,
                                           double compact_dead_ratio)
    : owner_(owner),
      path_(std::move(path)),
      compact_min_records_(compact_min_records),
      compact_dead_ratio_(compact_dead_ratio) {
  static_assert(sizeof(LogHeader) == 72, "on-disk log-header layout");
  static_assert(sizeof(RecordHeader) == 32, "on-disk record layout");
  RDTGC_EXPECTS(compact_min_records_ >= 1);
  RDTGC_EXPECTS(compact_dead_ratio_ > 0.0 && compact_dead_ratio_ <= 1.0);
  // No O_APPEND: pwrite on an O_APPEND descriptor ignores its offset on
  // Linux, and compaction needs offset-addressed writes for the header.
  const int flags = mode == OpenMode::kFresh ? (O_RDWR | O_CREAT | O_TRUNC)
                                             : O_RDWR;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open", path_);
  if (mode == OpenMode::kFresh) {
    open_fresh();
  } else {
    pending_recover_ = true;
  }
}

LogStructuredBackend::~LogStructuredBackend() {
  // Closing does NOT fsync: an unclean drop leaves whatever reached the
  // page cache (mapped stores included), which is exactly what the
  // crash-recovery tests model.  The zero-filled reserve stays on the
  // file for the next recover() to truncate, as after a real crash.
  unmap_tail();
  if (fd_ >= 0) ::close(fd_);
}

void LogStructuredBackend::open_fresh() {
  LogHeader h{};
  h.magic = kLogMagic;
  h.version = kLogVersion;
  h.owner = owner_;
  h.dv_width = kWidthUnset;
  h.baseline_records = 0;
  pwrite_all(fd_, &h, sizeof(h), 0, path_);
  end_offset_ = sizeof(LogHeader);
  reserved_ = end_offset_;
  log_records_ = 0;
  baseline_records_ = 0;
  dirty_ = true;
}

void LogStructuredBackend::ensure_width(std::size_t width) {
  if (dv_width_ == kWidthUnset) {
    // Persist the width so recover() can size put payloads.
    const auto width32 = static_cast<std::uint32_t>(width);
    pwrite_all(fd_, &width32, sizeof(width32), offsetof(LogHeader, dv_width),
               path_);
    dv_width_ = width32;
    dirty_ = true;
    return;
  }
  RDTGC_EXPECTS(width == dv_width_);
}

std::byte* LogStructuredBackend::tail_for(std::size_t size) {
  const std::uint64_t page = page_size();
  const std::uint64_t begin = end_offset_;
  const std::uint64_t end = begin + size;
  if (end > reserved_) {
    // Allocate before storing: a full disk is refused here, with an errno,
    // and never later as a SIGBUS on a mapped page the filesystem cannot
    // back.
    const std::uint64_t base = reserved_ / page * page;
    const std::uint64_t target =
        std::max(base + std::clamp(base, page, kMaxReserveStep),
                 (end + page - 1) / page * page);
    const int err =
        util::io_fallocate(fd_, static_cast<off_t>(reserved_),
                           static_cast<off_t>(target - reserved_));
    if (err != 0) {
      errno = err;
      throw_errno("fallocate", path_);
    }
    reserved_ = target;
  }
  // The window is kTailWindowPages pages from the tail's page on and stays
  // put until a record would cross its end; then it slides to the page of
  // that record's first byte.  Each slide refaults that one page, so a
  // page costs about 8/7 faults, and the window may reach past the file's
  // end (only bytes below reserved_ are ever stored).  A record wider than
  // the window gets a window of its own size.
  if (window_ != nullptr && begin >= window_offset_ &&
      end <= window_offset_ + window_size_)
    return window_ + (begin - window_offset_);
  const std::uint64_t offset = begin / page * page;
  const std::size_t span = static_cast<std::size_t>(std::max(
      kTailWindowPages * page, (end - offset + page - 1) / page * page));
  // Same size: slide in place, one mmap replacing the old window.
  void* const hint = span <= window_size_ ? window_ : nullptr;
  if (hint == nullptr) unmap_tail();
  void* map = ::mmap(hint, hint != nullptr ? window_size_ : span,
                     PROT_READ | PROT_WRITE,
                     MAP_SHARED | (hint != nullptr ? MAP_FIXED : 0), fd_,
                     static_cast<off_t>(offset));
  if (map == MAP_FAILED) {
    const int err = errno;
    unmap_tail();  // a failed MAP_FIXED may have dropped the old window
    errno = err;
    throw_errno("mmap", path_);
  }
  if (hint == nullptr) window_size_ = span;
  window_ = static_cast<std::byte*>(map);
  window_offset_ = offset;
  return window_ + (begin - window_offset_);
}

void LogStructuredBackend::unmap_tail() {
  if (window_ != nullptr) ::munmap(window_, window_size_);
  window_ = nullptr;
  window_size_ = 0;
}

std::uint64_t LogStructuredBackend::append_record(
    std::uint16_t type, CheckpointIndex index, SimTime stored_at,
    std::uint64_t bytes, const causality::DependencyVector* dv) {
  const std::size_t payload =
      dv != nullptr ? dv->size() * sizeof(IntervalIndex) : 0;
  std::byte* const out = tail_for(sizeof(RecordHeader) + payload);
  RecordHeader rec{};
  rec.magic = kRecordMagic;
  rec.type = type;
  rec.index = index;
  rec.stored_at = stored_at;
  rec.bytes = bytes;
  // Publish magic-last into the zero-filled reserve: a process killed
  // before the magic store leaves a zero-magic record, which recover()
  // drops as a torn tail.  The fence keeps the compiler from sinking the
  // body stores below it.
  constexpr std::size_t kMagic = sizeof(rec.magic);
  std::memcpy(out + kMagic, reinterpret_cast<const std::byte*>(&rec) + kMagic,
              sizeof(rec) - kMagic);
  if (payload > 0)
    std::memcpy(out + sizeof(rec), dv->entries().data(), payload);
  std::atomic_signal_fence(std::memory_order_release);
  std::memcpy(out, &rec.magic, kMagic);
  const std::uint64_t offset = end_offset_;
  end_offset_ += sizeof(rec) + payload;
  dirty_ = true;
  ++log_records_;
  return offset;
}

std::size_t LogStructuredBackend::live_position(CheckpointIndex index) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), index,
      [](const LiveRecord& e, CheckpointIndex g) { return e.index < g; });
  if (it == live_.end() || it->index != index) return live_.size();
  return static_cast<std::size_t>(it - live_.begin());
}

// Mutation ordering: compact if due, then append, then update the live
// table and counters.  A compaction or an append throws (IoError, e.g.
// ENOSPC from the reservation) before this mutation's record is stored, so
// the throw leaves the log holding exactly what it held before.

void LogStructuredBackend::put(CheckpointIndex index,
                               const causality::DependencyVector& dv,
                               SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  RDTGC_EXPECTS(live_.empty() || index > live_.back().index);
  maybe_compact();
  ensure_width(dv.size());
  const std::uint64_t offset =
      append_record(kRecPut, index, stored_at, bytes, &dv);
  live_.push_back({index, offset, bytes});
  live_bytes_ += bytes;
  stats_.note_put(live_.size(), live_bytes_);
}

void LogStructuredBackend::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  const std::size_t pos = live_position(index);
  RDTGC_EXPECTS(pos != live_.size());
  maybe_compact();  // moves offsets, never positions
  append_record(kRecCollect, index, 0, 0, nullptr);
  live_bytes_ -= live_[pos].bytes;
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
  ++stats_.collected;
}

void LogStructuredBackend::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  maybe_compact();
  append_record(kRecDiscard, ri, 0, 0, nullptr);
  const auto first = std::upper_bound(
      live_.begin(), live_.end(), ri,
      [](CheckpointIndex g, const LiveRecord& e) { return g < e.index; });
  for (auto it = first; it != live_.end(); ++it) live_bytes_ -= it->bytes;
  stats_.discarded += static_cast<std::uint64_t>(live_.end() - first);
  live_.erase(first, live_.end());
}

void LogStructuredBackend::maybe_compact() {
  if (log_records_ < compact_min_records_) return;
  const double live = static_cast<double>(live_.size());
  const double dead_fraction = 1.0 - live / static_cast<double>(log_records_);
  if (dead_fraction >= compact_dead_ratio_) compact();
}

void LogStructuredBackend::compact() {
  const std::string tmp = path_ + ".tmp";
  const int tmp_fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) throw_errno("open", tmp);
  // Close tmp_fd on every exit except the success path, where it becomes
  // fd_ — an ENOSPC mid-rewrite must not leak one descriptor per retried
  // compaction.
  struct FdGuard {
    int fd;
    ~FdGuard() {
      if (fd >= 0) ::close(fd);
    }
  } guard{tmp_fd};

  // The new log in one buffer: a fresh header, then the live put records
  // copied out of the log itself.  One pread takes the log from the first
  // live record to the tail (the tail window's stores are visible through
  // the shared page cache) in behind the header, and each live record
  // slides toward the front — never past a later one — so one pwrite
  // writes the whole new log.
  LogHeader h{};
  h.magic = kLogMagic;
  h.version = kLogVersion;
  h.owner = owner_;
  h.dv_width = dv_width_;
  h.baseline_records = live_.size();
  h.stats = PersistedStoreStats::from(stats_);
  const std::size_t record =
      sizeof(RecordHeader) + dv_width_ * sizeof(IntervalIndex);
  const std::uint64_t from = live_.empty() ? end_offset_ : live_[0].offset;
  scratch_.resize(sizeof(h) + static_cast<std::size_t>(end_offset_ - from));
  std::memcpy(scratch_.data(), &h, sizeof(h));
  std::byte* const records = scratch_.data() + sizeof(h);
  if (!pread_exact(fd_, records, scratch_.size() - sizeof(h), from, path_))
    throw util::IoError("log '" + path_ + "' ends inside a live record");
  for (std::size_t k = 0; k < live_.size(); ++k) {
    const std::byte* const src = records + (live_[k].offset - from);
    RecordHeader rec;
    std::memcpy(&rec, src, sizeof(rec));
    RDTGC_ASSERT(rec.type == kRecPut && rec.index == live_[k].index);
    std::memmove(records + k * record, src, record);
  }
  const std::uint64_t off = sizeof(h) + live_.size() * record;
  pwrite_all(tmp_fd, scratch_.data(), static_cast<std::size_t>(off), 0, tmp);
  if (::fsync(tmp_fd) != 0) throw_errno("fsync", tmp);
  // The window maps the old file; the next append maps the new one.
  unmap_tail();
  // Atomic swap: either the old log or the complete compacted one exists.
  if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("rename", tmp);
  ::close(fd_);
  fd_ = tmp_fd;  // tmp_fd now refers to the file at path_
  guard.fd = -1;  // success: the descriptor lives on as fd_
  for (std::size_t k = 0; k < live_.size(); ++k)
    live_[k].offset = sizeof(LogHeader) + k * record;
  end_offset_ = off;
  reserved_ = off;
  log_records_ = live_.size();
  baseline_records_ = live_.size();
  ++compactions_;
  // The compacted data was fsync'd before the rename, but the rename
  // itself (the directory entry) was not — conservatively keep the log
  // dirty so the next flush() issues a real durability point.
  dirty_ = true;
}

std::size_t LogStructuredBackend::recover(CheckpointStore& store) {
  RDTGC_EXPECTS(pending_recover_);
  RDTGC_EXPECTS(store.count() == 0);
  LogHeader h{};
  if (!pread_exact(fd_, &h, sizeof(h), 0, path_))
    throw util::IoError("log '" + path_ + "' shorter than its header");
  RDTGC_EXPECTS(h.magic == kLogMagic);
  RDTGC_EXPECTS(h.version == kLogVersion);
  RDTGC_EXPECTS(h.owner == owner_);
  dv_width_ = h.dv_width;
  baseline_records_ = h.baseline_records;

  // The baseline puts are the compaction copy of a live set whose history
  // the header's snapshot carries; replaying them must not recount it, so
  // the snapshot replaces the counters once the baseline is in (at once
  // for an empty baseline — a fresh log's snapshot is all zeros).
  const StoreStats snapshot = h.stats.to_stats();
  if (baseline_records_ == 0) store.restore_stats(snapshot);
  std::uint64_t off = sizeof(LogHeader);
  std::uint64_t records = 0;
  causality::DependencyVector dv(dv_width_ == kWidthUnset ? 0 : dv_width_);
  while (true) {
    RecordHeader rec{};
    if (!pread_exact(fd_, &rec, sizeof(rec), off, path_)) break;  // torn tail
    if (rec.magic != kRecordMagic) break;                  // torn tail
    std::uint64_t next = off + sizeof(rec);
    if (rec.type == kRecPut) {
      const std::size_t payload = dv.size() * sizeof(IntervalIndex);
      if (payload > 0 && !pread_exact(fd_, &dv.at(0), payload, next, path_))
        break;  // torn put payload
      next += payload;
      store.put(rec.index, dv, rec.stored_at, rec.bytes);
      live_.push_back({rec.index, off, rec.bytes});
    } else if (rec.type == kRecCollect) {
      store.collect(rec.index);
      live_.erase(live_.begin() +
                  static_cast<std::ptrdiff_t>(live_position(rec.index)));
    } else if (rec.type == kRecDiscard) {
      store.discard_after(rec.index);
      live_.resize(store.count());  // the store kept the same prefix
    } else {
      break;  // unknown type: treat as torn tail
    }
    off = next;
    if (++records == baseline_records_) store.restore_stats(snapshot);
  }
  // Drop the torn tail and the zero-filled reserve so subsequent appends
  // extend a well-formed log.
  if (::ftruncate(fd_, static_cast<off_t>(off)) != 0)
    throw_errno("ftruncate", path_);
  end_offset_ = off;
  reserved_ = off;
  log_records_ = records;
  live_bytes_ = store.bytes();
  stats_ = store.stats();
  pending_recover_ = false;
  dirty_ = true;  // the torn-tail ftruncate is an unsynced medium write
  return live_.size();
}

void LogStructuredBackend::flush() {
  if (!dirty_) return;  // nothing reached the medium since the last fsync
  if (util::io_fsync(fd_) != 0) throw_errno("fsync", path_);
  ++fsyncs_;
  dirty_ = false;
}

}  // namespace rdtgc::ckpt
