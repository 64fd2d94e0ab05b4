// RAII wrapper around one mmap'd regular file, the raw medium under the
// mmap segment of the checkpoint store (ckpt/mmap_backend.hpp).
//
// Semantics the backends rely on:
//  * the mapping is MAP_SHARED, so every store through data() lands in the
//    kernel page cache immediately — destroying the object WITHOUT sync()
//    does not lose the writes (they remain visible to the next open of the
//    file), it only skips the msync durability point.  This is what lets
//    the crash-recovery tests model "process died without flushing" by
//    simply dropping the backend object;
//  * resize() is ftruncate + remap: every pointer previously obtained from
//    data() is invalidated, exactly like a vector reallocation;
//  * the mapping is page-aligned, so any power-of-two-aligned layout the
//    caller imposes on the bytes holds.
//
// IO failures (open/ftruncate/mmap/msync) throw util::IoError: unlike a
// ContractViolation they are environmental, not programmer error.
#pragma once

#include <sys/types.h>  // off_t

#include <cstddef>
#include <stdexcept>
#include <string>

namespace rdtgc::util {

/// Thrown when a filesystem or mapping operation fails (errno-style causes:
/// missing file, full disk, permission).  Distinct from ContractViolation:
/// callers may legitimately catch and surface this one.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

// ---- Durability-syscall seam ------------------------------------------
//
// Every *flush durability point* (MappedFile::sync's msync, the log
// backend's flush fsync) and the log backend's tail reservation go through
// these entry points instead of calling the libc symbol directly, so tests
// can inject an fsync/msync/fallocate failure and assert the error surfaces
// as IoError with store and medium still coherent
// (tests/durability_test.cpp).  Production behavior is byte-identical: with
// no override installed they tail-call the real syscall wrappers.

/// msync(2) via the installed override, or the real call when none is set.
int io_msync(void* addr, std::size_t length, int flags);
/// fsync(2) via the installed override, or the real call when none is set.
int io_fsync(int fd);
/// posix_fallocate(3) via the installed override, or the real call when
/// none is set.  Like posix_fallocate it returns 0 or an errno value
/// (it does not set errno).
int io_fallocate(int fd, off_t offset, off_t length);

/// Install (or, with nullptr, remove) the msync/fsync/fallocate overrides.
/// TEST SEAM ONLY — global, not thread-scoped; restore before the test
/// returns.
void set_io_msync_for_test(int (*fn)(void*, std::size_t, int));
void set_io_fsync_for_test(int (*fn)(int));
void set_io_fallocate_for_test(int (*fn)(int, off_t, off_t));

class MappedFile {
 public:
  enum class Mode {
    kCreate,        ///< create or truncate to `initial_size`, zero-filled
    kOpenExisting,  ///< map the file as-is; throws IoError when absent
  };

  MappedFile() = default;
  /// Convenience: open() at construction.
  MappedFile(const std::string& path, Mode mode, std::size_t initial_size);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Open `path` and map it read-write, shared.  kCreate truncates to
  /// `initial_size`; kOpenExisting maps the current file size (and ignores
  /// `initial_size`).  Throws IoError on failure; the object is left closed.
  void open(const std::string& path, Mode mode, std::size_t initial_size);

  /// Unmap and close.  Idempotent.  Does NOT sync: page-cache contents
  /// survive the close regardless (see header comment).
  void close();

  bool is_open() const { return data_ != nullptr; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Grow (or shrink) the file and remap.  Invalidates every pointer
  /// previously returned by data().  Throws IoError on failure.
  void resize(std::size_t new_size);

  /// Base of the mapping; valid until the next resize()/close().
  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

  /// msync the whole mapping (the durability point).  Throws IoError.
  void sync();

 private:
  std::string path_;
  int fd_ = -1;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rdtgc::util
