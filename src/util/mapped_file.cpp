#include "util/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <atomic>

namespace rdtgc::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno));
}

// Overrides are atomics so stores on other threads (a FleetRunner's
// workers) read them race-free while a test installs/uninstalls its
// failure injection on its own thread.
std::atomic<int (*)(void*, std::size_t, int)> g_msync_override{nullptr};
std::atomic<int (*)(int)> g_fsync_override{nullptr};
std::atomic<int (*)(int, off_t, off_t)> g_fallocate_override{nullptr};

}  // namespace

int io_msync(void* addr, std::size_t length, int flags) {
  const auto fn = g_msync_override.load(std::memory_order_acquire);
  return fn != nullptr ? fn(addr, length, flags) : ::msync(addr, length, flags);
}

int io_fsync(int fd) {
  const auto fn = g_fsync_override.load(std::memory_order_acquire);
  return fn != nullptr ? fn(fd) : ::fsync(fd);
}

int io_fallocate(int fd, off_t offset, off_t length) {
  const auto fn = g_fallocate_override.load(std::memory_order_acquire);
  return fn != nullptr ? fn(fd, offset, length)
                       : ::posix_fallocate(fd, offset, length);
}

void set_io_msync_for_test(int (*fn)(void*, std::size_t, int)) {
  g_msync_override.store(fn, std::memory_order_release);
}

void set_io_fsync_for_test(int (*fn)(int)) {
  g_fsync_override.store(fn, std::memory_order_release);
}

void set_io_fallocate_for_test(int (*fn)(int, off_t, off_t)) {
  g_fallocate_override.store(fn, std::memory_order_release);
}

MappedFile::MappedFile(const std::string& path, Mode mode,
                       std::size_t initial_size) {
  open(path, mode, initial_size);
}

MappedFile::~MappedFile() { close(); }

void MappedFile::open(const std::string& path, Mode mode,
                      std::size_t initial_size) {
  close();
  const int flags = mode == Mode::kCreate ? (O_RDWR | O_CREAT | O_TRUNC)
                                          : O_RDWR;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("open", path);

  std::size_t size = initial_size;
  if (mode == Mode::kOpenExisting) {
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw_errno("fstat", path);
    }
    size = static_cast<std::size_t>(st.st_size);
  }
  if (size == 0) size = 1;  // zero-length mappings are invalid
  if (mode == Mode::kCreate || static_cast<std::size_t>(::lseek(
                                   fd, 0, SEEK_END)) < size) {
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      ::close(fd);
      throw_errno("ftruncate", path);
    }
  }

  void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    throw_errno("mmap", path);
  }
  path_ = path;
  fd_ = fd;
  data_ = static_cast<std::byte*>(map);
  size_ = size;
}

void MappedFile::close() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  size_ = 0;
}

void MappedFile::resize(std::size_t new_size) {
  if (new_size == 0) new_size = 1;
  if (new_size == size_) return;
  // ftruncate BEFORE unmapping: the common failure (ENOSPC on growth) then
  // throws while the old mapping is still intact, so the object stays fully
  // usable for the caller's error handling.  Only an mmap failure after the
  // successful truncate (address-space exhaustion) leaves the object
  // unmapped — size() reads 0 then, and sync()/close() stay safe.
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0)
    throw_errno("ftruncate", path_);
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
  void* map =
      ::mmap(nullptr, new_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) throw_errno("mmap", path_);
  data_ = static_cast<std::byte*>(map);
  size_ = new_size;
}

void MappedFile::sync() {
  if (data_ == nullptr) return;
  if (io_msync(data_, size_, MS_SYNC) != 0) throw_errno("msync", path_);
}

}  // namespace rdtgc::util
