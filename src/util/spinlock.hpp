// Tiny test-and-test-and-set spinlock for short critical sections.
//
// The durability pipeline's ring and drain locks are these instead of a
// std::mutex: the ring's critical sections (a slot fill, an index advance)
// last nanoseconds, far below the cost of parking a thread, and an
// atomic_flag adds no per-lock allocation — which keeps the store's
// zero-allocation contracts intact under an async durability policy.
// Lock/unlock satisfy Cpp17BasicLockable, so std::lock_guard /
// std::scoped_lock work.
//
// Not fair and not recursive: strictly for leaf-level critical sections that
// never block, never allocate, and never acquire another lock.  Anything
// longer belongs behind a std::mutex.
#pragma once

#include <atomic>

namespace rdtgc::util {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() noexcept {
    // Test-and-test-and-set: spin on the cheap relaxed read so a contended
    // lock does not storm the cache line with RMW traffic.
    while (flag_.test_and_set(std::memory_order_acquire))
      while (flag_.test(std::memory_order_relaxed)) {
      }
  }

  bool try_lock() noexcept {
    return !flag_.test_and_set(std::memory_order_acquire);
  }

  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace rdtgc::util
