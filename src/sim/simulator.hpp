// Deterministic discrete-event simulator.
//
// This is the substrate for the paper's system model (§2): an asynchronous
// message-passing system with no bound on relative speeds.  The simulator is
// single-threaded and fully deterministic: events fire in (time, insertion
// sequence) order, so a (seed, configuration) pair reproduces an execution
// bit-for-bit.  The checkpointing and garbage-collection algorithms never read
// the clock — simulated time orders events, drives workloads, and stamps the
// checkpoints each Node stores (the simulator is the sim::Clock Nodes read).
//
// The pending events live in one std::vector kept as a binary heap
// (std::push_heap/std::pop_heap over the (time, seq) order); step() moves
// the next event out of the heap before running it, so running an event
// copies no Action.  An Action whose captures fit std::function's inline
// buffer (two words, trivially copyable — sim::Network's {this, slot}
// delivery closure) is scheduled and run without touching the heap once
// the vector reached its steady-state capacity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "causality/types.hpp"
#include "sim/clock.hpp"

namespace rdtgc::sim {

/// Single-threaded discrete-event scheduler.
class Simulator : public Clock {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedule `fn` at absolute time `t` (>= now()).
  void at(SimTime t, Action fn);

  /// Schedule `fn` `delay` ticks from now.
  void after(SimTime delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Execute the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue empties or `max_events` have been processed.
  /// Returns the number of events processed by this call.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run events with time <= t (leaves later events pending); advances the
  /// clock to exactly `t` even if the queue drains first.
  void run_until(SimTime t);

  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    Action fn;
  };
  /// Heap order: the earliest (time, seq) at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;  ///< a binary heap under Later
};

}  // namespace rdtgc::sim
