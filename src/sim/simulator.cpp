#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::sim {

void Simulator::at(SimTime t, Action fn) {
  RDTGC_EXPECTS(t >= now_);
  RDTGC_EXPECTS(fn != nullptr);
  heap_.push_back(Entry{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  // Move out before running: the action may schedule new events.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  RDTGC_ASSERT(e.time >= now_);
  now_ = e.time;
  ++processed_;
  e.fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

void Simulator::run_until(SimTime t) {
  RDTGC_EXPECTS(t >= now_);
  while (!heap_.empty() && heap_.front().time <= t) step();
  now_ = t;
}

}  // namespace rdtgc::sim
