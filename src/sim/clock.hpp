// Simulated time as a ckpt::Node reads it: only to stamp each checkpoint it
// stores (stored_at, which gc::TimedGcDriver reads back in the simulator).
// sim::Simulator is the Clock that advances; a fleet worker's stays at 0.
// now() is not virtual, so reading the time costs no virtual call.
#pragma once

#include "causality/types.hpp"

namespace rdtgc::sim {

class Clock {
 public:
  SimTime now() const { return now_; }

 protected:
  SimTime now_ = 0;
};

}  // namespace rdtgc::sim
