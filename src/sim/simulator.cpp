#include "sim/simulator.h"

#include <cassert>

namespace bamboo::sim {

#ifndef NDEBUG
void Simulator::assert_thread_affinity() const {
  const std::thread::id self = std::this_thread::get_id();
  if (owner_thread_ == std::thread::id{}) {
    owner_thread_ = self;
    return;
  }
  assert(owner_thread_ == self &&
         "Simulator touched from a second thread; parallelize at the run "
         "level (one Simulator per thread), never inside one simulation");
}
#endif

bool Simulator::step() {
  assert_thread_affinity();
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  fire(fired);
  return true;
}

void Simulator::run_until(Time deadline) {
  assert_thread_affinity();
  while (auto fired = queue_.pop_until(deadline)) fire(*fired);
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace bamboo::sim
