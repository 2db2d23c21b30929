// wallclock.h — the single sanctioned wall-clock access point in fgpred.
//
// Determinism invariant: everything outside util/ charges *virtual* time
// through the runtime's phase accounting (sim::MachineSpec and friends);
// real wall-clock readings are only legitimate where the point is to
// measure the host machine itself (service latency, trace host spans,
// benchmark harnesses). Those callers go through this stopwatch so that
// fgpcheck's wall-clock rule can forbid every direct clock use in src/
// outside src/util/.
#pragma once

#include <chrono>

namespace fgp::util {

/// Monotonic stopwatch over std::chrono::steady_clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fgp::util
