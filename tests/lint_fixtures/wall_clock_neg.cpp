// wall-clock negative fixture: util::Stopwatch and near misses.
#include <chrono>

#include "util/wallclock.h"

struct Phase {
  double time = 0.0;  // a field named time is not a call
};

double compute_time(const Phase& p) { return p.time; }

double measured() {
  const fgp::util::Stopwatch sw;  // steady_clock in a comment is inert
  const char* label = "system_clock() in a string is inert";
  return sw.seconds() + std::chrono::duration<double>(1.0).count() +
         compute_time(Phase{}) + (label != nullptr ? 0.0 : 1.0);
}
