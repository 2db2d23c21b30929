// wall-clock positive fixture: real-time access in src/ outside
// src/util/, one finding per line below the includes.
#include <chrono>
#include <ctime>

double elapsed() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall = std::chrono::system_clock::now();
  const double epoch = static_cast<double>(std::time(nullptr));
  (void)wall;
  return epoch + static_cast<double>(t0.time_since_epoch().count());
}

long ticks() { return clock(); }
