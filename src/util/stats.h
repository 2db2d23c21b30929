// stats.h — small descriptive-statistics helpers used by the prediction
// framework (scaling-factor averaging, error summaries) and the benches.
#pragma once

#include <cstddef>

namespace fgp::util {

/// Streaming accumulator: count / mean / min / max / (population) stdev.
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double min() const;
  double max() const;
  double stdev() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The paper's error metric: E = |exact - predicted| / exact.
/// Precondition: exact > 0.
double relative_error(double exact, double predicted);

}  // namespace fgp::util
