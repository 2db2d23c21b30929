#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fgp::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double Accumulator::mean() const {
  FGP_CHECK(n_ > 0);
  return sum_ / static_cast<double>(n_);
}

double Accumulator::min() const {
  FGP_CHECK(n_ > 0);
  return min_;
}

double Accumulator::max() const {
  FGP_CHECK(n_ > 0);
  return max_;
}

double Accumulator::stdev() const {
  FGP_CHECK(n_ > 0);
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(n_) - m * m;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double relative_error(double exact, double predicted) {
  FGP_CHECK_MSG(exact > 0.0, "relative_error requires exact > 0");
  return std::abs(exact - predicted) / exact;
}

}  // namespace fgp::util
