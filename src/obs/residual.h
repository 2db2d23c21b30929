// residual.h — per-component prediction-residual reporting.
//
// The paper evaluates its model with a single scalar relative error per
// sweep point; localizing *where* a prediction diverges needs the
// component breakdown. A ResidualReport records, for every point of a
// sweep, the predicted and observed disk / network / compute_local /
// ro_comm / global_red times and exports them as canonical JSON
// (schema "fgpred-residuals-v1") for fgptrace (--validate, --summarize,
// and --diff, which compares two reports).
#pragma once

#include <string>
#include <vector>

namespace fgp::obs {

/// The five model components of one execution.
struct ComponentTimes {
  double disk = 0.0;
  double network = 0.0;
  double compute_local = 0.0;
  double ro_comm = 0.0;
  double global_red = 0.0;

  double total() const {
    return disk + network + compute_local + ro_comm + global_red;
  }
};

/// One sweep point: predicted vs observed components.
struct ResidualPoint {
  std::string label;  ///< e.g. "2-4" (data-compute) or a sweep coordinate
  ComponentTimes predicted;
  ComponentTimes observed;

  /// Signed residual per component (predicted - observed).
  ComponentTimes residual() const;
  /// |T_pred - T_exact| / T_exact over totals (the paper's E); 0 when the
  /// observed total is 0.
  double rel_error_total() const;
};

class ResidualReport {
 public:
  ResidualReport() = default;
  ResidualReport(std::string sweep, std::string model)
      : sweep_(std::move(sweep)), model_(std::move(model)) {}

  void set_sweep(std::string sweep) { sweep_ = std::move(sweep); }
  void set_model(std::string model) { model_ = std::move(model); }
  void add(ResidualPoint point) { points_.push_back(std::move(point)); }

  const std::string& sweep() const { return sweep_; }
  const std::string& model() const { return model_; }
  const std::vector<ResidualPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Canonical JSON (schema "fgpred-residuals-v1"), deterministic for
  /// identical input bits.
  std::string to_json() const;

 private:
  std::string sweep_;
  std::string model_;
  std::vector<ResidualPoint> points_;
};

}  // namespace fgp::obs
