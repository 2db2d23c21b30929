// validate.h — structural validation of the observability report files.
//
// Shared between the fgptrace CLI and the test suite so "loads in
// Perfetto" is checked by one implementation: Chrome-trace JSON shape
// (balanced B/E per track, strictly increasing per-track timestamps,
// non-negative X durations), metrics-snapshot shape, and residual-report
// shape. Validation never throws on malformed-but-parseable documents —
// it returns the error list; only unparseable JSON surfaces as
// util::SerializationError from obs::json::parse.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace fgp::obs {

enum class ReportKind {
  Unknown,
  Trace,
  Metrics,
  Residuals,
  Slowlog,
  Drift,
};

struct ValidationResult {
  ReportKind kind = ReportKind::Unknown;
  std::vector<std::string> errors;

  bool ok() const { return kind != ReportKind::Unknown && errors.empty(); }
};

const char* to_string(ReportKind kind);

/// Dispatches on the document's "schema" field and validates the matching
/// shape. Unknown or missing schema yields kind == Unknown with an error.
ValidationResult validate_report(const json::Value& doc);

/// Parses `text` then validates. Throws util::SerializationError when the
/// text is not JSON at all.
ValidationResult validate_report_text(std::string_view text);

ValidationResult validate_trace(const json::Value& doc);
ValidationResult validate_metrics(const json::Value& doc);
ValidationResult validate_residuals(const json::Value& doc);
ValidationResult validate_slowlog(const json::Value& doc);
ValidationResult validate_drift(const json::Value& doc);

}  // namespace fgp::obs
