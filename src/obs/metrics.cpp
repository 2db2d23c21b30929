#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.h"
#include "util/check.h"

namespace fgp::obs {

void Histogram::observe(double v) {
  // The smallest b with v <= upper_bound(b) = 10^(b-9), located by the
  // inverse (ceil(log10 v) + 9) instead of a 15-pow linear scan; the
  // one-step adjustments absorb pow/log10 disagreement exactly at the
  // decade edges (pinned by tests/test_obs.cpp). NaN and v <= 1e-9 take
  // the first branch into bucket 0, as the scan did.
  int b = 0;
  if (v > upper_bound(0)) {
    b = std::clamp(static_cast<int>(std::ceil(std::log10(v))) + 9, 0,
                   kBuckets - 1);
    while (b > 0 && v <= upper_bound(b - 1)) --b;
    while (b < kBuckets - 1 && v > upper_bound(b)) ++b;
  }
  buckets[static_cast<std::size_t>(b)] += 1;
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  count += 1;
  sum += v;
}

double Histogram::upper_bound(int i) {
  // le 1e-9, le 1e-8, ..., le 1e4, +inf.
  if (i >= kBuckets - 1) return HUGE_VAL;
  return std::pow(10.0, static_cast<double>(i - 9));
}

Registry::Metric& Registry::metric_locked(Domain domain, std::string_view name,
                                          Kind kind) {
  auto& m = domain == Domain::Deterministic ? det_ : host_;
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name), Metric{}).first;
    it->second.kind = kind;
  }
  FGP_CHECK_MSG(it->second.kind == kind,
                "metric '" << std::string(name)
                           << "' already registered with a different kind");
  return it->second;
}

void Registry::add(std::string_view name, double v, Domain domain) {
  std::lock_guard lock(mu_);
  metric_locked(domain, name, Kind::Counter).value += v;
}

void Registry::set(std::string_view name, double v, Domain domain) {
  std::lock_guard lock(mu_);
  metric_locked(domain, name, Kind::Gauge).value = v;
}

void Registry::set_max(std::string_view name, double v, Domain domain) {
  std::lock_guard lock(mu_);
  auto& m = metric_locked(domain, name, Kind::Gauge);
  if (v > m.value) m.value = v;
}

void Registry::observe(std::string_view name, double v, Domain domain) {
  std::lock_guard lock(mu_);
  metric_locked(domain, name, Kind::Hist).hist.observe(v);
}

double Registry::value(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = det_.find(name);
  return it == det_.end() ? 0.0 : it->second.value;
}

double Registry::host_value(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = host_.find(name);
  return it == host_.end() ? 0.0 : it->second.value;
}

std::string Registry::to_json(bool include_host) const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  const auto emit_domain =
      [&os](const std::map<std::string, Metric, std::less<>>& metrics) {
        os << "{";
        bool first = true;
        for (const auto& [name, m] : metrics) {
          if (!first) os << ",";
          first = false;
          os << "\n    \"" << json::escape(name) << "\": {";
          switch (m.kind) {
            case Kind::Counter:
              os << "\"kind\": \"counter\", \"value\": "
                 << json::format_number(m.value);
              break;
            case Kind::Gauge:
              os << "\"kind\": \"gauge\", \"value\": "
                 << json::format_number(m.value);
              break;
            case Kind::Hist: {
              const Histogram& h = m.hist;
              os << "\"kind\": \"histogram\", \"count\": " << h.count
                 << ", \"sum\": " << json::format_number(h.sum)
                 << ", \"min\": " << json::format_number(h.min)
                 << ", \"max\": " << json::format_number(h.max)
                 << ", \"buckets\": [";
              for (int b = 0; b < Histogram::kBuckets; ++b) {
                if (b > 0) os << ", ";
                os << h.buckets[static_cast<std::size_t>(b)];
              }
              os << "]";
              break;
            }
          }
          os << "}";
        }
        if (!first) os << "\n  ";
        os << "}";
      };

  os << "{\n";
  os << "  \"schema\": \"fgpred-metrics-v1\",\n";
  os << "  \"deterministic\": ";
  emit_domain(det_);
  if (include_host) {
    os << ",\n  \"host\": ";
    emit_domain(host_);
  }
  os << "\n}\n";
  return os.str();
}

void Registry::clear() {
  std::lock_guard lock(mu_);
  det_.clear();
  host_.clear();
}

}  // namespace fgp::obs
