#include "obs/validate.h"

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"

namespace fgp::obs {

namespace {

void err(ValidationResult& r, const std::string& what) {
  if (r.errors.size() < 64) r.errors.push_back(what);
}

bool finite_number(const json::Value* v) {
  return v != nullptr && v->is_number() && std::isfinite(v->as_number());
}

void check_trace_event(ValidationResult& r, const json::Value& ev,
                       std::size_t index) {
  const std::string at = "traceEvents[" + std::to_string(index) + "]";
  if (!ev.is_object()) {
    err(r, at + ": event is not an object");
    return;
  }
  const json::Value* ph = ev.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->as_string().size() != 1) {
    err(r, at + ": missing or malformed \"ph\"");
    return;
  }
  const char kind = ph->as_string()[0];
  if (kind != 'M' && kind != 'B' && kind != 'E' && kind != 'X' &&
      kind != 'C') {
    err(r, at + ": unsupported phase '" + ph->as_string() + "'");
    return;
  }
  if (!finite_number(ev.find("pid")) || !finite_number(ev.find("tid"))) {
    err(r, at + ": missing pid/tid");
    return;
  }
  if (kind == 'M') return;  // metadata carries no timestamp contract
  const json::Value* ts = ev.find("ts");
  if (!finite_number(ts) || ts->as_number() < 0.0) {
    err(r, at + ": missing or negative \"ts\"");
    return;
  }
  if (kind == 'X') {
    const json::Value* dur = ev.find("dur");
    if (!finite_number(dur) || dur->as_number() < 0.0)
      err(r, at + ": X event without non-negative \"dur\"");
  }
  if (kind == 'B' || kind == 'X' || kind == 'C') {
    const json::Value* name = ev.find("name");
    if (name == nullptr || !name->is_string())
      err(r, at + ": " + kind + std::string(" event without a name"));
  }
  if (kind == 'C') {
    // Counter samples carry their series values in args; every value must
    // be a finite number or the viewer's running series breaks.
    const json::Value* args = ev.find("args");
    if (args == nullptr || !args->is_object() || args->as_object().empty()) {
      err(r, at + ": C event without a non-empty \"args\" object");
    } else {
      for (const auto& [key, value] : args->as_object()) {
        if (!value.is_number() || !std::isfinite(value.as_number()))
          err(r, at + ": C event series \"" + key + "\" is not finite");
      }
    }
  }
}

}  // namespace

const char* to_string(ReportKind kind) {
  switch (kind) {
    case ReportKind::Trace: return "trace";
    case ReportKind::Metrics: return "metrics";
    case ReportKind::Residuals: return "residuals";
    case ReportKind::Slowlog: return "slowlog";
    case ReportKind::Drift: return "drift";
    case ReportKind::Unknown: break;
  }
  return "unknown";
}

ValidationResult validate_trace(const json::Value& doc) {
  ValidationResult r;
  r.kind = ReportKind::Trace;
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    err(r, "document has no \"traceEvents\" array");
    return r;
  }

  // Per-event shape first.
  const auto& list = events->as_array();
  for (std::size_t i = 0; i < list.size(); ++i)
    check_trace_event(r, list[i], i);
  if (!r.errors.empty()) return r;

  // Per-track contracts: strictly increasing timestamps over non-metadata
  // events, and balanced B/E with stack discipline.
  struct TrackState {
    double last_ts = -1.0;
    long long open = 0;
  };
  std::map<std::pair<long long, long long>, TrackState> tracks;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const json::Value& ev = list[i];
    const char kind = ev.find("ph")->as_string()[0];
    if (kind == 'M') continue;
    const auto key = std::make_pair(
        static_cast<long long>(ev.find("pid")->as_number()),
        static_cast<long long>(ev.find("tid")->as_number()));
    TrackState& t = tracks[key];
    const double ts = ev.find("ts")->as_number();
    if (ts <= t.last_ts)
      err(r, "traceEvents[" + std::to_string(i) +
                 "]: per-track timestamps not strictly increasing (pid " +
                 std::to_string(key.first) + " tid " +
                 std::to_string(key.second) + ")");
    t.last_ts = ts;
    if (kind == 'B') {
      t.open += 1;
    } else if (kind == 'E') {
      if (t.open == 0)
        err(r, "traceEvents[" + std::to_string(i) +
                   "]: E event without a matching open B");
      else
        t.open -= 1;
    }
  }
  for (const auto& [key, t] : tracks)
    if (t.open != 0)
      err(r, "track pid " + std::to_string(key.first) + " tid " +
                 std::to_string(key.second) + " ends with " +
                 std::to_string(t.open) + " unbalanced B event(s)");
  return r;
}

ValidationResult validate_metrics(const json::Value& doc) {
  ValidationResult r;
  r.kind = ReportKind::Metrics;
  const auto check_domain = [&r](const json::Value* domain,
                                 const std::string& label) {
    if (domain == nullptr) return;  // "host" may be stripped
    if (!domain->is_object()) {
      err(r, "\"" + label + "\" is not an object");
      return;
    }
    for (const auto& [name, m] : domain->as_object()) {
      const std::string at = label + "." + name;
      if (!m.is_object()) {
        err(r, at + ": metric is not an object");
        continue;
      }
      const json::Value* kind = m.find("kind");
      if (kind == nullptr || !kind->is_string()) {
        err(r, at + ": missing \"kind\"");
        continue;
      }
      const std::string& k = kind->as_string();
      if (k == "counter" || k == "gauge") {
        if (!finite_number(m.find("value")))
          err(r, at + ": " + k + " without a finite \"value\"");
      } else if (k == "histogram") {
        const json::Value* count = m.find("count");
        const json::Value* buckets = m.find("buckets");
        if (!finite_number(count) || !finite_number(m.find("sum")) ||
            !finite_number(m.find("min")) || !finite_number(m.find("max"))) {
          err(r, at + ": histogram missing count/sum/min/max");
          continue;
        }
        if (buckets == nullptr || !buckets->is_array() ||
            buckets->as_array().size() !=
                static_cast<std::size_t>(Histogram::kBuckets)) {
          err(r, at + ": histogram without its " +
                     std::to_string(Histogram::kBuckets) + " buckets");
          continue;
        }
        double total = 0.0;
        bool numeric = true;
        for (const auto& b : buckets->as_array()) {
          if (!b.is_number() || b.as_number() < 0.0) {
            numeric = false;
            break;
          }
          total += b.as_number();
        }
        if (!numeric)
          err(r, at + ": histogram bucket is not a non-negative number");
        else if (total != count->as_number())
          err(r, at + ": histogram buckets do not sum to \"count\"");
      } else {
        err(r, at + ": unknown metric kind '" + k + "'");
      }
    }
  };
  if (doc.find("deterministic") == nullptr)
    err(r, "document has no \"deterministic\" section");
  check_domain(doc.find("deterministic"), "deterministic");
  check_domain(doc.find("host"), "host");
  return r;
}

ValidationResult validate_residuals(const json::Value& doc) {
  ValidationResult r;
  r.kind = ReportKind::Residuals;
  const json::Value* points = doc.find("points");
  if (points == nullptr || !points->is_array()) {
    err(r, "document has no \"points\" array");
    return r;
  }
  static const char* kComponents[] = {"disk", "network", "compute_local",
                                      "ro_comm", "global_red"};
  const auto& list = points->as_array();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::string at = "points[" + std::to_string(i) + "]";
    const json::Value& p = list[i];
    if (!p.is_object()) {
      err(r, at + ": point is not an object");
      continue;
    }
    const json::Value* label = p.find("label");
    if (label == nullptr || !label->is_string())
      err(r, at + ": missing \"label\"");
    for (const char* section : {"predicted", "observed", "residual"}) {
      const json::Value* c = p.find(section);
      if (c == nullptr || !c->is_object()) {
        err(r, at + ": missing \"" + std::string(section) + "\" components");
        continue;
      }
      for (const char* comp : kComponents)
        if (!finite_number(c->find(comp)))
          err(r, at + "." + section + ": component \"" + comp +
                     "\" missing or not finite");
    }
    if (!finite_number(p.find("rel_error_total")))
      err(r, at + ": missing \"rel_error_total\"");
  }
  return r;
}

ValidationResult validate_slowlog(const json::Value& doc) {
  ValidationResult r;
  r.kind = ReportKind::Slowlog;
  const json::Value* threshold = doc.find("threshold_s");
  if (!finite_number(threshold) || threshold->as_number() < 0.0)
    err(r, "missing or negative \"threshold_s\"");
  const json::Value* capacity = doc.find("capacity");
  if (!finite_number(capacity) || capacity->as_number() < 1.0)
    err(r, "missing \"capacity\" (must be >= 1)");
  const json::Value* seen = doc.find("seen");
  if (!finite_number(seen) || seen->as_number() < 0.0)
    err(r, "missing or negative \"seen\"");
  const json::Value* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    err(r, "document has no \"entries\" array");
    return r;
  }
  const auto& list = entries->as_array();
  if (finite_number(capacity) &&
      static_cast<double>(list.size()) > capacity->as_number())
    err(r, "more entries than \"capacity\"");
  if (finite_number(seen) && static_cast<double>(list.size()) >
                                 seen->as_number())
    err(r, "more entries than \"seen\" threshold crossings");
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::string at = "entries[" + std::to_string(i) + "]";
    const json::Value& e = list[i];
    if (!e.is_object()) {
      err(r, at + ": entry is not an object");
      continue;
    }
    for (const char* field : {"app", "dataset", "chosen", "error"}) {
      const json::Value* v = e.find(field);
      if (v == nullptr || !v->is_string())
        err(r, at + ": missing string \"" + std::string(field) + "\"");
    }
    const json::Value* latency = e.find("latency_s");
    if (!finite_number(latency) || latency->as_number() < 0.0)
      err(r, at + ": missing or negative \"latency_s\"");
    else if (finite_number(threshold) &&
             latency->as_number() <= threshold->as_number())
      err(r, at + ": \"latency_s\" does not exceed \"threshold_s\"");
    for (const char* field : {"candidates_considered", "topology_version"}) {
      const json::Value* v = e.find(field);
      if (!finite_number(v) || v->as_number() < 0.0)
        err(r, at + ": missing or negative \"" + std::string(field) + "\"");
    }
  }
  return r;
}

ValidationResult validate_drift(const json::Value& doc) {
  ValidationResult r;
  r.kind = ReportKind::Drift;
  const json::Value* alpha = doc.find("alpha");
  if (!finite_number(alpha) || !(alpha->as_number() > 0.0) ||
      alpha->as_number() > 1.0)
    err(r, "missing \"alpha\" (must be in (0, 1])");
  const json::Value* window = doc.find("window");
  if (!finite_number(window) || window->as_number() < 1.0)
    err(r, "missing \"window\" (must be >= 1)");
  const json::Value* band = doc.find("band");
  if (!finite_number(band) || band->as_number() < 0.0)
    err(r, "missing or negative \"band\"");
  const json::Value* points = doc.find("points");
  if (!finite_number(points) || points->as_number() < 0.0)
    err(r, "missing or negative \"points\"");
  const json::Value* drifting = doc.find("drifting");
  if (drifting == nullptr || !drifting->is_bool())
    err(r, "missing boolean \"drifting\"");
  const json::Value* components = doc.find("components");
  if (components == nullptr || !components->is_object()) {
    err(r, "document has no \"components\" object");
    return r;
  }
  static const char* kComponents[] = {"disk", "network", "compute_local",
                                      "ro_comm", "global_red"};
  bool any_component_drifting = false;
  for (const char* name : kComponents) {
    const std::string at = "components." + std::string(name);
    const json::Value* c = components->find(name);
    if (c == nullptr || !c->is_object()) {
      err(r, at + ": missing component object");
      continue;
    }
    for (const char* field : {"ewma", "window_mean", "window_var"})
      if (!finite_number(c->find(field)))
        err(r, at + ": \"" + std::string(field) + "\" missing or not finite");
    const json::Value* var = c->find("window_var");
    if (finite_number(var) && var->as_number() < 0.0)
      err(r, at + ": negative \"window_var\"");
    const json::Value* d = c->find("drifting");
    if (d == nullptr || !d->is_bool())
      err(r, at + ": missing boolean \"drifting\"");
    else if (d->as_bool())
      any_component_drifting = true;
  }
  if (drifting != nullptr && drifting->is_bool() &&
      drifting->as_bool() != any_component_drifting)
    err(r, "top-level \"drifting\" disagrees with the component flags");
  return r;
}

ValidationResult validate_report(const json::Value& doc) {
  const json::Value* schema = doc.is_object() ? doc.find("schema") : nullptr;
  if (schema == nullptr || !schema->is_string()) {
    ValidationResult r;
    err(r, "document has no \"schema\" string");
    return r;
  }
  const std::string& s = schema->as_string();
  if (s == "fgpred-trace-v1") return validate_trace(doc);
  if (s == "fgpred-metrics-v1") return validate_metrics(doc);
  if (s == "fgpred-residuals-v1") return validate_residuals(doc);
  if (s == "fgpred-slowlog-v1") return validate_slowlog(doc);
  if (s == "fgpred-drift-v1") return validate_drift(doc);
  ValidationResult r;
  err(r, "unknown schema '" + s + "'");
  return r;
}

ValidationResult validate_report_text(std::string_view text) {
  return validate_report(json::parse(text));
}

}  // namespace fgp::obs
