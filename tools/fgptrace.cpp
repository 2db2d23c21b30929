// fgptrace — inspect the observability layer's report files.
//
//   fgptrace --validate FILE...        structural validation (exit 1 on any
//                                      invalid file); the same checks CI
//                                      runs on recorded traces
//   fgptrace --summarize FILE          human summary of a trace, metrics
//                                      snapshot or residual report
//   fgptrace --diff A B                byte-compare two reports after
//                                      stripping host-domain content and
//                                      normalizing (exit 1 on difference)
//
// All three modes dispatch on the file's "schema" field
// (fgpred-trace-v1 / fgpred-metrics-v1 / fgpred-residuals-v1 /
// fgpred-slowlog-v1 / fgpred-drift-v1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "util/check.h"

namespace {

using fgp::obs::ReportKind;
using fgp::obs::ValidationResult;
namespace json = fgp::obs::json;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good())
    throw fgp::util::Error("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

int cmd_validate(const std::vector<std::string>& files) {
  int failures = 0;
  for (const std::string& path : files) {
    ValidationResult r;
    try {
      r = fgp::obs::validate_report_text(read_file(path));
    } catch (const fgp::util::Error& e) {
      std::cout << path << ": FAIL (unreadable: " << e.what() << ")\n";
      ++failures;
      continue;
    }
    if (r.ok()) {
      std::cout << path << ": OK (" << fgp::obs::to_string(r.kind) << ")\n";
    } else {
      std::cout << path << ": FAIL (" << fgp::obs::to_string(r.kind) << ")\n";
      for (const std::string& e : r.errors) std::cout << "  - " << e << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

void summarize_trace(const json::Value& doc) {
  const auto& events = doc.find("traceEvents")->as_array();
  std::size_t spans = 0, completes = 0, meta = 0;
  std::map<std::string, std::size_t> per_process;
  std::map<long long, std::string> process_names;
  for (const json::Value& ev : events) {
    const std::string& ph = ev.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      const json::Value* name = ev.find("name");
      if (name != nullptr && name->as_string() == "process_name")
        process_names[static_cast<long long>(ev.find("pid")->as_number())] =
            ev.find("args")->find("name")->as_string();
      continue;
    }
    if (ph == "B") ++spans;
    if (ph == "X") ++completes;
    const long long pid = static_cast<long long>(ev.find("pid")->as_number());
    const auto it = process_names.find(pid);
    ++per_process[it != process_names.end() ? it->second
                                            : std::to_string(pid)];
  }
  std::cout << "trace: " << events.size() << " events (" << spans
            << " spans, " << completes << " complete, " << meta
            << " metadata)\n";
  for (const auto& [name, count] : per_process)
    std::cout << "  " << name << ": " << count << " events\n";

  // Service traces: summarize the per-query spans ("service/query" X
  // events) and check they nest inside the batch-level "service" spans.
  std::size_t queries = 0, outside = 0;
  double slowest_us = -1.0;
  std::string slowest_name;
  double batch_begin = 0.0, batch_end = 0.0;
  bool have_batch = false;
  for (const json::Value& ev : events) {
    const json::Value* cat = ev.find("cat");
    if (cat == nullptr || ev.find("ph")->as_string() != "X") continue;
    if (cat->as_string() != "service") continue;
    const double b = ev.find("ts")->as_number();
    const double e = b + ev.find("dur")->as_number();
    if (!have_batch || b < batch_begin) batch_begin = b;
    if (!have_batch || e > batch_end) batch_end = e;
    have_batch = true;
  }
  for (const json::Value& ev : events) {
    const json::Value* cat = ev.find("cat");
    if (cat == nullptr || cat->as_string() != "service/query") continue;
    ++queries;
    const double dur = ev.find("dur")->as_number();
    if (dur > slowest_us) {
      slowest_us = dur;
      slowest_name = ev.find("name")->as_string();
    }
    // 1 µs tolerance absorbs the exporter's strict-monotonicity bumps.
    const double b = ev.find("ts")->as_number();
    if (have_batch && (b < batch_begin - 1.0 || b + dur > batch_end + 1.0))
      ++outside;
  }
  if (queries > 0) {
    std::printf("  service queries: %zu spans, slowest %s at %.3f us\n",
                queries, slowest_name.c_str(), slowest_us);
    if (outside == 0)
      std::cout << "  service query nesting: ok (all inside batch spans)\n";
    else
      std::cout << "  service query nesting: " << outside
                << " span(s) outside the batch spans\n";
  }
}

void summarize_slowlog(const json::Value& doc) {
  const auto& entries = doc.find("entries")->as_array();
  std::printf("slowlog: threshold=%gs seen=%g kept=%zu (capacity %g)\n",
              doc.find("threshold_s")->as_number(),
              doc.find("seen")->as_number(), entries.size(),
              doc.find("capacity")->as_number());
  double slowest = -1.0;
  const json::Value* slowest_entry = nullptr;
  for (const json::Value& e : entries) {
    const double latency = e.find("latency_s")->as_number();
    if (latency > slowest) {
      slowest = latency;
      slowest_entry = &e;
    }
  }
  if (slowest_entry != nullptr) {
    const json::Value& e = *slowest_entry;
    const std::string& error = e.find("error")->as_string();
    const std::string outcome =
        error.empty() ? "chose " + e.find("chosen")->as_string() : error;
    std::printf("  slowest: %s:%s at %.6fs (%g candidates, %s)\n",
                e.find("app")->as_string().c_str(),
                e.find("dataset")->as_string().c_str(), slowest,
                e.find("candidates_considered")->as_number(),
                outcome.c_str());
  }
}

void summarize_drift(const json::Value& doc) {
  std::printf("drift: %g points, alpha=%g window=%g band=%g\n",
              doc.find("points")->as_number(), doc.find("alpha")->as_number(),
              doc.find("window")->as_number(), doc.find("band")->as_number());
  for (const auto& [name, c] : doc.find("components")->as_object())
    std::printf("  %-14s ewma=%+.4f mean=%+.4f var=%.6f%s\n", name.c_str(),
                c.find("ewma")->as_number(),
                c.find("window_mean")->as_number(),
                c.find("window_var")->as_number(),
                c.find("drifting")->as_bool() ? "  DRIFTING" : "");
  std::cout << (doc.find("drifting")->as_bool()
                    ? "  verdict: model is drifting\n"
                    : "  verdict: steady\n");
}

void summarize_metrics(const json::Value& doc) {
  const auto print_domain = [](const json::Value* domain,
                               const char* label) {
    if (domain == nullptr) return;
    std::cout << label << ":\n";
    for (const auto& [name, m] : domain->as_object()) {
      const std::string& kind = m.find("kind")->as_string();
      if (kind == "histogram") {
        std::cout << "  " << name << ": count="
                  << json::format_number(m.find("count")->as_number())
                  << " sum=" << json::format_number(m.find("sum")->as_number())
                  << " max=" << json::format_number(m.find("max")->as_number())
                  << "\n";
      } else {
        std::cout << "  " << name << ": "
                  << json::format_number(m.find("value")->as_number()) << "\n";
      }
    }
  };
  print_domain(doc.find("deterministic"), "deterministic");
  print_domain(doc.find("host"), "host");
}

void summarize_residuals(const json::Value& doc) {
  const json::Value* sweep = doc.find("sweep");
  const json::Value* model = doc.find("model");
  std::cout << "residuals: sweep=" << (sweep ? sweep->as_string() : "?")
            << " model=" << (model ? model->as_string() : "?") << "\n";
  double worst = 0.0;
  std::string worst_label;
  const auto& points = doc.find("points")->as_array();
  for (const json::Value& p : points) {
    const double rel = p.find("rel_error_total")->as_number();
    const json::Value* obs = p.find("observed");
    const json::Value* pred = p.find("predicted");
    double t_obs = 0.0, t_pred = 0.0;
    for (const char* c :
         {"disk", "network", "compute_local", "ro_comm", "global_red"}) {
      t_obs += obs->find(c)->as_number();
      t_pred += pred->find(c)->as_number();
    }
    std::printf("  %-14s observed=%10.4fs predicted=%10.4fs rel_err=%6.2f%%\n",
                p.find("label")->as_string().c_str(), t_obs, t_pred,
                rel * 100.0);
    if (rel > worst) {
      worst = rel;
      worst_label = p.find("label")->as_string();
    }
  }
  if (!points.empty())
    std::printf("  worst: %s at %.2f%%\n", worst_label.c_str(),
                worst * 100.0);
}

int cmd_summarize(const std::string& path) {
  const json::Value doc = json::parse(read_file(path));
  const ValidationResult r = fgp::obs::validate_report(doc);
  if (!r.ok()) {
    std::cout << path << " is not a valid report; run --validate\n";
    return 1;
  }
  switch (r.kind) {
    case ReportKind::Trace: summarize_trace(doc); break;
    case ReportKind::Metrics: summarize_metrics(doc); break;
    case ReportKind::Residuals: summarize_residuals(doc); break;
    case ReportKind::Slowlog: summarize_slowlog(doc); break;
    case ReportKind::Drift: summarize_drift(doc); break;
    case ReportKind::Unknown: return 1;
  }
  return 0;
}

/// Strips host-domain content so --diff compares only the deterministic
/// part: trace events on the host pid (and their metadata row), and the
/// metrics "host" section.
json::Value strip_host(const json::Value& doc) {
  std::vector<std::pair<std::string, json::Value>> members;
  for (const auto& [key, v] : doc.as_object()) {
    if (key == "host") continue;
    if (key == "traceEvents" && v.is_array()) {
      std::vector<json::Value> kept;
      for (const json::Value& ev : v.as_array()) {
        const json::Value* pid = ev.find("pid");
        if (pid != nullptr &&
            static_cast<int>(pid->as_number()) == fgp::obs::kHostPid)
          continue;
        kept.push_back(ev);
      }
      members.emplace_back(key, json::Value::make_array(std::move(kept)));
      continue;
    }
    members.emplace_back(key, v);
  }
  return json::Value::make_object(std::move(members));
}

int cmd_diff(const std::string& a, const std::string& b) {
  const json::Value da = json::parse(read_file(a));
  const json::Value db = json::parse(read_file(b));
  const std::string na = json::dump(strip_host(da));
  const std::string nb = json::dump(strip_host(db));
  if (na == nb) {
    std::cout << "identical (host-domain content stripped)\n";
    return 0;
  }
  // Point at the first divergence to make regressions debuggable.
  const std::size_t limit = std::min(na.size(), nb.size());
  std::size_t i = 0;
  while (i < limit && na[i] == nb[i]) ++i;
  const auto context = [i](const std::string& s) {
    const std::size_t from = i < 40 ? 0 : i - 40;
    return s.substr(from, 80);
  };
  std::cout << "DIFFER at normalized byte " << i << "\n";
  std::cout << "  " << a << ": ..." << context(na) << "...\n";
  std::cout << "  " << b << ": ..." << context(nb) << "...\n";
  return 1;
}

int usage() {
  std::cout << "usage: fgptrace --validate FILE...\n"
               "       fgptrace --summarize FILE\n"
               "       fgptrace --diff A B\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() >= 2 && args[0] == "--validate")
      return cmd_validate({args.begin() + 1, args.end()});
    if (args.size() == 2 && args[0] == "--summarize")
      return cmd_summarize(args[1]);
    if (args.size() == 3 && args[0] == "--diff")
      return cmd_diff(args[1], args[2]);
  } catch (const fgp::util::Error& e) {
    std::cout << "fgptrace: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
