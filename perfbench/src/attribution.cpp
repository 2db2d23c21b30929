#include "attribution.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>

#include "obs/json.h"
#include "obs/trace.h"

namespace fgp::perfbench {

namespace {

struct Layer {
  std::string name;
  int depth = 0;
};

// Nesting order; see attribution.h.
const std::vector<Layer>& layers() {
  static const std::vector<Layer> table = {
      {"bench", 0},           {"core", 1},
      {"service.batch", 2},   {"service.publish", 2},  {"service.prepare", 3},
      {"service.shard_load", 3}, {"service.evaluate", 3}, {"freeride", 3},
      {"util.pool", 4},       {"service.query", 5},    {"apps", 5},
      {"repository", 5},
  };
  return table;
}

/// Index into layers() of a host span, or nullopt for categories the table
/// does not know.
std::optional<std::size_t> layer_of(std::string_view cat,
                                    std::string_view name) {
  std::string_view layer;
  if (cat == "bench" || cat == "core" || cat == "apps" ||
      cat == "repository" || cat == "freeride") {
    layer = cat;
  } else if (cat == "runtime") {
    layer = "freeride";
  } else if (cat == "store") {
    layer = "repository";
  } else if (cat == "pool") {
    layer = "util.pool";
  } else if (cat == "service/query") {
    layer = "service.query";
  } else if (cat == "service") {
    if (name == "query_batch") layer = "service.batch";
    else if (name == "publish") layer = "service.publish";
    else if (name == "prepare") layer = "service.prepare";
    else if (name == "shard-load") layer = "service.shard_load";
    else if (name == "evaluate") layer = "service.evaluate";
  }
  const auto& t = layers();
  for (std::size_t i = 0; i < t.size(); ++i)
    if (t[i].name == layer) return i;
  return std::nullopt;
}

struct Span {
  std::size_t layer = 0;
  long long begin_ns = 0;
  long long end_ns = 0;
  bool is_op = false;
};

long long us_to_ns(double us) { return std::llround(us * 1e3); }

/// Host-domain "X" events of the export. The exporter writes one event per
/// line, so each line parses on its own and the document is never held as
/// one tree.
std::vector<Span> host_spans(const std::string& trace_json) {
  std::vector<Span> spans;
  std::istringstream lines(trace_json);
  std::string line;
  const std::string host_pid = "\"pid\": " + std::to_string(obs::kHostPid);
  while (std::getline(lines, line)) {
    const auto first = line.find('{');
    if (first == std::string::npos || line.find("\"ph\": \"X\"") == std::string::npos ||
        line.find(host_pid) == std::string::npos)
      continue;
    std::string_view text(line);
    text.remove_prefix(first);
    while (!text.empty() && (text.back() == ',' || text.back() == ' '))
      text.remove_suffix(1);
    const obs::json::Value ev = obs::json::parse(text);
    const auto* cat = ev.find("cat");
    const auto* name = ev.find("name");
    const auto* ts = ev.find("ts");
    const auto* dur = ev.find("dur");
    if (cat == nullptr || name == nullptr || ts == nullptr || dur == nullptr)
      continue;
    const auto layer = layer_of(cat->as_string(), name->as_string());
    if (!layer) continue;
    Span s;
    s.layer = *layer;
    s.begin_ns = us_to_ns(ts->as_number());
    s.end_ns = s.begin_ns + us_to_ns(dur->as_number());
    s.is_op = cat->as_string() == "bench" && name->as_string() == "op";
    spans.push_back(s);
  }
  return spans;
}

OpAttribution attribute(const Span& op, const std::vector<Span>& spans) {
  struct Edge {
    long long t;
    std::size_t layer;
    int delta;
  };
  std::vector<Edge> edges;
  for (const Span& s : spans) {
    const long long b = std::max(s.begin_ns, op.begin_ns);
    const long long e = std::min(s.end_ns, op.end_ns);
    if (e <= b) continue;
    edges.push_back({b, s.layer, +1});
    edges.push_back({e, s.layer, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  const auto& table = layers();
  std::vector<int> active(table.size(), 0);
  std::vector<double> self_ns(table.size(), 0.0);
  long long prev = op.begin_ns;
  for (const Edge& e : edges) {
    if (e.t > prev) {
      int depth = -1;
      int count = 0;
      for (std::size_t l = 0; l < table.size(); ++l) {
        if (active[l] == 0) continue;
        if (table[l].depth > depth) {
          depth = table[l].depth;
          count = 0;
        }
        if (table[l].depth == depth) count += active[l];
      }
      const double dt = static_cast<double>(e.t - prev);
      for (std::size_t l = 0; l < table.size(); ++l)
        if (active[l] > 0 && table[l].depth == depth)
          self_ns[l] += dt * active[l] / count;
      prev = e.t;
    }
    active[e.layer] += e.delta;
  }

  OpAttribution out;
  out.wall_s = static_cast<double>(op.end_ns - op.begin_ns) * 1e-9;
  for (std::size_t l = 0; l < table.size(); ++l)
    if (self_ns[l] > 0.0) out.self_s[table[l].name] = self_ns[l] * 1e-9;
  return out;
}

}  // namespace

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& l : layers()) n.push_back(l.name);
    return n;
  }();
  return names;
}

std::vector<OpAttribution> attribute_ops(const std::string& trace_json) {
  const std::vector<Span> spans = host_spans(trace_json);
  std::vector<OpAttribution> out;
  for (const Span& s : spans)
    if (s.is_op) out.push_back(attribute(s, spans));
  return out;
}

}  // namespace fgp::perfbench
