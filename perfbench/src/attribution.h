// attribution.h — per-layer self time from a traced run's host spans.
//
// Every host span in the fgpred-trace-v1 export belongs to a layer by its
// category (and, for the service's batch phases, its name). Layers nest in
// a fixed order, outermost first:
//
//   bench < core < service.batch, service.publish
//         < service.prepare, service.shard_load, service.evaluate, freeride
//         < util.pool < service.query, apps, repository
//
// A layer's self time is the part of its spans that no inner layer's span
// covers: each instant of an operation goes to the innermost layer active
// anywhere in the process at that instant, split by span count when
// several layers of that depth run at once (kernels on three threads, a
// fetch on a fourth). The self times of one operation therefore sum to its
// wall time; whatever remains with "bench" is time no layer span covered.
// Spans of categories not in the table are ignored.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fgp::perfbench {

/// Self seconds per layer of one operation ("bench"/"op" span).
struct OpAttribution {
  double wall_s = 0.0;
  std::map<std::string, double> self_s;
};

/// Layer names in nesting order (the keys OpAttribution may hold).
const std::vector<std::string>& layer_names();

/// Attributes every operation span in `trace_json` (an fgpred-trace-v1
/// export with host spans). Throws util::SerializationError on an event
/// line that is not JSON.
std::vector<OpAttribution> attribute_ops(const std::string& trace_json);

}  // namespace fgp::perfbench
