#include "obs/pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fgp::obs {

void attach_pool_tracing(util::ThreadPool& pool, TraceRecorder* trace) {
  if (trace == nullptr) {
    pool.set_task_observer(nullptr);
    return;
  }
  pool.set_task_observer(
      [trace](std::size_t n, double begin_s, double end_s) {
        // The pool measures against its own epoch; re-anchor the span's end
        // at the recorder's host clock so every host event shares one
        // timeline. host_span drops the event unless host recording is on.
        const double dur = std::max(0.0, end_s - begin_s);
        const double now = trace->host_now();
        trace->host_span("pool", "parallel_for n=" + std::to_string(n),
                         std::max(0.0, now - dur), now);
      });
}

void record_pool_stats(const util::PoolStats& stats, Registry& metrics,
                       const std::string& prefix) {
  metrics.set(prefix + ".parallel_for_calls",
              static_cast<double>(stats.parallel_for_calls), Domain::Host);
  metrics.set(prefix + ".blocks_total",
              static_cast<double>(stats.blocks_total), Domain::Host);
  metrics.set(prefix + ".blocks_by_helpers",
              static_cast<double>(stats.blocks_by_helpers), Domain::Host);
}

}  // namespace fgp::obs
