// pool.h — observability adapters for util::ThreadPool.
//
// The pool lives below obs in the dependency chain (fgp_obs links
// fgp_util), so it exposes only a generic observer hook and a PoolStats
// snapshot; this header turns those into obs artifacts. Everything here
// is Host-domain by construction: which thread claims a block and how
// long a parallel_for takes in wall-clock are scheduling accidents, so
// none of it may leak into deterministic traces or metrics.
#pragma once

#include "util/thread_pool.h"

namespace fgp::obs {

class Registry;
class TraceRecorder;

/// Installs a task observer that records one host wall-clock span per
/// parallel_for on the recorder's "pool" track. No-op recording unless
/// `trace->host_enabled()`; pass nullptr to detach the observer. Install
/// before sharing the pool across threads (see ThreadPool::set_task_observer).
void attach_pool_tracing(util::ThreadPool& pool, TraceRecorder* trace);

/// Copies a PoolStats snapshot into Host-domain gauges:
///   <prefix>.parallel_for_calls / .blocks_total / .blocks_by_helpers
void record_pool_stats(const util::PoolStats& stats, Registry& metrics,
                       const std::string& prefix = "pool");

}  // namespace fgp::obs
