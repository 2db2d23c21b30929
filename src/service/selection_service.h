// selection_service.h — prediction-as-a-service: the batched selection
// engine.
//
// The paper's driver — "choose a replica and computing configuration pair
// where the data processing can be performed with the minimum cost" — as
// a long-lived query engine, and the repository's one ranking: the
// benches, the CLI and the examples query it too (serially, over a
// one-shard catalog). A SelectionService owns a ProfileCache over a
// ShardedCatalog and answers vectors of SelectionQuery concurrently over
// a borrowed work-stealing util::ThreadPool.
//
// Batch discipline (DESIGN.md §16):
//
//   1. A *serial* prepare phase, on the calling thread, captures one
//      topology snapshot for the whole batch, resolves each distinct app
//      once through the cache, and loads each touched replica shard once.
//      All deterministic counters (service.queries, cache hits/misses,
//      shard fan-out) are recorded here, in query order.
//   2. A *parallel* evaluate phase ranks each query's candidates into an
//      indexed result slot via pool->parallel_for. Every input is an
//      immutable snapshot captured in phase 1, and ties in predicted
//      total time break on the candidate's identity, so the results —
//      like a SweepRunner grid — are bit-identical serial vs any pool
//      size (pinned by tests/test_service.cpp).
//
// Writers may publish catalog updates at any time; an in-flight batch
// keeps ranking against the snapshots it captured.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "service/profile_cache.h"
#include "service/sharded_catalog.h"
#include "util/thread_pool.h"

namespace fgp::obs {
class HdrHistogram;
class Registry;
class SlowQueryLog;
class TraceRecorder;
}  // namespace fgp::obs

namespace fgp::service {

/// One costed candidate: the (replica, configuration) pair and its
/// predicted execution time.
struct RankedCandidate {
  grid::Candidate candidate;
  core::PredictedTime predicted;
  bool used_hetero_scaling = false;
};

struct SelectionQuery {
  std::string app;
  std::string dataset;
  double dataset_bytes = 0.0;
  /// How many ranked candidates to return (cheapest first).
  int top_k = 1;
};

struct SelectionResult {
  /// Up to top_k candidates, cheapest predicted total first.
  std::vector<RankedCandidate> ranked;
  /// Candidates enumerated for the query. Compute sites whose predictor
  /// cannot predict are skipped whole, so their candidates are not
  /// counted; unreachable pairs (no WAN link) are likewise excluded.
  std::size_t candidates_considered = 0;
  /// Empty on success. A bad query (unknown app, no replicas, invalid
  /// bytes) fails alone; it never throws the batch away.
  std::string error;

  bool ok() const { return error.empty(); }
  const RankedCandidate& best() const;
};

/// Optional service-side observers, all borrowed and all
/// null-pointer-cheap: an untraced batch pays one pointer test per
/// observer. Everything they receive is wall-clock (Host-domain) data,
/// recorded from per-query indexed slots during the parallel evaluate
/// phase and folded *in query order* at batch end (DESIGN.md §17), so
/// attaching them never perturbs rankings or deterministic metrics.
struct ServiceObservers {
  /// Receives batch-level prepare/shard-load/evaluate spans and one
  /// "service/query" span per query. Spans are only recorded when the
  /// recorder has host recording enabled.
  obs::TraceRecorder* trace = nullptr;
  /// Receives one entry per query over the log's latency threshold.
  obs::SlowQueryLog* slowlog = nullptr;
  /// Receives every query's latency. The service serializes its merges
  /// internally; while attached, the histogram must not be written by
  /// anyone else concurrently with query_batch.
  obs::HdrHistogram* latency = nullptr;
};

class SelectionService {
 public:
  /// `catalog` must outlive the service. A non-null `pool` is borrowed
  /// for query_batch's evaluate phase (null = serial, the reference mode
  /// for determinism tests); `metrics` (optional) receives the service
  /// counters and the host-domain per-batch latency histogram.
  explicit SelectionService(const ShardedCatalog* catalog,
                            util::ThreadPool* pool = nullptr,
                            obs::Registry* metrics = nullptr);

  /// Registers an app the service can answer queries for (see
  /// ProfileCache::register_app).
  void register_app(core::Profile profile, core::PredictorOptions options,
                    std::map<std::string, core::ScalingFactors> scalers = {});

  /// Answers every query, results in query order (indexed slots).
  std::vector<SelectionResult> query_batch(
      std::span<const SelectionQuery> queries) const;

  /// Convenience single-query form.
  SelectionResult query(const SelectionQuery& q) const;

  const ShardedCatalog& catalog() const { return *catalog_; }

  /// Attaches (or detaches, with default-constructed observers) the
  /// service observers. Not synchronized with in-flight batches — wire
  /// observers up before serving traffic.
  void set_observers(const ServiceObservers& observers) {
    observers_ = observers;
  }

 private:
  const ShardedCatalog* catalog_;
  util::ThreadPool* pool_;
  obs::Registry* metrics_;
  ServiceObservers observers_;
  /// Serializes batch-end merges into observers_.latency when batches
  /// run concurrently (cold path: once per batch).
  mutable std::mutex latency_mu_;
  mutable ProfileCache cache_;
};

}  // namespace fgp::service
