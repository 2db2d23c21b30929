#include "service/selection_service.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/wallclock.h"

namespace fgp::service {

namespace {

/// Everything one query needs for its (pure) evaluate phase. The batch
/// holds the CompiledApp and the shard snapshot both pointers name until
/// every query is answered.
struct PreparedQuery {
  const SelectionQuery* query = nullptr;
  const CompiledApp* compiled = nullptr;
  const ReplicaShard* shard = nullptr;
  std::size_t shard_index = 0;  ///< valid when error is empty
  std::string error;  ///< non-empty: fail without evaluating
};

/// One candidate, costed but not yet materialized as a RankedCandidate.
/// Both pointers outlive evaluate(): `replica` points into
/// PreparedQuery::shard and `wan` into CompiledApp::topology.
struct Costed {
  core::PredictedTime predicted;
  double total = 0.0;
  const grid::Replica* replica = nullptr;
  std::size_t site = 0;  ///< index into Topology::compute_sites
  int nodes = 0;
  const sim::WanSpec* wan = nullptr;
};

/// Ranks one prepared query against its captured snapshots. Pure: touches
/// nothing but the snapshots, so concurrent evaluation is free of shared
/// state.
SelectionResult evaluate(const PreparedQuery& p) {
  SelectionResult out;
  if (!p.error.empty()) {
    out.error = p.error;
    return out;
  }
  const SelectionQuery& q = *p.query;
  const CompiledApp& compiled = *p.compiled;
  const Topology& topo = *compiled.topology;
  const auto replicas = p.shard->replicas_of(q.dataset);
  if (replicas.empty()) {
    out.error = "no replica of dataset '" + q.dataset + "'";
    return out;
  }

  const std::size_t site_count = topo.compute_sites.size();
  // Sized once: the records never reallocate while they are costed.
  std::vector<Costed> costed;
  costed.reserve(replicas.size() * compiled.max_candidates_per_replica);
  core::ProfileConfig target;
  target.dataset_bytes = q.dataset_bytes;
  for (const auto& replica : replicas) {
    const auto* repo = topo.find_repository(replica.repository);
    // Snapshot skew: the batch captures the topology before its shards, so
    // a writer that registers a new repository site and then a replica on
    // it can publish a shard entry whose repository is absent from this
    // batch's (older) topology. That replica is unreachable for this
    // batch — the next batch's fresher topology will rank it.
    if (repo == nullptr) continue;
    const std::size_t row =
        static_cast<std::size_t>(repo - topo.repository_sites.data()) *
        site_count;
    target.data_nodes = replica.storage_nodes;
    for (std::size_t s = 0; s < site_count; ++s) {
      const auto& site = topo.compute_sites[s];
      const SitePredictor& predictor = compiled.site_predictors[s];
      if (!predictor.predictable()) continue;
      const sim::WanSpec* wan = compiled.links[row + s];
      if (wan == nullptr) continue;  // unreachable pair
      target.bandwidth_Bps = wan->per_link_Bps;
      // 64-bit sweep counter: `c *= 2` on an int is UB once
      // available_nodes exceeds INT_MAX/2.
      for (long long c = 1; c <= site.available_nodes; c *= 2) {
        if (c < replica.storage_nodes) continue;  // FREERIDE-G: M >= N
        ++out.candidates_considered;
        target.compute_nodes = static_cast<int>(c);
        const core::PredictedTime predicted = predictor.predict(target);
        costed.push_back({predicted, predicted.total(), &replica, s,
                          target.compute_nodes, wan});
      }
    }
  }
  if (costed.empty()) {
    out.error = "no predictable candidate for dataset '" + q.dataset + "'";
    return out;
  }

  // Deterministic total order: predicted total time, then the candidate's
  // identity. std::sort is not stable, so without the identity tie-break
  // two equal-cost candidates could legally come back in either order —
  // the bit-identity contract needs exactly one.
  const auto less = [&topo](const Costed& a, const Costed& b) {
    if (a.total != b.total) return a.total < b.total;
    if (a.replica->repository != b.replica->repository)
      return a.replica->repository < b.replica->repository;
    if (a.site != b.site)
      return topo.compute_sites[a.site].id < topo.compute_sites[b.site].id;
    if (a.replica->storage_nodes != b.replica->storage_nodes)
      return a.replica->storage_nodes < b.replica->storage_nodes;
    return a.nodes < b.nodes;
  };
  // The sort moves 8-byte pointers, not the records they point at.
  std::vector<const Costed*> order(costed.size());
  for (std::size_t i = 0; i < costed.size(); ++i) order[i] = &costed[i];
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(q.top_k), order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&less](const Costed* a, const Costed* b) {
                      return less(*a, *b);
                    });
  out.ranked.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Costed& rec = *order[i];
    out.ranked.push_back(
        {{*rec.replica, topo.compute_sites[rec.site].id, rec.nodes, *rec.wan},
         rec.predicted,
         compiled.site_predictors[rec.site].uses_hetero_scaling()});
  }
  return out;
}

}  // namespace

const RankedCandidate& SelectionResult::best() const {
  FGP_CHECK_MSG(ok() && !ranked.empty(),
                "no selection result: " << (error.empty() ? "empty ranking"
                                                          : error));
  return ranked.front();
}

SelectionService::SelectionService(const ShardedCatalog* catalog,
                                   util::ThreadPool* pool,
                                   obs::Registry* metrics)
    : catalog_(catalog), pool_(pool), metrics_(metrics) {
  FGP_CHECK_MSG(catalog_ != nullptr, "service needs a sharded catalog");
}

void SelectionService::register_app(
    core::Profile profile, core::PredictorOptions options,
    std::map<std::string, core::ScalingFactors> scalers) {
  cache_.register_app(std::move(profile), options, std::move(scalers));
}

std::vector<SelectionResult> SelectionService::query_batch(
    std::span<const SelectionQuery> queries) const {
  const util::Stopwatch batch_clock;
  // Observers are all Host-domain (wall-clock) consumers: recording for
  // them happens into per-query indexed slots and is folded at batch end
  // in query order, so attaching them cannot perturb rankings or
  // deterministic counters (DESIGN.md §17).
  const ServiceObservers o = observers_;
  obs::TraceRecorder* trace =
      o.trace != nullptr && o.trace->host_enabled() ? o.trace : nullptr;
  const bool want_latency =
      o.latency != nullptr || o.slowlog != nullptr || trace != nullptr;
  // Maps batch-clock offsets onto the trace recorder's host epoch (both
  // are util::Stopwatch instants, so the skew is one constant).
  const double trace_epoch =
      trace != nullptr ? trace->host_now() - batch_clock.seconds() : 0.0;

  // --- serial prepare phase (deterministic counters live here) ----------
  const auto topo = catalog_->topology();
  unsigned long long hits = 0;
  unsigned long long misses = 0;
  // One CompiledApp per distinct app name, held for the whole batch. The
  // first query naming an app resolves it through the cache, which counts
  // a hit or a miss; each later one counts the hit its own resolve would
  // have counted against the same topology, and an unknown app counts
  // nothing, so the counters read as if every query had resolved.
  std::unordered_map<std::string_view, std::shared_ptr<const CompiledApp>>
      apps;
  std::vector<PreparedQuery> prepared(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const SelectionQuery& q = queries[i];
    PreparedQuery& p = prepared[i];
    p.query = &q;
    if (q.app.empty() || q.dataset.empty()) {
      p.error = "query needs an app and a dataset";
      continue;
    }
    if (!(q.dataset_bytes > 0.0) || !std::isfinite(q.dataset_bytes)) {
      p.error = "query needs positive finite dataset_bytes";
      continue;
    }
    if (q.top_k < 1) {
      p.error = "query needs top_k >= 1";
      continue;
    }
    const auto [app, first] = apps.try_emplace(q.app);
    if (first)
      app->second = cache_.resolve(q.app, topo, &hits, &misses);
    else if (app->second != nullptr)
      ++hits;
    p.compiled = app->second.get();
    if (p.compiled == nullptr) {
      p.error = "no profile registered for app '" + q.app + "'";
      continue;
    }
    p.shard_index = shard_of(q.dataset, catalog_->shard_count());
  }
  const double prepare_end = want_latency ? batch_clock.seconds() : 0.0;

  // --- shard-load phase: one snapshot per touched shard ------------------
  // Each touched shard is loaded exactly once per batch, so every query on
  // the same dataset ranks against the same snapshot even while writers
  // publish. The snapshots it loads are the batch's shard fan-out.
  std::vector<std::shared_ptr<const ReplicaShard>> shards(
      catalog_->shard_count());
  std::size_t fanout = 0;
  for (PreparedQuery& p : prepared) {
    if (!p.error.empty()) continue;
    std::shared_ptr<const ReplicaShard>& snapshot = shards[p.shard_index];
    if (snapshot == nullptr) {
      snapshot = catalog_->shard(p.shard_index);
      ++fanout;
    }
    p.shard = snapshot.get();
  }
  const double shard_load_end = want_latency ? batch_clock.seconds() : 0.0;

  if (metrics_ != nullptr) {
    metrics_->add("service.queries", static_cast<double>(queries.size()));
    metrics_->add("service.cache_hits", static_cast<double>(hits));
    metrics_->add("service.cache_misses", static_cast<double>(misses));
    metrics_->add("service.shard_fanout", static_cast<double>(fanout));
  }

  // --- parallel evaluate phase (indexed result slots) --------------------
  // Latency capture uses the same indexed-slot discipline as the results:
  // slot i is owned by the task evaluating query i, so the parallel phase
  // records uncontended and the batch end folds serially in query order.
  std::vector<SelectionResult> results(queries.size());
  std::vector<double> q_begin;
  std::vector<double> q_end;
  if (want_latency) {
    q_begin.assign(queries.size(), 0.0);
    q_end.assign(queries.size(), 0.0);
  }
  const double evaluate_begin = want_latency ? batch_clock.seconds() : 0.0;
  const auto run_one = [&](std::size_t i) {
    if (want_latency) {
      q_begin[i] = batch_clock.seconds();
      results[i] = evaluate(prepared[i]);
      q_end[i] = batch_clock.seconds();
    } else {
      results[i] = evaluate(prepared[i]);
    }
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < prepared.size(); ++i) run_one(i);
  } else {
    pool_->parallel_for(prepared.size(), run_one);
  }
  const double evaluate_end = want_latency ? batch_clock.seconds() : 0.0;

  // --- batch-end fold (serial, query order; all Host-domain) -------------
  if (o.latency != nullptr) {
    obs::HdrHistogram batch_hist;
    for (std::size_t i = 0; i < queries.size(); ++i)
      batch_hist.observe_seconds(q_end[i] - q_begin[i]);
    std::lock_guard lock(latency_mu_);
    o.latency->merge(batch_hist);
  }
  if (o.slowlog != nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double latency = q_end[i] - q_begin[i];
      if (!(latency > o.slowlog->threshold_seconds())) continue;
      obs::SlowQueryEntry entry;
      entry.app = queries[i].app;
      entry.dataset = queries[i].dataset;
      entry.latency_s = latency;
      entry.candidates_considered = results[i].candidates_considered;
      if (results[i].ok() && !results[i].ranked.empty()) {
        const RankedCandidate& best = results[i].ranked.front();
        entry.chosen = best.candidate.replica.repository + "/" +
                       best.candidate.compute_site + "/" +
                       std::to_string(best.candidate.compute_nodes);
      }
      entry.error = results[i].error;
      entry.topology_version = topo->version;
      o.slowlog->maybe_record(std::move(entry));
    }
  }
  if (trace != nullptr) {
    trace->host_span("service", "prepare", trace_epoch,
                     trace_epoch + prepare_end);
    trace->host_span("service", "shard-load", trace_epoch + prepare_end,
                     trace_epoch + shard_load_end);
    trace->host_span("service", "evaluate", trace_epoch + evaluate_begin,
                     trace_epoch + evaluate_end);
    for (std::size_t i = 0; i < queries.size(); ++i)
      trace->host_span("service/query", queries[i].app + ":" + queries[i].dataset,
                       trace_epoch + q_begin[i], trace_epoch + q_end[i]);
  }

  if (metrics_ != nullptr)
    metrics_->observe("service.batch_seconds", batch_clock.seconds(),
                      obs::Domain::Host);
  return results;
}

SelectionResult SelectionService::query(const SelectionQuery& q) const {
  return query_batch({&q, 1}).front();
}

}  // namespace fgp::service
