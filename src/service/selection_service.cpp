#include "service/selection_service.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/wallclock.h"

namespace fgp::service {

namespace {

/// Deterministic total order on ranked candidates: predicted total time,
/// then the candidate's identity. std::sort is not stable, so without the
/// identity tie-break two equal-cost candidates could legally come back
/// in either order — the bit-identity contract needs exactly one.
bool ranked_less(const RankedCandidate& a, const RankedCandidate& b) {
  const double ta = a.predicted.total();
  const double tb = b.predicted.total();
  if (ta != tb) return ta < tb;
  const auto& ca = a.candidate;
  const auto& cb = b.candidate;
  if (ca.replica.repository != cb.replica.repository)
    return ca.replica.repository < cb.replica.repository;
  if (ca.compute_site != cb.compute_site)
    return ca.compute_site < cb.compute_site;
  if (ca.replica.storage_nodes != cb.replica.storage_nodes)
    return ca.replica.storage_nodes < cb.replica.storage_nodes;
  return ca.compute_nodes < cb.compute_nodes;
}

/// Everything one query needs for its (pure) evaluate phase.
struct PreparedQuery {
  const SelectionQuery* query = nullptr;
  std::shared_ptr<const CompiledApp> compiled;  ///< null: unknown app
  std::shared_ptr<const ReplicaShard> shard;
  std::size_t shard_index = 0;  ///< valid when needs_shard
  bool needs_shard = false;
  std::string error;  ///< non-empty: fail without evaluating
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
  const Topology& topo = *p.compiled->topology;
  const auto replicas = p.shard->replicas_of(q.dataset);
  if (replicas.empty()) {
    out.error = "no replica of dataset '" + q.dataset + "'";
    return out;
  }

  std::vector<RankedCandidate> ranked;
  for (const auto& replica : replicas) {
    const auto* repo = topo.find_repository(replica.repository);
    // Snapshot skew: the batch captures the topology before its shards, so
    // a writer that registers a new repository site and then a replica on
    // it can publish a shard entry whose repository is absent from this
    // batch's (older) topology. That replica is unreachable for this
    // batch — the next batch's fresher topology will rank it.
    if (repo == nullptr) continue;
    for (std::size_t s = 0; s < topo.compute_sites.size(); ++s) {
      const auto& site = topo.compute_sites[s];
      const SitePredictor& predictor = p.compiled->site_predictors[s];
      if (!predictor.predictable()) continue;
      const auto* wan = topo.find_link(replica.repository, site.id);
      if (wan == nullptr) continue;  // unreachable pair

      core::ProfileConfig target;
      target.data_nodes = replica.storage_nodes;
      target.dataset_bytes = q.dataset_bytes;
      target.bandwidth_Bps = wan->per_link_Bps;
      target.data_cluster = repo->cluster.name;
      target.compute_cluster = site.cluster.name;
      // 64-bit sweep counter: `c *= 2` on an int is UB once
      // available_nodes exceeds INT_MAX/2.
      for (long long c = 1; c <= site.available_nodes; c *= 2) {
        if (c < replica.storage_nodes) continue;  // FREERIDE-G: M >= N
        ++out.candidates_considered;
        const int nodes = static_cast<int>(c);
        target.compute_nodes = nodes;
        RankedCandidate rc;
        rc.candidate = {replica, site.id, nodes, *wan};
        rc.predicted = predictor.predict(target);
        rc.used_hetero_scaling = predictor.uses_hetero_scaling();
        ranked.push_back(std::move(rc));
      }
    }
  }
  if (ranked.empty()) {
    out.error = "no predictable candidate for dataset '" + q.dataset + "'";
    return out;
  }

  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(q.top_k), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    ranked_less);
  ranked.resize(k);
  out.ranked = std::move(ranked);
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
  // Each touched shard is loaded exactly once per batch, so every query on
  // the same dataset ranks against the same snapshot even while writers
  // publish. The map size is the batch's shard fan-out.
  std::map<std::size_t, std::shared_ptr<const ReplicaShard>> shards_touched;
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
    p.compiled = cache_.resolve(q.app, topo, &hits, &misses);
    if (p.compiled == nullptr) {
      p.error = "no profile registered for app '" + q.app + "'";
      continue;
    }
    p.shard_index = shard_of(q.dataset, catalog_->shard_count());
    p.needs_shard = true;
    shards_touched.try_emplace(p.shard_index);
  }
  const double prepare_end = want_latency ? batch_clock.seconds() : 0.0;

  // --- shard-load phase: one snapshot per touched shard ------------------
  for (auto& [index, snapshot] : shards_touched)
    snapshot = catalog_->shard(index);
  for (PreparedQuery& p : prepared)
    if (p.needs_shard) p.shard = shards_touched.find(p.shard_index)->second;
  const double shard_load_end = want_latency ? batch_clock.seconds() : 0.0;

  if (metrics_ != nullptr) {
    metrics_->add("service.queries", static_cast<double>(queries.size()));
    metrics_->add("service.cache_hits", static_cast<double>(hits));
    metrics_->add("service.cache_misses", static_cast<double>(misses));
    metrics_->add("service.shard_fanout",
                  static_cast<double>(shards_touched.size()));
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
