#include "service/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace fgp::service {

GridScheduler::GridScheduler(const ShardedCatalog* catalog,
                             SchedulingPolicy policy)
    : catalog_(catalog), policy_(policy) {
  FGP_CHECK_MSG(catalog_ != nullptr, "scheduler needs a grid catalog");
}

void GridScheduler::register_app(
    core::Profile profile, core::PredictorOptions options,
    std::map<std::string, core::ScalingFactors> scalers) {
  cache_.register_app(std::move(profile), options, std::move(scalers));
}

bool GridScheduler::fits(const std::string& site, int capacity, int nodes,
                         double start, double duration) const {
  const auto it = reservations_.find(site);
  if (it == reservations_.end()) return nodes <= capacity;
  // Peak concurrent usage within [start, start+duration) changes only at
  // reservation starts; checking those instants (plus `start`) suffices.
  std::vector<double> instants{start};
  for (const auto& r : it->second)
    if (r.start > start && r.start < start + duration)
      instants.push_back(r.start);
  for (const double t : instants) {
    int used = 0;
    for (const auto& r : it->second)
      if (r.start <= t && t < r.end) used += r.nodes;
    if (used + nodes > capacity) return false;
  }
  return true;
}

double GridScheduler::earliest_start(const std::string& site, int capacity,
                                     int nodes, double ready,
                                     double duration) const {
  FGP_CHECK_MSG(nodes <= capacity, "placement larger than the site");
  // Candidate start instants: the ready time and every reservation end.
  std::vector<double> candidates{ready};
  const auto it = reservations_.find(site);
  if (it != reservations_.end())
    for (const auto& r : it->second)
      if (r.end > ready) candidates.push_back(r.end);
  std::sort(candidates.begin(), candidates.end());
  for (const double t : candidates)
    if (fits(site, capacity, nodes, t, duration)) return t;
  FGP_CHECK_MSG(false, "no feasible start found (unreachable)");
  return 0.0;
}

std::vector<Placement> GridScheduler::schedule(
    const std::vector<JobRequest>& jobs, const ActualRunner& runner) {
  reservations_.clear();
  round_robin_cursor_ = 0;
  makespan_ = 0.0;
  mean_turnaround_ = 0.0;

  std::vector<Placement> placements;
  double turnaround_sum = 0.0;

  for (const auto& job : jobs) {
    const auto compiled = cache_.resolve(job.app, catalog_->topology());
    FGP_CHECK_MSG(compiled != nullptr,
                  "no profile registered for app '" << job.app << "'");
    // Catalog order, not a ranking: RoundRobin's rotation and MaxNodes'
    // ties depend on it.
    const Topology& topo = *compiled->topology;
    const auto candidates = ShardedCatalog::enumerate_candidates(
        topo, *catalog_->shard_for(job.dataset), job.dataset);
    FGP_CHECK_MSG(!candidates.empty(),
                  "no candidate for dataset '" << job.dataset << "'");

    struct Scored {
      grid::Candidate candidate;
      double predicted = 0.0;
      double start = 0.0;
      double completion = 0.0;
    };
    std::vector<Scored> scored;
    for (const auto& candidate : candidates) {
      // site_predictors is index-aligned with topo.compute_sites.
      const auto* site = topo.find_compute(candidate.compute_site);
      const SitePredictor& predictor =
          compiled->site_predictors[static_cast<std::size_t>(
              site - topo.compute_sites.data())];
      if (!predictor.predictable()) continue;
      core::ProfileConfig target;
      target.data_nodes = candidate.replica.storage_nodes;
      target.compute_nodes = candidate.compute_nodes;
      target.dataset_bytes = job.dataset_bytes;
      target.bandwidth_Bps = candidate.wan.per_link_Bps;
      const double predicted = predictor.predict(target).total();
      const double start =
          earliest_start(candidate.compute_site, site->available_nodes,
                         candidate.compute_nodes, job.submit_time_s,
                         predicted);
      scored.push_back({candidate, predicted, start, start + predicted});
    }
    FGP_CHECK_MSG(!scored.empty(),
                  "no predictable candidate for job '" << job.id << "'");

    const Scored* chosen = nullptr;
    switch (policy_) {
      case SchedulingPolicy::PredictedBest: {
        chosen = &*std::min_element(
            scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.completion < b.completion;
            });
        break;
      }
      case SchedulingPolicy::RoundRobin: {
        chosen = &scored[round_robin_cursor_ % scored.size()];
        ++round_robin_cursor_;
        break;
      }
      case SchedulingPolicy::MaxNodes: {
        chosen = &*std::max_element(
            scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.candidate.compute_nodes != b.candidate.compute_nodes)
                return a.candidate.compute_nodes < b.candidate.compute_nodes;
              return a.start > b.start;  // prefer the earlier start on ties
            });
        break;
      }
    }

    Placement placement;
    placement.job_id = job.id;
    placement.candidate = chosen->candidate;
    placement.predicted_exec_s = chosen->predicted;
    placement.actual_exec_s = runner(job, chosen->candidate);
    FGP_CHECK_MSG(placement.actual_exec_s > 0.0,
                  "runner returned non-positive execution time");
    // Reserve with the *actual* duration: the queue wait was computed with
    // the prediction, but reality occupies the nodes for the real time.
    placement.start_s = chosen->start;
    placement.finish_s = placement.start_s + placement.actual_exec_s;
    reservations_[chosen->candidate.compute_site].push_back(
        {placement.start_s, placement.finish_s,
         chosen->candidate.compute_nodes});

    makespan_ = std::max(makespan_, placement.finish_s);
    turnaround_sum += placement.finish_s - job.submit_time_s;
    placements.push_back(std::move(placement));
  }
  if (!placements.empty())
    mean_turnaround_ = turnaround_sum / static_cast<double>(placements.size());
  return placements;
}

}  // namespace fgp::service
