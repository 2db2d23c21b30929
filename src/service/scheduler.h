// scheduler.h — prediction-driven resource allocation for a stream of jobs.
//
// "A major goal of grid computing is enabling applications to identify and
// allocate resources dynamically. … for a middleware to perform resource
// allocation, prediction models are needed" (paper §1). This module closes
// that loop: a stream of FREERIDE-G jobs arrives at the grid, each job's
// candidate (replica, compute-site, node-count) placements are costed with
// the prediction framework, queue waits are derived from existing
// reservations, and the scheduler commits the placement minimizing the
// *predicted completion time* (wait + execution). Alternative policies
// (round-robin, grab-the-most-nodes) exist to quantify what the model
// buys. Predictions come from the same compiled SitePredictors the
// SelectionService ranks with (ProfileCache), so a candidate costs the
// same in both.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "grid/catalog.h"
#include "service/profile_cache.h"
#include "service/sharded_catalog.h"

namespace fgp::service {

/// A job submitted to the grid.
struct JobRequest {
  std::string id;
  std::string app;            ///< an app registered with the scheduler
  std::string dataset;        ///< replica lookup key in the catalog
  double dataset_bytes = 0.0;
  double submit_time_s = 0.0;  ///< non-decreasing across the stream
};

/// One committed scheduling decision.
struct Placement {
  std::string job_id;
  grid::Candidate candidate;
  double start_s = 0.0;
  double predicted_exec_s = 0.0;
  double actual_exec_s = 0.0;
  double finish_s = 0.0;  ///< start + actual execution
};

enum class SchedulingPolicy {
  PredictedBest,  ///< argmin of predicted completion (the paper's point)
  RoundRobin,     ///< rotate through candidates, ignore the model
  MaxNodes,       ///< always grab the largest compute allocation
};

class GridScheduler {
 public:
  /// `catalog` must outlive the scheduler.
  GridScheduler(const ShardedCatalog* catalog, SchedulingPolicy policy);

  /// Registers an app jobs can name (see ProfileCache::register_app):
  /// `scalers` are needed to predict candidates on clusters other than
  /// the profile's.
  void register_app(core::Profile profile, core::PredictorOptions options,
                    std::map<std::string, core::ScalingFactors> scalers = {});

  /// Ground-truth execution time of a candidate (a virtual-cluster run).
  using ActualRunner =
      std::function<double(const JobRequest&, const grid::Candidate&)>;

  /// Schedules the stream in submit order; returns one placement per job
  /// (jobs with no predictable candidate throw).
  std::vector<Placement> schedule(const std::vector<JobRequest>& jobs,
                                  const ActualRunner& runner);

  /// Completion time of the last job in the most recent schedule() call.
  double makespan() const { return makespan_; }
  /// Mean of (finish - submit) over the most recent schedule() call.
  double mean_turnaround() const { return mean_turnaround_; }

 private:
  struct Reservation {
    double start = 0.0;
    double end = 0.0;
    int nodes = 0;
  };

  /// Earliest time >= ready when `nodes` nodes of `site` are free for
  /// `duration` seconds, given existing reservations.
  double earliest_start(const std::string& site, int capacity, int nodes,
                        double ready, double duration) const;
  bool fits(const std::string& site, int capacity, int nodes, double start,
            double duration) const;

  const ShardedCatalog* catalog_;
  SchedulingPolicy policy_;
  ProfileCache cache_;
  std::map<std::string, std::vector<Reservation>> reservations_;
  std::size_t round_robin_cursor_ = 0;
  double makespan_ = 0.0;
  double mean_turnaround_ = 0.0;
};

}  // namespace fgp::service
