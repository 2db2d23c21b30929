// profile_cache.h — compiled per-(app, topology) predictor state.
//
// The one rule that turns a (profile, compute site) pair into a
// predictor; SelectionService and GridScheduler both predict through it.
// Probing the target cluster's interconnect (measure_ipc) and rebuilding
// a Predictor/HeteroPredictor per candidate is fine for one figure run
// and fatal for a service answering thousands of queries per second over
// the same handful of cluster kinds. The cache compiles, once per (app,
// topology version), one predictor per compute site — the IPC probe runs
// once per site, the hetero scalers are resolved once — plus a dense
// (repository, site) link table, and hands callers an immutable
// CompiledApp snapshot under shared_ptr.
//
// SelectionService fills the cache only from query_batch's *serial*
// prepare phase, so the hit/miss counters are deterministic-domain
// metrics: a batch stream replayed at any pool size produces
// byte-identical counts (DESIGN.md §16).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/hetero.h"
#include "service/sharded_catalog.h"

namespace fgp::service {

/// One compute site's ready-to-run predictor: either a same-cluster
/// Predictor with the site's IPC parameters baked in, or the profile
/// cluster's predictor wrapped in hetero scaling factors. Sites with no
/// scaling factors and different hardware are unpredictable, and callers
/// skip them.
class SitePredictor {
 public:
  SitePredictor() = default;  ///< unpredictable
  explicit SitePredictor(core::Predictor same) : same_(std::move(same)) {}
  explicit SitePredictor(core::HeteroPredictor hetero)
      : hetero_(std::move(hetero)) {}

  bool predictable() const {
    return same_.has_value() || hetero_.has_value();
  }
  bool uses_hetero_scaling() const { return hetero_.has_value(); }

  /// Precondition: predictable().
  core::PredictedTime predict(const core::ProfileConfig& target) const;

 private:
  std::optional<core::Predictor> same_;
  std::optional<core::HeteroPredictor> hetero_;
};

/// Everything a query needs, compiled against one topology version. The
/// site_predictors vector is index-aligned with topology->compute_sites.
struct CompiledApp {
  std::string app;
  std::shared_ptr<const Topology> topology;
  core::Profile profile;
  std::vector<SitePredictor> site_predictors;
  /// The WAN link from repository_sites[r] to compute_sites[s] at
  /// links[r * compute_sites.size() + s], or nullptr for an unreachable
  /// pair. Points into *topology, so a query reads a link by index
  /// instead of searching by name.
  std::vector<const sim::WanSpec*> links;
  /// The most candidates one replica can yield: over repository sites, the
  /// largest sum of node sweeps (1, 2, 4, … up to the site's nodes) across
  /// the predictable sites the repository links to. A query sizes its
  /// records from it once.
  std::size_t max_candidates_per_replica = 0;
};

class ProfileCache {
 public:
  /// Declares an app the service can predict for. Re-registering an app
  /// replaces its profile and invalidates its compiled state.
  /// `options.ipc` carries the profile cluster's interconnect parameters
  /// and seeds the hetero base predictor, as Figs 11–13 do. Same-cluster
  /// sites get their IPC probed at compile time regardless.
  void register_app(core::Profile profile, core::PredictorOptions options,
                    std::map<std::string, core::ScalingFactors> scalers = {});

  /// The compiled state for `app` against `topo`; compiles (and caches)
  /// when missing or stale. Returns nullptr for unregistered apps.
  /// `hit`/`miss` (when non-null) are bumped exactly once per call —
  /// callers in a deterministic phase may feed them straight into
  /// deterministic-domain counters.
  std::shared_ptr<const CompiledApp> resolve(
      const std::string& app, const std::shared_ptr<const Topology>& topo,
      unsigned long long* hit = nullptr,
      unsigned long long* miss = nullptr);

 private:
  struct AppEntry {
    core::Profile profile;
    core::PredictorOptions options;
    std::map<std::string, core::ScalingFactors> scalers;
    std::shared_ptr<const CompiledApp> compiled;  ///< null until first use
  };

  std::mutex mu_;
  std::map<std::string, AppEntry> apps_;
};

}  // namespace fgp::service
