#include "service/profile_cache.h"

#include <utility>

#include "core/ipc_probe.h"
#include "util/check.h"

namespace fgp::service {

core::PredictedTime SitePredictor::predict(
    const core::ProfileConfig& target) const {
  FGP_ASSERT(predictable());
  if (same_.has_value()) return same_->predict(target);
  return hetero_->predict(target);
}

void ProfileCache::register_app(
    core::Profile profile, core::PredictorOptions options,
    std::map<std::string, core::ScalingFactors> scalers) {
  FGP_CHECK_MSG(!profile.app.empty(), "profile needs an app name");
  // Constructing a throwaway Predictor validates the profile up front, so
  // a bad registration fails here instead of on the first query.
  [[maybe_unused]] const core::Predictor validate(profile, options);
  // Copy the key out first: the RHS (which moves `profile`) is sequenced
  // *before* the subscript under C++17 assignment rules.
  std::string app = profile.app;
  const std::lock_guard<std::mutex> lock(mu_);
  apps_[std::move(app)] =
      AppEntry{std::move(profile), options, std::move(scalers), nullptr};
}

std::shared_ptr<const CompiledApp> ProfileCache::resolve(
    const std::string& app, const std::shared_ptr<const Topology>& topo,
    unsigned long long* hit, unsigned long long* miss) {
  FGP_CHECK_MSG(topo != nullptr, "resolve needs a topology snapshot");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = apps_.find(app);
  if (it == apps_.end()) return nullptr;
  AppEntry& entry = it->second;
  if (entry.compiled != nullptr &&
      entry.compiled->topology->version == topo->version) {
    if (hit != nullptr) ++*hit;
    return entry.compiled;
  }
  if (miss != nullptr) ++*miss;

  auto compiled = std::make_shared<CompiledApp>();
  compiled->app = app;
  compiled->topology = topo;
  compiled->profile = entry.profile;
  compiled->site_predictors.reserve(topo->compute_sites.size());
  for (const auto& site : topo->compute_sites) {
    if (site.cluster.name == entry.profile.config.compute_cluster) {
      // Same hardware as the profile: probe the interconnect once here
      // instead of once per candidate.
      core::PredictorOptions opts = entry.options;
      opts.ipc = core::measure_ipc(site.cluster);
      compiled->site_predictors.emplace_back(
          core::Predictor(entry.profile, opts));
    } else if (const auto sit = entry.scalers.find(site.cluster.name);
               sit != entry.scalers.end()) {
      compiled->site_predictors.emplace_back(core::HeteroPredictor(
          core::Predictor(entry.profile, entry.options), sit->second));
    } else {
      compiled->site_predictors.emplace_back();  // unpredictable
    }
  }
  entry.compiled = std::move(compiled);
  return entry.compiled;
}

std::size_t ProfileCache::registered_apps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return apps_.size();
}

}  // namespace fgp::service
