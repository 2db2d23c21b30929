#include "freeride/config.h"

#include <cmath>
#include <string>

#include "util/check.h"

namespace fgp::freeride {

void JobConfig::validate() const {
  if (data_nodes <= 0)
    throw util::ConfigError("data_nodes must be positive, got " +
                            std::to_string(data_nodes));
  if (compute_nodes <= 0)
    throw util::ConfigError("compute_nodes must be positive, got " +
                            std::to_string(compute_nodes));
  if (compute_nodes < data_nodes)
    throw util::ConfigError(
        "FREERIDE-G requires compute_nodes >= data_nodes (M >= N); got M=" +
        std::to_string(compute_nodes) + ", N=" + std::to_string(data_nodes));
  if (threads_per_node <= 0)
    throw util::ConfigError("threads_per_node must be positive, got " +
                            std::to_string(threads_per_node));
  if (max_passes <= 0)
    throw util::ConfigError("max_passes must be positive");
  if (straggler_count < 0 || straggler_count > compute_nodes)
    throw util::ConfigError("straggler_count must be in [0, compute_nodes]");
  // Written so NaN fails too: `NaN < 1.0` is false, and a NaN node time
  // would vanish from the phase's std::max.
  if (!std::isfinite(straggler_slowdown) || straggler_slowdown < 1.0)
    throw util::ConfigError("straggler_slowdown must be finite and >= 1.0");
  if (std::isnan(local_cache_capacity_bytes) || local_cache_capacity_bytes < 0.0)
    throw util::ConfigError("local_cache_capacity_bytes must be >= 0");
}

}  // namespace fgp::freeride
