// runtime.h — the FREERIDE-G execution engine on the virtual cluster.
//
// One run() call executes a complete job: per pass, the n data-server
// nodes retrieve their chunk partitions (data retrieval), assign and send
// every chunk to a compute node (data distribution + communication), the c
// compute nodes run the real local reduction, reduction objects are
// gathered and merged at the master, and the sequential global reduction
// (plus optional parameter broadcast) closes the pass. Virtual time is
// charged per phase from actual byte counts and kernel-reported work;
// the computation itself is real, so results are testable against serial
// references.
#pragma once

#include <memory>
#include <optional>

#include "freeride/cache.h"
#include "freeride/config.h"
#include "freeride/reduction.h"
#include "freeride/timing.h"
#include "repository/dataset.h"
#include "repository/partition.h"
#include "sim/cluster.h"
#include "sim/network.h"

namespace fgp::util {
class ThreadPool;
}  // namespace fgp::util

namespace fgp::obs {
class Registry;
class TraceRecorder;
}  // namespace fgp::obs

namespace fgp::freeride {

/// A non-local caching site: storage "at a location from which [data] can
/// be accessed at a lower cost than the original repository" (paper §2.1,
/// listed as a resource-selection role but not implemented there).
struct CacheSiteSetup {
  sim::ClusterSpec cluster;
  int nodes = 0;
  sim::WanSpec wan_to_compute;  ///< pipe between cache site and compute site
};

/// How a multi-pass job's later passes were actually served.
enum class CacheMode { None, LocalDisk, NonLocalSite };

/// Everything a job needs: the data, where it lives, where it runs, and
/// the pipe in between.
struct JobSetup {
  const repository::ChunkedDataset* dataset = nullptr;
  sim::ClusterSpec data_cluster;
  sim::ClusterSpec compute_cluster;
  sim::WanSpec wan;
  JobConfig config;
  /// Optional non-local cache site used when the compute nodes' local
  /// cache capacity cannot hold their share of the dataset.
  std::optional<CacheSiteSetup> cache_site;

  /// Observability sinks, both off (null) by default. The runtime records
  /// virtual-time phase spans / deterministic metrics from its master
  /// thread at deterministic program points, so for a fixed seed the
  /// exported trace and metrics snapshot are byte-identical across the
  /// serial runtime and every pool size (tests/test_obs.cpp). Host
  /// wall-clock spans are only recorded when the recorder itself has
  /// host recording enabled.
  obs::TraceRecorder* trace = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Outcome of a job: the timing breakdown the prediction model consumes,
/// the final reduction object (downcast to the kernel's concrete type to
/// read results), and aggregate work for sanity checks.
struct RunResult {
  JobTiming timing;
  int passes = 0;
  std::unique_ptr<ReductionObject> result;
  sim::Work total_work;
  CacheMode cache_mode = CacheMode::None;
};

class Runtime {
 public:
  /// A serial runtime: every simulated node runs inline on the caller.
  Runtime() = default;

  /// pool_threads > 1 runs the two-level reduction (compute nodes, and
  /// chunk blocks within each node) on an owned host thread pool
  /// (util::ThreadPool). Virtual time, reduction objects and predictions
  /// are bit-identical for every pool size — the chunk-block partition is
  /// a pure function of the chunk list, so the pool only shortens host
  /// wall-clock time; tests/test_determinism.cpp enforces this at 1, 2
  /// and 8 threads (DESIGN.md §11).
  explicit Runtime(std::size_t pool_threads)
      : pool_threads_(pool_threads == 0 ? 1 : pool_threads) {}

  /// Borrows an existing pool instead of owning one — lets many Runtime
  /// instances (e.g. a bench::SweepRunner's concurrent configurations)
  /// share one set of host workers. `pool` must outlive the Runtime and
  /// may be null (serial). ThreadPool::parallel_for nests safely, so a
  /// run() executing *on* `pool` may still fan out over it.
  explicit Runtime(util::ThreadPool* pool) : shared_pool_(pool) {}

  /// Runs `kernel` over `setup`. Throws util::ConfigError for invalid
  /// configurations or cluster/WAN/cache-site specs, and util::Error for
  /// corrupted chunks (when config.verify_chunks is set).
  RunResult run(const JobSetup& setup, ReductionKernel& kernel) const;

 private:
  std::size_t pool_threads_ = 1;
  util::ThreadPool* shared_pool_ = nullptr;
};

}  // namespace fgp::freeride
