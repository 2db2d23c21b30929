#include "freeride/runtime.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fgp::freeride {

namespace {

using repository::PartitionMap;

/// Per-data-node virtual byte and chunk-count totals for one partition.
struct NodeVolume {
  double virtual_bytes = 0.0;
  std::uint64_t chunks = 0;
};

/// Chunks per reduction block in the two-level local reduction. A pure
/// constant: the block partition of a node's chunk list depends only on the
/// list itself, never on the host pool size, so every pool size (including
/// the serial runtime) reduces and merges in exactly the same order
/// (DESIGN.md §11).
constexpr std::size_t kChunksPerBlock = 4;

/// Tracks the prefetch tasks a run has handed to the host pool so the pass
/// that submitted them can wait them out. A prefetch task keeps the
/// streaming source (and with it the window pool) alive via its captured
/// shared_ptr, but the metrics registry that pool records into belongs to
/// the caller and may die with the dataset handle as soon as run()
/// returns — so no task submitted by a run may outlive it. drain() uses
/// wait(), not get(): a failed prefetch stays non-fatal, the synchronous
/// fetch of the same chunk surfaces any real error with context.
struct PrefetchDrain {
  util::ThreadPool* pool = nullptr;  ///< set once run() resolves its pool
  std::mutex mu;
  std::vector<std::future<void>> inflight;

  void add(std::future<void> f) {
    const std::lock_guard<std::mutex> lock(mu);
    inflight.push_back(std::move(f));
  }
  void drain() {
    std::vector<std::future<void>> local;
    {
      const std::lock_guard<std::mutex> lock(mu);
      local.swap(inflight);
    }
    for (auto& f : local) {
      if (!f.valid()) continue;
      // Help-first, never park on queued work: this thread may itself be
      // a pool worker (a sweep runs whole jobs on helpers), and a pool
      // whose every thread parks on its own queue deadlocks. Only when
      // the queue is empty is the task guaranteed running elsewhere (or
      // done), making a plain wait finite.
      while (f.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        if (pool == nullptr || !pool->try_run_one()) f.wait();
      }
    }
  }
  ~PrefetchDrain() { drain(); }
};

std::vector<NodeVolume> volumes(const repository::ChunkedDataset& ds,
                                const PartitionMap& pm) {
  std::vector<NodeVolume> v(static_cast<std::size_t>(pm.parts()));
  for (int p = 0; p < pm.parts(); ++p) {
    for (std::size_t ci : pm.chunks_of(p)) {
      v[static_cast<std::size_t>(p)].virtual_bytes +=
          ds.chunk(ci).virtual_bytes();
      v[static_cast<std::size_t>(p)].chunks += 1;
    }
  }
  return v;
}

}  // namespace

RunResult Runtime::run(const JobSetup& setup, ReductionKernel& kernel) const {
  FGP_CHECK_MSG(setup.dataset != nullptr, "JobSetup.dataset is null");
  setup.config.validate();
  // A NaN or negative spec field must fail typed here: the phase folds
  // below are std::max, which would silently drop it.
  setup.data_cluster.validate();
  setup.compute_cluster.validate();
  setup.wan.validate();
  if (setup.cache_site) {
    setup.cache_site->cluster.validate();
    setup.cache_site->wan_to_compute.validate();
  }
  const auto& ds = *setup.dataset;
  const JobConfig& cfg = setup.config;
  const int n = cfg.data_nodes;
  const int c = cfg.compute_nodes;
  FGP_CHECK_MSG(n <= setup.data_cluster.max_nodes,
                "data cluster " << setup.data_cluster.name << " has only "
                                << setup.data_cluster.max_nodes << " nodes");
  FGP_CHECK_MSG(c <= setup.compute_cluster.max_nodes,
                "compute cluster " << setup.compute_cluster.name
                                   << " has only "
                                   << setup.compute_cluster.max_nodes
                                   << " nodes");

  // Data layout on the repository and destination assignment to compute
  // nodes (the data server's "data distribution" role).
  const PartitionMap data_part = PartitionMap::block(ds.chunk_count(), n);
  const PartitionMap dest_part =
      PartitionMap::round_robin(ds.chunk_count(), c);
  const auto data_vol = volumes(ds, data_part);
  const auto dest_vol = volumes(ds, dest_part);

  const double dataset_scale =
      ds.total_real_bytes() > 0
          ? ds.total_virtual_bytes() / static_cast<double>(ds.total_real_bytes())
          : 1.0;
  const double obj_scale =
      kernel.reduction_object_scales_with_data() ? dataset_scale : 1.0;

  const sim::MachineSpec& data_machine = setup.data_cluster.machine;
  const sim::MachineSpec& compute_machine = setup.compute_cluster.machine;
  const sim::InterconnectSpec& ipc = setup.compute_cluster.interconnect;

  RunResult result;
  CacheSet caches(c, setup.metrics);
  obs::TraceRecorder* const trace = setup.trace;
  obs::Registry* const metrics = setup.metrics;
  const obs::HostSpan run_span(trace, "runtime", "run");

  // WAN counter handles, resolved on first use (one map walk per pipe per
  // run instead of three per node per phase).
  const sim::WanMeter repo_pipe(metrics, "repo-compute");
  const sim::WanMeter cache_pipe(metrics, "cache-compute");
  const sim::WanMeter forward_pipe(metrics, "compute-cache");
  // Virtual-time cursor for the trace: passes (and phases within a pass)
  // are laid out additively, matching TimingBreakdown::total(). With
  // overlap_phases the *elapsed* accounting shrinks but the decomposition
  // — which is what the trace visualizes — is unchanged.
  double vclock = 0.0;

  // Streamed datasets pull payloads through this source on demand; the
  // prefetch stage below (two-level reduction) readies the next block's
  // windows while the current block reduces. Null for in-memory datasets.
  const std::shared_ptr<const repository::ChunkSource> streaming_source =
      ds.source();
  // Destroyed (and therefore drained) on every exit path, including a
  // kernel exception unwinding the pass loop.
  PrefetchDrain prefetch_drain;

  // Host thread pool for the local-reduction phase: either borrowed from
  // the caller (shared across concurrent runs) or owned for this run. One
  // pool serves every pass; the work partition never depends on its size,
  // so any pool (or none) yields bit-identical results.
  util::ThreadPool* pool = shared_pool_;
  std::optional<util::ThreadPool> owned_pool;
  if (pool == nullptr && pool_threads_ > 1) {
    owned_pool.emplace(pool_threads_);
    pool = &*owned_pool;
  }
  prefetch_drain.pool = pool;

  // Decide how later passes of a multi-pass job will be served: local disk
  // when the compute nodes can hold their share, otherwise a non-local
  // cache site if the setup names one, otherwise re-retrieval.
  CacheMode cache_mode = CacheMode::None;
  if (cfg.enable_caching) {
    double max_node_share = 0.0;
    for (const auto& v : dest_vol)
      max_node_share = std::max(max_node_share, v.virtual_bytes);
    if (max_node_share <= cfg.local_cache_capacity_bytes) {
      cache_mode = CacheMode::LocalDisk;
    } else if (setup.cache_site && setup.cache_site->nodes > 0) {
      FGP_CHECK_MSG(setup.cache_site->nodes <= setup.cache_site->cluster.max_nodes,
                    "cache site wants more nodes than its cluster has");
      cache_mode = CacheMode::NonLocalSite;
    }
  }
  result.cache_mode = cache_mode;

  // Chunk layout across the non-local cache site's nodes.
  const int cache_nodes =
      cache_mode == CacheMode::NonLocalSite ? setup.cache_site->nodes : 1;
  const PartitionMap cache_part =
      PartitionMap::block(ds.chunk_count(), cache_nodes);
  const auto cache_vol = volumes(ds, cache_part);

  // Per-job scratch reused across passes: the per-node object slots,
  // per-node time/work vectors, SMP thread scratch, and the gather-phase
  // serialization buffer. A multi-pass job otherwise re-allocates all of
  // these every pass.
  std::vector<std::unique_ptr<ReductionObject>> objects;
  objects.reserve(static_cast<std::size_t>(c));
  std::vector<double> node_time(static_cast<std::size_t>(c), 0.0);
  std::vector<sim::Work> node_work(static_cast<std::size_t>(c));
  struct NodeScratch {
    std::vector<std::unique_ptr<ReductionObject>> thread_objects;
    std::vector<double> thread_time;
    // Two-level reduction scratch: private object + virtual-time/work
    // partials for chunk blocks 1..k-1 (block 0 reduces into the node
    // object directly).
    std::vector<std::unique_ptr<ReductionObject>> block_objects;
    std::vector<double> block_time;
    std::vector<sim::Work> block_work;
  };
  std::vector<NodeScratch> scratch(static_cast<std::size_t>(c));
  util::ByteWriter gather;

  bool more_passes = true;
  while (more_passes && result.passes < cfg.max_passes) {
    PassRecord rec;
    const bool cached_pass = cache_mode != CacheMode::None && caches.warm();
    rec.from_cache = cached_pass;

    // --- Phase 1: data retrieval -------------------------------------
    // Every node with chunks to read charges one retrieval segment; the
    // phase takes as long as its slowest node (DESIGN.md §4).
    if (cached_pass && cache_mode == CacheMode::LocalDisk) {
      // Each compute node reads its chunks back from local disk.
      for (int j = 0; j < c; ++j) {
        const auto& cache = caches.node(j);
        if (cache.chunk_count() == 0) continue;
        rec.timing.disk = std::max(
            rec.timing.disk, compute_machine.disk.access_time(
                                 cache.virtual_bytes(), cache.chunk_count()));
      }
    } else if (cached_pass) {
      // The non-local cache site's nodes read their partitions.
      const auto& site = *setup.cache_site;
      const double bw = site.cluster.per_node_retrieval_Bps(cache_nodes);
      for (int d = 0; d < cache_nodes; ++d) {
        const auto& v = cache_vol[static_cast<std::size_t>(d)];
        if (v.chunks == 0) continue;
        rec.timing.disk = std::max(
            rec.timing.disk, site.cluster.machine.disk.startup_s +
                                 static_cast<double>(v.chunks) *
                                     site.cluster.machine.disk.seek_s +
                                 v.virtual_bytes / bw);
      }
    } else {
      // Each data-server node reads its partition; the shared storage
      // backplane caps aggregate throughput.
      const double bw = setup.data_cluster.per_node_retrieval_Bps(n);
      for (int d = 0; d < n; ++d) {
        const auto& v = data_vol[static_cast<std::size_t>(d)];
        if (v.chunks == 0) continue;
        rec.timing.disk = std::max(
            rec.timing.disk, data_machine.disk.startup_s +
                                 static_cast<double>(v.chunks) *
                                     data_machine.disk.seek_s +
                                 v.virtual_bytes / bw);
      }

      if (cfg.verify_chunks && result.passes == 0) {
        // Checksums are independent per chunk, so the sweep fans out over
        // the host pool; parallel_for rethrows the lowest-index failure,
        // keeping the reported chunk deterministic. Streamed chunks are
        // materialized for the check (the fetch itself already throws on
        // corruption) and dropped immediately after.
        const auto verify_chunk = [&ds](std::size_t ci) {
          const repository::Chunk chunk = ds.materialize(ci);
          FGP_CHECK_MSG(chunk.verify(),
                        "chunk " << chunk.id() << " failed checksum");
        };
        if (pool) {
          pool->parallel_for(ds.chunk_count(), verify_chunk);
        } else {
          for (std::size_t ci = 0; ci < ds.chunk_count(); ++ci)
            verify_chunk(ci);
        }
      }
    }

    // --- Phase 2: data communication ---------------------------------
    // One transfer segment per sending node; the slowest sets the phase
    // time. Cache population rides along on the first pass: its slowest
    // forward transfer and slowest cache write (cache_tx / cache_tw) add
    // onto the network and disk totals.
    double cache_tx = 0.0, cache_tw = 0.0;
    if (cached_pass && cache_mode == CacheMode::NonLocalSite) {
      // Cache site -> compute nodes over the cache pipe.
      const auto& site = *setup.cache_site;
      for (int d = 0; d < cache_nodes; ++d) {
        const auto& v = cache_vol[static_cast<std::size_t>(d)];
        if (v.chunks == 0) continue;
        rec.timing.network = std::max(
            rec.timing.network,
            cache_pipe.transfer(site.wan_to_compute, v.virtual_bytes,
                                v.chunks, cache_nodes,
                                site.cluster.machine.nic.bandwidth_Bps));
      }
    } else if (!cached_pass) {
      for (int d = 0; d < n; ++d) {
        const auto& v = data_vol[static_cast<std::size_t>(d)];
        if (v.chunks == 0) continue;
        rec.timing.network = std::max(
            rec.timing.network,
            repo_pipe.transfer(setup.wan, v.virtual_bytes, v.chunks, n,
                               data_machine.nic.bandwidth_Bps));
      }

      // Populate the cache during the first pass.
      if (cache_mode == CacheMode::LocalDisk && !caches.warm()) {
        for (int j = 0; j < c; ++j) {
          // Chunk views are by-value handles onto the shared payload slabs:
          // the cache ends up holding the actual data without copying it.
          for (std::size_t ci : dest_part.chunks_of(j))
            caches.insert(j, ds.chunk(ci));
          const auto& v = dest_vol[static_cast<std::size_t>(j)];
          if (cfg.charge_cache_write && v.chunks > 0)
            cache_tw = std::max(cache_tw, compute_machine.disk.access_time(
                                              v.virtual_bytes, v.chunks));
        }
        caches.mark_warm();
      } else if (cache_mode == CacheMode::NonLocalSite && !caches.warm()) {
        // Forward the stream to the cache site and write it there.
        const auto& site = *setup.cache_site;
        const double write_bw =
            site.cluster.per_node_retrieval_Bps(cache_nodes);
        for (int d = 0; d < cache_nodes; ++d) {
          const auto& v = cache_vol[static_cast<std::size_t>(d)];
          if (v.chunks == 0) continue;
          cache_tx = std::max(
              cache_tx, forward_pipe.transfer(site.wan_to_compute,
                                              v.virtual_bytes, v.chunks,
                                              cache_nodes,
                                              compute_machine.nic.bandwidth_Bps));
          if (cfg.charge_cache_write)
            cache_tw = std::max(cache_tw,
                                site.cluster.machine.disk.startup_s +
                                    static_cast<double>(v.chunks) *
                                        site.cluster.machine.disk.seek_s +
                                    v.virtual_bytes / write_bw);
        }
        caches.mark_warm();
      }
    }
    rec.timing.network += cache_tx;
    rec.timing.disk += cache_tw;

    // --- Phase 3a: parallel local reduction --------------------------
    // Each compute node runs `threads` workers (cluster-of-SMPs support).
    // Full replication gives every thread its own reduction object and
    // really merges them; the locking strategies share the node object and
    // pay a modeled per-update contention penalty instead.
    const int threads = cfg.threads_per_node;
    FGP_CHECK_MSG(threads <= compute_machine.cores,
                  "threads_per_node=" << threads << " exceeds "
                                      << compute_machine.name << " cores ("
                                      << compute_machine.cores << ")");
    const double lock_penalty =
        cfg.smp_strategy == SmpStrategy::FullLocking            ? 0.12
        : cfg.smp_strategy == SmpStrategy::CacheSensitiveLocking ? 0.025
                                                                 : 0.0;

    objects.clear();
    for (int j = 0; j < c; ++j) objects.push_back(kernel.create_object());

    // Each node's local reduction writes only its own objects[j] and
    // per-node slots, and process_chunk is const on the kernel, so the
    // host pool may run nodes concurrently. Times and work are reduced in
    // node order afterwards to keep every result bit-identical regardless
    // of pool size.
    const auto reduce_node = [&](std::size_t uj) {
      const int j = static_cast<int>(uj);
      double tj = 0.0;
      sim::Work wj;
      if (threads == 1) {
        // Two-level reduction: the node's chunk list splits into fixed
        // kChunksPerBlock blocks, each block reduces into a private object,
        // and partials fold in ascending block order. The host-side merges
        // are bookkeeping only — they charge no virtual time and no work,
        // exactly as if the node had processed its list serially. Blocks
        // fan out over the (nesting-safe) pool when one is attached.
        const auto& node_chunks = dest_part.chunks_of(j);
        const std::size_t m = node_chunks.size();
        const std::size_t nblocks = (m + kChunksPerBlock - 1) / kChunksPerBlock;
        auto& bs = scratch[uj];
        bs.block_objects.clear();
        for (std::size_t b = 1; b < nblocks; ++b)
          bs.block_objects.push_back(kernel.create_object());
        bs.block_time.assign(nblocks, 0.0);
        bs.block_work.assign(nblocks, sim::Work{});
        const auto reduce_block = [&](std::size_t b) {
          // Host IO/compute overlap for streamed datasets: before this
          // block's kernels start, the *next* block's windows are readied
          // asynchronously on the pool, so its fetches hit resident
          // mappings. Pure wall-clock optimization: prefetch touches only
          // the window pool (plus host-domain counters), the fixed block
          // partition and ascending fold order are untouched, and the
          // task captures the refcounted source, so results stay
          // bit-identical to the non-streamed path at any pool size.
          if (streaming_source != nullptr && pool != nullptr) {
            const std::size_t next_begin = (b + 1) * kChunksPerBlock;
            if (next_begin < m) {
              const std::size_t next_end =
                  std::min(m, next_begin + kChunksPerBlock);
              std::vector<std::size_t> targets(
                  node_chunks.begin() +
                      static_cast<std::ptrdiff_t>(next_begin),
                  node_chunks.begin() + static_cast<std::ptrdiff_t>(next_end));
              prefetch_drain.add(pool->submit(
                  [src = streaming_source, targets = std::move(targets)] {
                    for (const std::size_t ci : targets) src->prefetch(ci);
                  }));
            }
          }
          ReductionObject& obj =
              b == 0 ? *objects[j] : *bs.block_objects[b - 1];
          double tb = 0.0;
          sim::Work wb;
          const std::size_t begin = b * kChunksPerBlock;
          const std::size_t end = std::min(m, begin + kChunksPerBlock);
          for (std::size_t k = begin; k < end; ++k) {
            // By value: a streamed chunk owns its bytes only while this
            // handle lives, so the payload is released as soon as the
            // kernel is done with it (flat resident set).
            const repository::Chunk chunk = ds.materialize(node_chunks[k]);
            const sim::Work w = kernel.process_chunk(chunk, obj);
            const sim::Work scaled = chunk.virtual_scale() * w;
            tb += compute_machine.compute_time(scaled);
            wb += scaled;
          }
          bs.block_time[b] = tb;
          bs.block_work[b] = wb;
        };
        if (pool != nullptr && nblocks > 1) {
          pool->parallel_for(nblocks, reduce_block);
        } else {
          for (std::size_t b = 0; b < nblocks; ++b) reduce_block(b);
        }
        for (std::size_t b = 0; b < nblocks; ++b) {
          tj += bs.block_time[b];
          wj += bs.block_work[b];
          // Host merge of a block partial: free in virtual time.
          if (b > 0) kernel.merge(*objects[j], *bs.block_objects[b - 1]);
        }
      } else if (cfg.smp_strategy == SmpStrategy::FullReplication) {
        // One object per thread; chunks round-robin over threads.
        auto& thread_objects = scratch[uj].thread_objects;
        thread_objects.clear();
        for (int th = 1; th < threads; ++th)
          thread_objects.push_back(kernel.create_object());
        auto& thread_time = scratch[uj].thread_time;
        thread_time.assign(static_cast<std::size_t>(threads), 0.0);
        const auto& node_chunks = dest_part.chunks_of(j);
        for (std::size_t k = 0; k < node_chunks.size(); ++k) {
          const int th = static_cast<int>(k % static_cast<std::size_t>(threads));
          ReductionObject& obj =
              th == 0 ? *objects[j]
                      : *thread_objects[static_cast<std::size_t>(th - 1)];
          const repository::Chunk chunk = ds.materialize(node_chunks[k]);
          const sim::Work w = kernel.process_chunk(chunk, obj);
          const sim::Work scaled = chunk.virtual_scale() * w;
          thread_time[static_cast<std::size_t>(th)] +=
              compute_machine.compute_time(scaled);
          wj += scaled;
        }
        for (double tt : thread_time) tj = std::max(tj, tt);
        // Sequential intra-node combine of the thread replicas.
        for (auto& extra : thread_objects) {
          const sim::Work mw = kernel.merge(*objects[j], *extra);
          const sim::Work scaled = obj_scale * mw;
          tj += compute_machine.compute_time(scaled);
          wj += scaled;
        }
      } else {
        // Locking strategies: one shared object, contention on updates.
        auto& thread_time = scratch[uj].thread_time;
        thread_time.assign(static_cast<std::size_t>(threads), 0.0);
        const auto& node_chunks = dest_part.chunks_of(j);
        for (std::size_t k = 0; k < node_chunks.size(); ++k) {
          const repository::Chunk chunk = ds.materialize(node_chunks[k]);
          const sim::Work w = kernel.process_chunk(chunk, *objects[j]);
          const sim::Work scaled = chunk.virtual_scale() * w;
          thread_time[k % static_cast<std::size_t>(threads)] +=
              compute_machine.compute_time(scaled);
          wj += scaled;
        }
        for (double tt : thread_time) tj = std::max(tj, tt);
        tj *= 1.0 + lock_penalty * static_cast<double>(threads - 1);
      }
      if (j < cfg.straggler_count) tj *= cfg.straggler_slowdown;
      node_time[uj] = tj;
      node_work[uj] = wj;
    };
    if (pool) {
      pool->parallel_for(static_cast<std::size_t>(c), reduce_node);
    } else {
      for (int j = 0; j < c; ++j) reduce_node(static_cast<std::size_t>(j));
    }
    // The pass owns its prefetch tasks: wait them out here so none is
    // still touching the window pool (or its metrics registry) after the
    // caller regains control — see PrefetchDrain.
    prefetch_drain.drain();

    // Work partials fold in node order (FP-ordered); the phase time is the
    // slowest node's.
    for (int j = 0; j < c; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      result.total_work += node_work[uj];
      rec.timing.compute_local =
          std::max(rec.timing.compute_local, node_time[uj]);
    }
    rec.node_compute.assign(node_time.begin(), node_time.end());

    // --- Phase 3b: reduction-object gather + merge (serialized) ------
    // Record the master's own object size too: the profile's "r" is the
    // maximum reduction-object size regardless of who sent it.
    gather.clear();
    objects[0]->serialize(gather);
    rec.max_object_bytes = static_cast<double>(gather.size()) * obj_scale;
    for (int j = 1; j < c; ++j) {
      gather.clear();
      objects[j]->serialize(gather);
      const double charged = static_cast<double>(gather.size()) * obj_scale;
      rec.max_object_bytes = std::max(rec.max_object_bytes, charged);
      rec.timing.ro_comm += ipc.message_time(charged);

      const sim::Work mw = kernel.merge(*objects[0], *objects[j]);
      const sim::Work scaled_mw = obj_scale * mw;
      rec.timing.global_red += compute_machine.compute_time(scaled_mw);
      result.total_work += scaled_mw;
    }

    // --- Phase 3c: sequential global reduction + broadcast -----------
    more_passes = false;
    const sim::Work gw = kernel.global_reduce(*objects[0], more_passes);
    const sim::Work scaled_gw = obj_scale * gw;
    rec.timing.global_red += compute_machine.compute_time(scaled_gw);
    result.total_work += scaled_gw;

    // Parameter re-broadcast uses a binomial tree (ceil(log2(c)) rounds),
    // like any reasonable collective implementation.
    const double bb = kernel.broadcast_bytes();
    if (bb > 0.0 && c > 1) {
      int rounds = 0;
      for (int reach = 1; reach < c; reach *= 2) ++rounds;
      rec.timing.ro_comm += static_cast<double>(rounds) * ipc.message_time(bb);
    }

    rec.elapsed =
        cfg.overlap_phases
            ? std::max({rec.timing.disk, rec.timing.network,
                        rec.timing.compute_local}) +
                  rec.timing.ro_comm + rec.timing.global_red
            : rec.timing.total();

    // --- Observability (master thread, deterministic program point) ---
    // All virtual timestamps derive from the finished PassRecord, so the
    // recorded event set is independent of the host pool size.
    const int p = result.passes;
    const char* const source = !cached_pass                        ? "repository"
                               : cache_mode == CacheMode::LocalDisk ? "local-cache"
                                                                    : "cache-site";
    if (trace != nullptr) {
      const double t0 = vclock;
      const double t1 = t0 + rec.timing.disk;
      const double t2 = t1 + rec.timing.network;
      const double t3 = t2 + rec.timing.compute_local;
      const double t4 = t3 + rec.timing.ro_comm;
      const double t5 = t4 + rec.timing.global_red;
      trace->span("pass", "pass " + std::to_string(p), obs::kJobNode, p, t0,
                  t5);
      trace->span("phase", std::string("retrieval/") + source, obs::kJobNode,
                  p, t0, t1);
      trace->span("phase", "network-transfer", obs::kJobNode, p, t1, t2);
      trace->span("phase", "local-reduction", obs::kJobNode, p, t2, t3);
      trace->span("phase", "ro-comm", obs::kJobNode, p, t3, t4);
      trace->span("phase", "global-reduction", obs::kJobNode, p, t4, t5);
      for (int j = 0; j < c; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        trace->span("compute", "local-reduction", j, p, t2,
                    t2 + node_time[uj]);
        if (threads == 1) {
          // Chunk-block decomposition of this node's reduction, as "X"
          // complete events on the node's compute/detail track. The block
          // times exclude the straggler factor (applied to the node total
          // only), so the last block may end before the node span does.
          const auto& bt = scratch[uj].block_time;
          double cursor = t2;
          for (std::size_t b = 0; b < bt.size(); ++b) {
            trace->detail("compute", "block " + std::to_string(b), j, p,
                          cursor, cursor + bt[b]);
            cursor += bt[b];
          }
        }
      }
    }
    if (metrics != nullptr) {
      metrics->add("runtime.passes", 1.0);
      metrics->add(std::string("runtime.chunks.") + source,
                   static_cast<double>(ds.chunk_count()));
      metrics->observe("phase.disk", rec.timing.disk);
      metrics->observe("phase.network", rec.timing.network);
      metrics->observe("phase.compute_local", rec.timing.compute_local);
      metrics->observe("phase.ro_comm", rec.timing.ro_comm);
      metrics->observe("phase.global_red", rec.timing.global_red);
      metrics->set_max("runtime.max_object_bytes", rec.max_object_bytes);
    }
    vclock += rec.timing.total();

    result.timing.elapsed += rec.elapsed;
    result.timing.total += rec.timing;
    result.timing.max_object_bytes =
        std::max(result.timing.max_object_bytes, rec.max_object_bytes);
    result.timing.passes.push_back(rec);
    ++result.passes;
    result.result = std::move(objects[0]);
  }

  return result;
}

}  // namespace fgp::freeride
