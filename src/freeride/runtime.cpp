#include "freeride/runtime.h"

#include <algorithm>
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

// Every data tier (repository, local disk, cache site) charges its reads
// and its transfers through these two: one segment per node that holds
// chunks, and the phase takes as long as the slowest node (DESIGN.md §4).

/// The slowest node's read (or write) of its volume at `bw` bytes/s.
double read_time(const std::vector<NodeVolume>& volumes,
                 const sim::DiskSpec& disk, double bw) {
  double t = 0.0;
  for (const auto& v : volumes) {
    if (v.chunks == 0) continue;
    t = std::max(t, disk.access_time(v.virtual_bytes,
                                     static_cast<double>(v.chunks), bw));
  }
  return t;
}

/// The slowest sender's transfer of its volume over `wan`, one message per
/// chunk. Each transfer adds to wan.<pipe>.{bytes,messages,transfers}.
double send_time(const std::vector<NodeVolume>& volumes,
                 const sim::WanSpec& wan, double nic_Bps,
                 obs::Registry* metrics, const char* pipe) {
  const int senders = static_cast<int>(volumes.size());
  const std::string base = std::string("wan.") + pipe;
  double t = 0.0;
  for (const auto& v : volumes) {
    if (v.chunks == 0) continue;
    const auto messages = static_cast<double>(v.chunks);
    t = std::max(t, wan.transfer_time(v.virtual_bytes, messages, senders,
                                      nic_Bps));
    if (metrics != nullptr) {
      metrics->add(base + ".bytes", v.virtual_bytes);
      metrics->add(base + ".messages", messages);
      metrics->add(base + ".transfers", 1.0);
    }
  }
  return t;
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
  obs::TraceRecorder* const trace = setup.trace;
  obs::Registry* const metrics = setup.metrics;
  const obs::HostSpan run_span(trace, "runtime", "run");

  // Virtual-time cursor for the trace: passes (and phases within a pass)
  // are laid out additively, matching TimingBreakdown::total(). With
  // overlap_phases the *elapsed* accounting shrinks but the decomposition
  // — which is what the trace visualizes — is unchanged.
  double vclock = 0.0;

  // Host thread pool for the local-reduction phase, borrowed from the
  // caller. One pool serves every pass; the work partition never depends
  // on its size, so any pool (or none) yields bit-identical results.
  util::ThreadPool* const pool = pool_;

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

  // Each tier's read rate: the repository's and the cache site's nodes
  // share their storage backplane; a compute node reads its own disk.
  const double repo_bw = setup.data_cluster.per_node_retrieval_Bps(n);
  const double local_bw = compute_machine.disk.effective_bandwidth();
  const double site_bw =
      cache_mode == CacheMode::NonLocalSite
          ? setup.cache_site->cluster.per_node_retrieval_Bps(cache_nodes)
          : 0.0;

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

  // Set by the first pass, which reads from the repository and, under a
  // cache mode, writes every chunk to the cache tier that later passes
  // read from.
  bool cache_warm = false;
  bool more_passes = true;
  while (more_passes && result.passes < cfg.max_passes) {
    PassRecord rec;
    const bool cached_pass = cache_mode != CacheMode::None && cache_warm;
    rec.from_cache = cached_pass;

    // --- Phases 1-2: data retrieval and data communication -----------
    if (!cached_pass) {
      rec.timing.disk = read_time(data_vol, data_machine.disk, repo_bw);
      if (result.passes == 0) {
        // Verify chunk checksums on receipt (the data-communication role).
        // Checksums are independent per chunk, so the sweep fans out over
        // the host pool; parallel_for rethrows the lowest-index failure,
        // keeping the reported chunk deterministic. The sweep covers
        // resident payloads only: the fetch that hands an unloaded
        // streamed chunk to the kernel verifies its checksum (DESIGN.md
        // §15), so sweeping it too would fetch and hash it once more.
        const auto verify_chunk = [&ds](std::size_t ci) {
          const repository::Chunk& chunk = ds.chunk(ci);
          if (!chunk.loaded() && ds.streamed()) return;
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
      rec.timing.network =
          send_time(data_vol, setup.wan, data_machine.nic.bandwidth_Bps,
                    metrics, "repo-compute");

      // The first pass populates the cache: each compute node writes its
      // whole share to local disk, or the stream is forwarded to the
      // cache site and written there. The slowest write (and forward)
      // adds onto the pass's disk (and network) time.
      if (cache_mode == CacheMode::LocalDisk) {
        if (metrics != nullptr) {
          for (int j = 0; j < c; ++j) {
            for (std::size_t ci : dest_part.chunks_of(j)) {
              metrics->add("cache.inserted_chunks", 1.0);
              metrics->add("cache.inserted_bytes",
                           ds.chunk(ci).virtual_bytes());
            }
          }
        }
        rec.timing.disk += read_time(dest_vol, compute_machine.disk, local_bw);
      } else if (cache_mode == CacheMode::NonLocalSite) {
        const auto& site = *setup.cache_site;
        rec.timing.network +=
            send_time(cache_vol, site.wan_to_compute,
                      compute_machine.nic.bandwidth_Bps, metrics,
                      "compute-cache");
        rec.timing.disk +=
            read_time(cache_vol, site.cluster.machine.disk, site_bw);
      }
      cache_warm = true;
    } else if (cache_mode == CacheMode::LocalDisk) {
      // Each compute node reads its share back from local disk.
      rec.timing.disk = read_time(dest_vol, compute_machine.disk, local_bw);
    } else {
      // The cache site's nodes read their partitions and ship them over
      // the cache pipe.
      const auto& site = *setup.cache_site;
      rec.timing.disk =
          read_time(cache_vol, site.cluster.machine.disk, site_bw);
      rec.timing.network =
          send_time(cache_vol, site.wan_to_compute,
                    site.cluster.machine.nic.bandwidth_Bps, metrics,
                    "cache-compute");
    }

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
