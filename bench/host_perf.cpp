// host_perf.cpp — host wall-clock microbenchmark for the blocked kernel
// fast paths, tracked in BENCH_kernels.json at the repo root.
//
// For each of the paper's five applications this runner times one full
// sweep of process_chunk over a synthetic dataset twice: once through the
// kernel's current blocked implementation ("fast") and once through a
// verbatim copy of the seed's naive scalar loop ("naive", quarantined in
// naive_kernels.cpp so the compiler sees the same runtime shapes the seed
// kernels saw). It prints per-kernel per-sweep timings and the geometric-
// mean speedup as JSON. Both paths are cross-checked against each other
// before timing, so a baseline that silently diverges from the kernel
// fails the run instead of producing a meaningless ratio.
//
// A second section times an end-to-end figure sweep (the Figure-2 k-means
// grid) twice: once fully serial and once through bench::SweepRunner over
// the shared pool with the two-level runtime. Both sweeps are cross-checked
// for bit-identical virtual timings and reduction objects before timing
// (DESIGN.md §11), and the wall-clock ratio is tracked in BENCH_sweeps.json.
//
// A third section times the zero-copy data plane (DESIGN.md §13): a
// fig07-style multi-scale sweep derives several virtual sizes from one
// generated dataset, timed as deep payload copies (the pre-shared-slab
// behavior) vs aliasing views, with resident-set deltas for both; and a
// store round-trip timed as streamed load vs mmap-backed load_mapped.
//
// A fourth section measures the out-of-core streaming plane (DESIGN.md
// §15): one generated dataset is replicated 10–100x on disk (payload slabs
// shared in memory, so only the store grows) and scanned through
// DatasetStore::load_streamed under a fixed window budget, recording
// streamed throughput, sampled peak RSS and getrusage(ru_maxrss) growth
// per size — the proof that memory stays flat while the dataset scales.
// The combined report goes to BENCH_dataplane.json (schema
// fgpred-dataplane-v2).
//
// Usage: host_perf [--quick] [--out <path>] [--sweep-out <path>]
//                  [--dataplane-out <path>] [--assert-flat-rss]
//   --quick           smaller datasets + shorter repetitions (CI smoke)
//   --out             write the kernel JSON report to <path> instead of stdout
//   --sweep-out       write the sweep JSON report to <path> instead of stdout
//   --dataplane-out   write the data-plane JSON report to <path>
//   --assert-flat-rss fail (exit nonzero) unless peak RSS growth across the
//                     streaming size ladder stays bounded by the window
//                     budget instead of the dataset size (CI gate)
//
// Wall-clock readings go through util::Stopwatch, the single sanctioned
// clock access point (fgpcheck's wall-clock rule bans the rest in src/).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "apps/defect.h"
#include "apps/em.h"
#include "apps/kmeans.h"
#include "apps/knn.h"
#include "apps/vortex.h"
#include "common.h"
#include "datagen/flowfield.h"
#include "datagen/lattice.h"
#include "datagen/points.h"
#include "freeride/reduction.h"
#include "naive_kernels.h"
#include "obs/metrics.h"
#include "repository/store.h"
#include "util/check.h"
#include "util/serial.h"
#include "util/wallclock.h"

namespace fgp::bench {
namespace {

struct KernelResult {
  std::string name;
  std::size_t chunks = 0;
  std::size_t elements = 0;  ///< points / cells per sweep
  double naive_sweep_s = 0.0;
  double fast_sweep_s = 0.0;
  double speedup() const { return naive_sweep_s / fast_sweep_s; }
};

/// Times one sweep: warm up once, then repeat until `min_seconds` of
/// accumulated runtime and return the mean per-sweep seconds.
template <typename Fn>
double time_sweep(Fn&& fn, double min_seconds) {
  fn();  // warmup (page in the dataset, size the allocator pools)
  int reps = 1;
  for (;;) {
    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) fn();
    const double s = sw.seconds();
    if (s >= min_seconds) return s / reps;
    const double scale = std::min(16.0, 1.2 * min_seconds / std::max(s, 1e-9));
    reps = std::max(reps + 1, static_cast<int>(reps * scale));
  }
}

void check_close(double a, double b, double rel, const char* what) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  FGP_CHECK_MSG(std::abs(a - b) <= rel * scale,
                what << ": fast path (" << a << ") diverged from the naive"
                     << " baseline (" << b << ")");
}

KernelResult bench_kmeans(double min_seconds, bool quick) {
  datagen::PointsSpec spec;
  spec.num_points = quick ? 12000 : 60000;
  spec.dim = 8;
  spec.points_per_chunk = quick ? 4000 : 20000;
  spec.num_components = 8;
  spec.seed = 17;
  const auto data = datagen::generate_points(spec);
  const auto& ds = data.dataset;

  apps::KMeansParams params;
  params.k = 8;
  params.dim = 8;
  params.initial_centers = apps::initial_centers_from_dataset(ds, 8, 8);
  apps::KMeansKernel kernel(params);

  double naive_sse = 0.0;
  const auto naive_sweep = [&] { naive_sse = naive::kmeans_sweep(ds, params); };

  double fast_sse = 0.0;
  const auto fast_sweep = [&] {
    auto obj = kernel.create_object();
    for (const auto& chunk : ds.chunks()) kernel.process_chunk(chunk, *obj);
    fast_sse = dynamic_cast<const apps::KMeansObject&>(*obj).sse;
  };

  naive_sweep();
  fast_sweep();
  check_close(fast_sse, naive_sse, 1e-9, "kmeans sse");

  KernelResult r;
  r.name = "kmeans";
  r.chunks = ds.chunk_count();
  r.elements = spec.num_points;
  r.naive_sweep_s = time_sweep(naive_sweep, min_seconds);
  r.fast_sweep_s = time_sweep(fast_sweep, min_seconds);
  return r;
}

KernelResult bench_em(double min_seconds, bool quick) {
  datagen::PointsSpec spec;
  spec.num_points = quick ? 8000 : 40000;
  spec.dim = 8;
  spec.points_per_chunk = quick ? 4000 : 10000;
  spec.num_components = 4;
  spec.seed = 23;
  const auto data = datagen::generate_points(spec);
  const auto& ds = data.dataset;

  apps::EMParams params;
  params.g = 4;
  params.dim = 8;
  params.initial_means = apps::initial_centers_from_dataset(ds, 4, 8);
  params.initial_variance = 1.0;
  apps::EMKernel kernel(params);

  double naive_loglik = 0.0;
  const auto naive_sweep = [&] { naive_loglik = naive::em_sweep(ds, params); };

  double fast_loglik = 0.0;
  const auto fast_sweep = [&] {
    auto obj = kernel.create_object();
    for (const auto& chunk : ds.chunks()) kernel.process_chunk(chunk, *obj);
    fast_loglik = dynamic_cast<const apps::EMObject&>(*obj).loglik;
  };

  naive_sweep();
  fast_sweep();
  check_close(fast_loglik, naive_loglik, 1e-6, "em loglik");

  KernelResult r;
  r.name = "em";
  r.chunks = ds.chunk_count();
  r.elements = spec.num_points;
  r.naive_sweep_s = time_sweep(naive_sweep, min_seconds);
  r.fast_sweep_s = time_sweep(fast_sweep, min_seconds);
  return r;
}

KernelResult bench_knn(double min_seconds, bool quick) {
  datagen::PointsSpec spec;
  spec.num_points = quick ? 12000 : 60000;
  spec.dim = 8;
  spec.points_per_chunk = quick ? 4000 : 20000;
  spec.num_components = 4;
  spec.seed = 31;
  const auto data = datagen::generate_points(spec);
  const auto& ds = data.dataset;

  apps::KnnParams params;
  params.k = 16;
  params.dim = 8;
  params.queries = apps::initial_centers_from_dataset(ds, 8, 8);
  apps::KnnKernel kernel(params);
  const std::size_t m = params.queries.size() / 8;

  double naive_kth_sum = 0.0;
  const auto naive_sweep = [&] { naive_kth_sum = naive::knn_sweep(ds, params); };

  double fast_kth_sum = 0.0;
  const auto fast_sweep = [&] {
    auto obj = kernel.create_object();
    for (const auto& chunk : ds.chunks()) kernel.process_chunk(chunk, *obj);
    const auto& o = dynamic_cast<const apps::KnnObject&>(*obj);
    fast_kth_sum = 0.0;
    for (std::size_t q = 0; q < m; ++q) fast_kth_sum += o.kth_distance(q);
  };

  naive_sweep();
  fast_sweep();
  check_close(fast_kth_sum, naive_kth_sum, 1e-9, "knn kth distances");

  KernelResult r;
  r.name = "knn";
  r.chunks = ds.chunk_count();
  r.elements = spec.num_points;
  r.naive_sweep_s = time_sweep(naive_sweep, min_seconds);
  r.fast_sweep_s = time_sweep(fast_sweep, min_seconds);
  return r;
}

KernelResult bench_vortex(double min_seconds, bool quick) {
  datagen::FlowSpec spec;
  spec.width = quick ? 192 : 448;
  spec.height = quick ? 192 : 448;
  spec.rows_per_chunk = quick ? 32 : 56;
  spec.num_vortices = 6;
  spec.seed = 41;
  const auto data = datagen::generate_flowfield(spec);
  const auto& ds = data.dataset;

  apps::VortexParams params;
  apps::VortexKernel kernel(params);

  std::uint64_t naive_cells = 0;
  const auto naive_sweep = [&] {
    naive_cells = naive::vortex_sweep(ds, params);
  };

  std::uint64_t fast_cells = 0;
  const auto fast_sweep = [&] {
    auto obj = kernel.create_object();
    for (const auto& chunk : ds.chunks()) kernel.process_chunk(chunk, *obj);
    const auto& o = dynamic_cast<const apps::VortexObject&>(*obj);
    fast_cells = 0;
    for (const auto& f : o.fragments) fast_cells += f.cells;
  };

  naive_sweep();
  fast_sweep();
  FGP_CHECK_MSG(fast_cells == naive_cells,
                "vortex marked-cell totals diverged: fast="
                    << fast_cells << " naive=" << naive_cells);

  KernelResult r;
  r.name = "vortex";
  r.chunks = ds.chunk_count();
  r.elements = static_cast<std::size_t>(spec.width) * spec.height;
  r.naive_sweep_s = time_sweep(naive_sweep, min_seconds);
  r.fast_sweep_s = time_sweep(fast_sweep, min_seconds);
  return r;
}

KernelResult bench_defect(double min_seconds, bool quick) {
  datagen::LatticeSpec spec;
  spec.nx = quick ? 40 : 72;
  spec.ny = quick ? 40 : 72;
  spec.nz = quick ? 40 : 72;
  spec.zslabs_per_chunk = 12;
  spec.seed = 47;
  const auto data = datagen::generate_lattice(spec);
  const auto& ds = data.dataset;

  apps::DefectKernel kernel;

  std::size_t naive_structs = 0;
  const auto naive_sweep = [&] { naive_structs = naive::defect_sweep(ds); };

  std::size_t fast_structs = 0;
  const auto fast_sweep = [&] {
    auto obj = kernel.create_object();
    for (const auto& chunk : ds.chunks()) kernel.process_chunk(chunk, *obj);
    fast_structs =
        dynamic_cast<const apps::DefectObject&>(*obj).structures.size();
  };

  naive_sweep();
  fast_sweep();
  FGP_CHECK_MSG(fast_structs == naive_structs,
                "defect structure counts diverged: fast="
                    << fast_structs << " naive=" << naive_structs);

  KernelResult r;
  r.name = "defect";
  r.chunks = ds.chunk_count();
  r.elements = static_cast<std::size_t>(spec.nx) * spec.ny * spec.nz;
  r.naive_sweep_s = time_sweep(naive_sweep, min_seconds);
  r.fast_sweep_s = time_sweep(fast_sweep, min_seconds);
  return r;
}

struct SweepResult {
  std::string name;
  std::size_t configs = 0;
  unsigned host_cores = 0;
  double serial_sweep_s = 0.0;
  double twolevel_sweep_s = 0.0;
  double speedup() const { return serial_sweep_s / twolevel_sweep_s; }
};

/// Times the Figure-2-style k-means grid end to end: fully serial vs the
/// SweepRunner + two-level runtime over the shared pool. The two modes are
/// first cross-checked for bit-identical virtual timings and reduction
/// objects, so the ratio below always compares equal work.
SweepResult bench_sweep(double min_seconds, bool quick) {
  const auto app = quick ? make_kmeans_app(80.0, 1.0, 42, /*passes=*/2)
                         : make_kmeans_app(1400.0, 4.0, 42, /*passes=*/10);
  const auto cluster = sim::cluster_pentium_myrinet();
  const auto wan = sim::wan_mbps(800.0);
  const std::vector<NodeConfig> grid = paper_grid();

  const SweepRunner serial_mode(nullptr);
  const SweepRunner pooled_mode;  // process-wide shared pool

  const auto run_grid = [&](const SweepRunner& runner) {
    return runner.map(grid.size(), [&](std::size_t i) {
      return simulate(app, cluster, cluster, wan, grid[i], false,
                      runner.pool());
    });
  };

  const auto serial_results = run_grid(serial_mode);
  const auto pooled_results = run_grid(pooled_mode);
  util::ByteWriter wa, wb;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& a = serial_results[i];
    const auto& b = pooled_results[i];
    FGP_CHECK_MSG(a.timing.elapsed == b.timing.elapsed &&
                      a.timing.total.total() == b.timing.total.total(),
                  "sweep config " << grid[i].n << "-" << grid[i].c
                                  << ": virtual timings diverged between "
                                     "serial and two-level execution");
    wa.clear();
    wb.clear();
    a.result->serialize(wa);
    b.result->serialize(wb);
    FGP_CHECK_MSG(wa.bytes() == wb.bytes(),
                  "sweep config " << grid[i].n << "-" << grid[i].c
                                  << ": reduction objects diverged between "
                                     "serial and two-level execution");
  }

  SweepResult r;
  r.name = "kmeans-grid";
  r.configs = grid.size();
  r.host_cores = std::thread::hardware_concurrency();
  r.serial_sweep_s = time_sweep([&] { run_grid(serial_mode); }, min_seconds);
  r.twolevel_sweep_s = time_sweep([&] { run_grid(pooled_mode); }, min_seconds);
  return r;
}

/// Current resident set size in bytes via /proc/self/statm (0 where the
/// proc filesystem or sysconf is unavailable).
double resident_bytes() {
#if defined(__unix__)
  std::ifstream statm("/proc/self/statm");
  std::uint64_t vm_pages = 0;
  std::uint64_t rss_pages = 0;
  if (!(statm >> vm_pages >> rss_pages)) return 0.0;
  return static_cast<double>(rss_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

/// Rebuilds `ds` with owned payload copies — the pre-shared-slab cost of
/// giving a concurrent sweep point its own rescalable dataset (allocate,
/// copy, re-checksum every chunk).
repository::ChunkedDataset deep_copy_dataset(
    const repository::ChunkedDataset& ds) {
  repository::ChunkedDataset out(ds.meta());
  for (const auto& c : ds.chunks()) {
    const auto bytes = c.payload();
    out.add_chunk(repository::Chunk(
        c.id(), std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
        c.virtual_scale()));
  }
  return out;
}

struct DataPlaneResult {
  std::string name;
  std::size_t chunks = 0;
  double payload_bytes = 0.0;  ///< real bytes moved per baseline sweep
  double baseline_s = 0.0;
  double zerocopy_s = 0.0;
  double baseline_rss_delta = 0.0;
  double zerocopy_rss_delta = 0.0;
  double speedup() const { return baseline_s / zerocopy_s; }
};

/// Times a fig07-style multi-scale sweep's data plane: four virtual sizes
/// derived from one generated EM dataset, once by deep-copying + rescaling
/// (what concurrent scale points required when virtual_scale was chunk
/// state) and once as aliasing views. Both variants are cross-checked for
/// identical ids, checksums and virtual totals before timing.
DataPlaneResult bench_clone_rescale(double min_seconds, bool quick) {
  const auto app = quick ? make_em_app(350.0, 1.0, 42, /*passes=*/2)
                         : make_em_app(350.0, 4.0, 42, /*passes=*/2);
  const auto& ds = *app.dataset;
  const std::vector<double> scales_mb = {350.0, 700.0, 1050.0, 1400.0};
  const double real = static_cast<double>(ds.total_real_bytes());

  {
    const double scale = scales_mb[1] * 1e6 / real;
    const auto view = ds.with_uniform_virtual_scale(scale);
    auto copy = deep_copy_dataset(ds);
    copy.set_uniform_virtual_scale(scale);
    FGP_CHECK(view.chunk_count() == copy.chunk_count());
    FGP_CHECK(view.total_virtual_bytes() == copy.total_virtual_bytes());
    for (std::size_t i = 0; i < view.chunk_count(); ++i) {
      FGP_CHECK(view.chunk(i).id() == copy.chunk(i).id());
      FGP_CHECK(view.chunk(i).checksum() == copy.chunk(i).checksum());
      FGP_CHECK(view.chunk(i).virtual_bytes() == copy.chunk(i).virtual_bytes());
      // The view aliases the original slabs; the deep copy owns fresh ones.
      FGP_CHECK(view.chunk(i).payload().data() == ds.chunk(i).payload().data());
      FGP_CHECK(copy.chunk(i).payload().data() != ds.chunk(i).payload().data());
    }
  }

  double sink = 0.0;
  const auto baseline = [&] {
    for (double mb : scales_mb) {
      auto copy = deep_copy_dataset(ds);
      copy.set_uniform_virtual_scale(mb * 1e6 / real);
      sink += copy.total_virtual_bytes();
    }
  };
  const auto zerocopy = [&] {
    for (double mb : scales_mb)
      sink +=
          ds.with_uniform_virtual_scale(mb * 1e6 / real).total_virtual_bytes();
  };

  DataPlaneResult r;
  r.name = "clone-rescale";
  r.chunks = ds.chunk_count();
  r.payload_bytes = real * static_cast<double>(scales_mb.size());
  r.baseline_s = time_sweep(baseline, min_seconds);
  r.zerocopy_s = time_sweep(zerocopy, min_seconds);

  // Peak-RSS effect of holding every scale point at once, as a concurrent
  // sweep does. Views first, so retained allocator arenas from the deep
  // copies cannot inflate the view-side reading.
  {
    std::vector<repository::ChunkedDataset> held;
    const double before = resident_bytes();
    for (double mb : scales_mb)
      held.push_back(ds.with_uniform_virtual_scale(mb * 1e6 / real));
    r.zerocopy_rss_delta = std::max(0.0, resident_bytes() - before);
  }
  {
    std::vector<repository::ChunkedDataset> held;
    const double before = resident_bytes();
    for (double mb : scales_mb) {
      held.push_back(deep_copy_dataset(ds));
      held.back().set_uniform_virtual_scale(mb * 1e6 / real);
    }
    r.baseline_rss_delta = std::max(0.0, resident_bytes() - before);
  }
  FGP_CHECK_MSG(sink > 0.0, "data-plane sweeps produced no work");
  return r;
}

/// Times a store round trip: streamed load (one heap buffer per chunk) vs
/// load_mapped (chunks alias the mapped files). Both loads are
/// cross-checked for byte-identical payloads before timing.
DataPlaneResult bench_store_load(double min_seconds, bool quick) {
  const auto app = quick ? make_em_app(350.0, 1.0, 43, /*passes=*/2)
                         : make_em_app(350.0, 4.0, 43, /*passes=*/2);
  const auto& ds = *app.dataset;
  const auto root =
      std::filesystem::temp_directory_path() / "fgp_dataplane_store";
  const repository::DatasetStore store(root);
  store.save(ds);

  const auto streamed = store.load(ds.meta().name);
  const auto mapped = store.load_mapped(ds.meta().name);
  FGP_CHECK(streamed.chunk_count() == mapped.chunk_count());
  for (std::size_t i = 0; i < streamed.chunk_count(); ++i) {
    const auto a = streamed.chunk(i).payload();
    const auto b = mapped.chunk(i).payload();
    FGP_CHECK_MSG(a.size() == b.size() &&
                      std::equal(a.begin(), a.end(), b.begin()),
                  "chunk " << i << ": streamed and mapped loads diverged");
    FGP_CHECK(streamed.chunk(i).checksum() == mapped.chunk(i).checksum());
  }

  DataPlaneResult r;
  r.name = "store-load";
  r.chunks = ds.chunk_count();
  r.payload_bytes = static_cast<double>(ds.total_real_bytes());
  r.baseline_s = time_sweep([&] { store.load(ds.meta().name); }, min_seconds);
  r.zerocopy_s =
      time_sweep([&] { store.load_mapped(ds.meta().name); }, min_seconds);
  store.remove(ds.meta().name);
  return r;
}

/// Process-lifetime peak resident set in bytes via getrusage (0 where
/// unavailable). Monotone: growth between two readings bounds how much the
/// peak moved in between — the flat-RSS proof compares readings taken
/// after each streaming size.
double peak_rss_bytes() {
#if defined(__unix__)
  struct rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux reports KB
#else
  return 0.0;
#endif
}

struct StreamingResult {
  std::string name;
  std::size_t chunks = 0;
  double payload_bytes = 0.0;  ///< real bytes on disk (and per scan)
  std::size_t budget_bytes = 0;
  std::size_t window_bytes = 0;
  double streamed_s = 0.0;  ///< one full materializing scan
  double sampled_rss_delta = 0.0;  ///< statm peak during one scan
  double ru_maxrss_delta = 0.0;    ///< peak growth vs the smallest size
  double prefetch_hits = 0.0;
  double prefetch_misses = 0.0;
  double window_recycles = 0.0;
  double stitched_chunks = 0.0;
  double bytes_per_second() const { return payload_bytes / streamed_s; }
};

/// `base` replicated `factor` times under a new name: every replica chunk
/// aliases the original payload slab (DESIGN.md §13), so the in-memory
/// cost of building a 100x dataset stays one copy of the base — only the
/// saved store grows. Chunk ids are renumbered to stay unique.
repository::ChunkedDataset replicate_dataset(
    const repository::ChunkedDataset& base, std::size_t factor,
    const std::string& name) {
  repository::DatasetMeta meta = base.meta();
  meta.name = name;
  repository::ChunkedDataset out(meta);
  repository::ChunkId next = 0;
  for (std::size_t rep = 0; rep < factor; ++rep)
    for (const auto& c : base.chunks())
      out.add_chunk(
          repository::Chunk(next++, c.payload_buffer(), c.virtual_scale()));
  return out;
}

/// The out-of-core streaming ladder (DESIGN.md §15): one generated point
/// dataset, replicated x1 .. x40 on disk, scanned through load_streamed
/// under a fixed window budget. Records streamed throughput and two
/// independent memory readings per size (sampled /proc RSS during the
/// scan, getrusage peak growth after it). With `assert_flat_rss` the
/// ladder FAILS unless the largest size is >=10x the smallest and peak
/// growth beyond the smallest size stays bounded by the window budget —
/// i.e. memory is flat in the dataset size. An EM job over the same
/// streamed plane is cross-checked bit-identical to its in-memory run
/// first, so the numbers always describe correct streaming.
std::vector<StreamingResult> bench_streaming(double min_seconds, bool quick,
                                             bool assert_flat_rss) {
  obs::Registry metrics;
  repository::StreamConfig cfg;  // default 8 MiB budget, 256 KiB windows

  // Correctness gate: runtime passes over the streamed plane (block
  // prefetch overlapping kernel compute on the shared pool) must be
  // bit-identical to the in-memory dataset.
  {
    const auto app = quick ? make_em_app(80.0, 1.0, 42, /*passes=*/2)
                           : make_em_app(350.0, 4.0, 42, /*passes=*/2);
    const auto streamed = streamed_copy(app, cfg.budget_bytes, &metrics);
    const auto cluster = sim::cluster_pentium_myrinet();
    const auto wan = sim::wan_mbps(800.0);
    const auto mem = simulate(app, cluster, cluster, wan, {2, 4});
    const auto str = simulate(streamed, cluster, cluster, wan, {2, 4});
    util::ByteWriter wa, wb;
    mem.result->serialize(wa);
    str.result->serialize(wb);
    FGP_CHECK_MSG(
        mem.timing.elapsed == str.timing.elapsed && wa.bytes() == wb.bytes(),
        "streamed EM run diverged from the in-memory run");
  }

  datagen::PointsSpec spec;
  spec.num_points = quick ? 20000 : 40000;
  spec.dim = 8;
  spec.points_per_chunk = quick ? 2000 : 4000;
  spec.num_components = 4;
  spec.seed = 71;
  const auto base = datagen::generate_points(spec);

  const auto root =
      std::filesystem::temp_directory_path() / "fgp_streaming_ladder";
  const repository::DatasetStore store(root, nullptr, &metrics);
  const std::vector<std::size_t> factors =
      quick ? std::vector<std::size_t>{1, 4, 10}
            : std::vector<std::size_t>{1, 10, 40};

  std::vector<StreamingResult> results;
  double sink = 0.0;
  double ru_base = 0.0;
  for (const std::size_t factor : factors) {
    const std::string name = "points-x" + std::to_string(factor);
    store.save(replicate_dataset(base.dataset, factor, name));
    const auto ds = store.load_streamed(name, cfg);

    const auto scan = [&] {
      double bytes = 0.0;
      for (std::size_t i = 0; i < ds.chunk_count(); ++i)
        bytes += static_cast<double>(ds.materialize(i).payload().size());
      sink += bytes;
    };

    StreamingResult r;
    r.name = name;
    r.chunks = ds.chunk_count();
    r.payload_bytes = static_cast<double>(ds.total_real_bytes());
    r.budget_bytes = cfg.budget_bytes;
    r.window_bytes = cfg.window_bytes;
    const double hits0 = metrics.host_value("store.prefetch_hits");
    const double miss0 = metrics.host_value("store.prefetch_misses");
    const double rec0 = metrics.host_value("store.window_recycles");
    const double stitch0 = metrics.value("store.stitched_chunks");
    r.streamed_s = time_sweep(scan, min_seconds);

    // One extra scan with per-chunk RSS sampling: the high-water mark the
    // stream actually reaches while chunks materialize and drop.
    {
      const double before = resident_bytes();
      double peak = before;
      for (std::size_t i = 0; i < ds.chunk_count(); ++i) {
        sink += static_cast<double>(ds.materialize(i).payload().size());
        peak = std::max(peak, resident_bytes());
      }
      r.sampled_rss_delta = std::max(0.0, peak - before);
    }
    r.prefetch_hits = metrics.host_value("store.prefetch_hits") - hits0;
    r.prefetch_misses = metrics.host_value("store.prefetch_misses") - miss0;
    r.window_recycles = metrics.host_value("store.window_recycles") - rec0;
    r.stitched_chunks = metrics.value("store.stitched_chunks") - stitch0;

    if (results.empty()) {
      // The smallest size's run absorbs every one-time allocation (pools,
      // window budget, allocator arenas); later sizes are measured as
      // growth beyond this baseline.
      ru_base = peak_rss_bytes();
      r.ru_maxrss_delta = 0.0;
    } else {
      r.ru_maxrss_delta = std::max(0.0, peak_rss_bytes() - ru_base);
    }
    results.push_back(r);
    store.remove(name);
  }
  FGP_CHECK_MSG(sink > 0.0, "streaming scans produced no work");

  if (assert_flat_rss) {
    FGP_CHECK_MSG(
        results.back().payload_bytes >= 10.0 * results.front().payload_bytes,
        "streaming ladder spans less than 10x: "
            << results.front().payload_bytes << " .. "
            << results.back().payload_bytes);
    const double bound =
        std::max(64.0 * 1024.0 * 1024.0,
                 4.0 * static_cast<double>(cfg.budget_bytes));
    for (std::size_t i = 1; i < results.size(); ++i) {
      FGP_CHECK_MSG(results[i].ru_maxrss_delta <= bound,
                    results[i].name << ": peak RSS grew by "
                                    << results[i].ru_maxrss_delta
                                    << " bytes over the x"
                                    << factors.front()
                                    << " baseline (bound " << bound
                                    << ") — streaming is not flat");
    }
  }
  return results;
}

std::string to_dataplane_json(const std::vector<DataPlaneResult>& results,
                              const std::vector<StreamingResult>& streaming,
                              bool quick) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"fgpred-dataplane-v2\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"mmap\": "
     << (fgp::repository::PayloadBuffer::mmap_supported() ? "true" : "false")
     << ",\n";
  os << "  \"dataplane\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"chunks\": " << r.chunks << ",\n";
    os << "      \"payload_bytes\": " << r.payload_bytes << ",\n";
    os << "      \"baseline_seconds\": " << r.baseline_s << ",\n";
    os << "      \"zerocopy_seconds\": " << r.zerocopy_s << ",\n";
    os << "      \"baseline_bytes_per_second\": "
       << r.payload_bytes / r.baseline_s << ",\n";
    os << "      \"zerocopy_bytes_per_second\": "
       << r.payload_bytes / r.zerocopy_s << ",\n";
    os << "      \"baseline_rss_delta_bytes\": " << r.baseline_rss_delta
       << ",\n";
    os << "      \"zerocopy_rss_delta_bytes\": " << r.zerocopy_rss_delta
       << ",\n";
    os << "      \"speedup\": " << r.speedup() << "\n";
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"streaming\": [\n";
  for (std::size_t i = 0; i < streaming.size(); ++i) {
    const auto& s = streaming[i];
    const double issued = s.prefetch_hits + s.prefetch_misses;
    os << "    {\n";
    os << "      \"name\": \"" << s.name << "\",\n";
    os << "      \"chunks\": " << s.chunks << ",\n";
    os << "      \"payload_bytes\": " << s.payload_bytes << ",\n";
    os << "      \"budget_bytes\": " << s.budget_bytes << ",\n";
    os << "      \"window_bytes\": " << s.window_bytes << ",\n";
    os << "      \"streamed_seconds\": " << s.streamed_s << ",\n";
    os << "      \"streamed_bytes_per_second\": " << s.bytes_per_second()
       << ",\n";
    os << "      \"sampled_rss_delta_bytes\": " << s.sampled_rss_delta
       << ",\n";
    os << "      \"ru_maxrss_delta_bytes\": " << s.ru_maxrss_delta << ",\n";
    os << "      \"prefetch_hits\": " << s.prefetch_hits << ",\n";
    os << "      \"prefetch_misses\": " << s.prefetch_misses << ",\n";
    os << "      \"prefetch_hit_rate\": "
       << (issued > 0.0 ? s.prefetch_hits / issued : 0.0) << ",\n";
    os << "      \"window_recycles\": " << s.window_recycles << ",\n";
    os << "      \"stitched_chunks\": " << s.stitched_chunks << "\n";
    os << "    }" << (i + 1 < streaming.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string to_sweep_json(const std::vector<SweepResult>& results,
                          bool quick) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"fgpred-sweep-perf-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cores\": " << (results.empty() ? 0 : results[0].host_cores)
     << ",\n";
  os << "  \"note\": \"sweep speedup scales with host_cores (the grid "
        "configurations are independent); on 1 core the two-level path can "
        "only break even. bench_diff refuses comparisons across different "
        "host_cores.\",\n";
  os << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"configs\": " << r.configs << ",\n";
    os << "      \"serial_sweep_seconds\": " << r.serial_sweep_s << ",\n";
    os << "      \"twolevel_sweep_seconds\": " << r.twolevel_sweep_s << ",\n";
    os << "      \"speedup\": " << r.speedup() << "\n";
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string to_json(const std::vector<KernelResult>& results, bool quick) {
  double log_sum = 0.0;
  for (const auto& r : results) log_sum += std::log(r.speedup());
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));

  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"fgpred-host-perf-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double elems = static_cast<double>(r.elements);
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"chunks\": " << r.chunks << ",\n";
    os << "      \"elements\": " << r.elements << ",\n";
    os << "      \"naive_sweep_seconds\": " << r.naive_sweep_s << ",\n";
    os << "      \"fast_sweep_seconds\": " << r.fast_sweep_s << ",\n";
    os << "      \"naive_elements_per_second\": " << elems / r.naive_sweep_s
       << ",\n";
    os << "      \"fast_elements_per_second\": " << elems / r.fast_sweep_s
       << ",\n";
    os << "      \"speedup\": " << r.speedup() << "\n";
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"geomean_speedup\": " << geomean << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace
}  // namespace fgp::bench

int main(int argc, char** argv) {
  bool quick = false;
  bool assert_flat_rss = false;
  std::string out_path;
  std::string sweep_out_path;
  std::string dataplane_out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--assert-flat-rss") == 0) {
      assert_flat_rss = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-out") == 0 && i + 1 < argc) {
      sweep_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dataplane-out") == 0 && i + 1 < argc) {
      dataplane_out_path = argv[++i];
    } else {
      std::cerr << "usage: host_perf [--quick] [--out <path>] "
                   "[--sweep-out <path>] [--dataplane-out <path>] "
                   "[--assert-flat-rss]\n";
      return 2;
    }
  }
  const double min_seconds = quick ? 0.02 : 0.2;

  std::vector<fgp::bench::KernelResult> results;
  results.push_back(fgp::bench::bench_kmeans(min_seconds, quick));
  std::cerr << "kmeans: " << results.back().speedup() << "x\n";
  results.push_back(fgp::bench::bench_em(min_seconds, quick));
  std::cerr << "em: " << results.back().speedup() << "x\n";
  results.push_back(fgp::bench::bench_knn(min_seconds, quick));
  std::cerr << "knn: " << results.back().speedup() << "x\n";
  results.push_back(fgp::bench::bench_vortex(min_seconds, quick));
  std::cerr << "vortex: " << results.back().speedup() << "x\n";
  results.push_back(fgp::bench::bench_defect(min_seconds, quick));
  std::cerr << "defect: " << results.back().speedup() << "x\n";

  const std::string json = fgp::bench::to_json(results, quick);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(out_path);
    f << json;
    std::cerr << "wrote " << out_path << "\n";
  }

  std::vector<fgp::bench::SweepResult> sweeps;
  sweeps.push_back(fgp::bench::bench_sweep(min_seconds, quick));
  std::cerr << "sweep " << sweeps.back().name << " ("
            << sweeps.back().host_cores
            << " cores): " << sweeps.back().speedup() << "x\n";
  const std::string sweep_json = fgp::bench::to_sweep_json(sweeps, quick);
  if (sweep_out_path.empty()) {
    std::cout << sweep_json;
  } else {
    std::ofstream f(sweep_out_path);
    f << sweep_json;
    std::cerr << "wrote " << sweep_out_path << "\n";
  }

  std::vector<fgp::bench::DataPlaneResult> dataplane;
  dataplane.push_back(fgp::bench::bench_clone_rescale(min_seconds, quick));
  std::cerr << "dataplane " << dataplane.back().name << ": "
            << dataplane.back().speedup() << "x\n";
  dataplane.push_back(fgp::bench::bench_store_load(min_seconds, quick));
  std::cerr << "dataplane " << dataplane.back().name << ": "
            << dataplane.back().speedup() << "x\n";
  const auto streaming =
      fgp::bench::bench_streaming(min_seconds, quick, assert_flat_rss);
  for (const auto& s : streaming)
    std::cerr << "streaming " << s.name << ": "
              << s.bytes_per_second() / 1e6 << " MB/s, ru_maxrss growth "
              << s.ru_maxrss_delta / 1e6 << " MB\n";
  const std::string dataplane_json =
      fgp::bench::to_dataplane_json(dataplane, streaming, quick);
  if (dataplane_out_path.empty()) {
    std::cout << dataplane_json;
  } else {
    std::ofstream f(dataplane_out_path);
    f << dataplane_json;
    std::cerr << "wrote " << dataplane_out_path << "\n";
  }
  return 0;
}
