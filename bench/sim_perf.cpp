// sim_perf.cpp — scaling ladder for the discrete-event simulation core,
// tracked in BENCH_sim.json at the repo root.
//
// The phase-structured engine did work proportional to nodes × phases, so
// scenario scale stopped at the paper's 8×16 grid. The event engine's cost
// is proportional to *events* (state changes), so a thousand-machine grid
// where almost nothing changes per step costs almost nothing. This bench
// makes that claim falsifiable: a ladder of 128 → 4,096 heterogeneous
// machines drives a fixed transfer count through eight contended
// SharedPipe WAN repositories (a bounded in-flight window cycling over all
// nodes, plus one startup compute event per machine), and records
// wall-clock per rung. Because the event count is fixed and only the heap
// depth grows with the fleet, wall-clock growth across the ladder must be
// sub-linear in node count — if it turns linear, per-node work leaked back
// into the event loop.
//
// Determinism: before timing, the smallest rung runs twice and the bit
// pattern of every completion time is folded into a checksum that must
// match exactly — a nondeterministic engine must fail the run, not get
// timed. Each rung's checksum is also recorded in the report.
//
// Usage: sim_perf [--quick] [--nodes <n>] [--out <path>]
//                 [--trace-out <path>] [--metrics-out <path>]
//   --quick        short ladder + fewer transfers (CI smoke)
//   --nodes <n>    replace the ladder with the single rung of n machines
//   --out          write the JSON report to <path> instead of stdout
//   --trace-out    write the largest rung's queue-depth trace
//                  (fgpred-trace-v1, validatable by fgptrace --validate)
//   --metrics-out  write the largest rung's obs::Registry snapshot
//                  (fgpred-metrics-v1)
//
// Wall-clock readings go through util::Stopwatch, the single sanctioned
// clock access point (fgpcheck's wall-clock rule bans the rest in src/).
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_engine.h"
#include "sim/network.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/wallclock.h"

namespace fgp::bench {
namespace {

constexpr int kPipes = 8;              ///< contended WAN repositories
constexpr std::size_t kWindow = 256;   ///< in-flight transfer window

struct RungResult {
  int nodes = 0;
  std::uint64_t transfers = 0;
  std::uint64_t events = 0;            ///< events dispatched
  std::uint64_t recomputes = 0;        ///< fair-share recomputations
  std::size_t heap_peak = 0;
  double virtual_end_s = 0.0;          ///< virtual clock at drain
  double wall_s = 0.0;
  double events_per_second = 0.0;
  std::uint64_t checksum = 0;          ///< xor-fold of completion bits
};

/// One heterogeneous fleet: per-node NIC rates cycle over four hardware
/// generations with deterministic per-node jitter, and each repository
/// pipe gets its own bandwidth/latency point.
struct Fleet {
  std::vector<double> nic_Bps;
  std::vector<sim::WanSpec> pipe_specs;
};

Fleet make_fleet(int nodes) {
  Fleet fleet;
  util::Rng rng(0x51e9f00d);
  fleet.nic_Bps.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    // Slow enough that the per-node NIC genuinely binds against the pipe
    // shares for the older generations — node identity must matter, or
    // the ladder degenerates into identical rungs.
    static constexpr double kGenerations[] = {2e6, 4e6, 8e6, 16e6};
    const double base = kGenerations[n % 4];
    fleet.nic_Bps.push_back(base * rng.uniform(0.75, 1.0));
  }
  for (int p = 0; p < kPipes; ++p) {
    sim::WanSpec wan;
    wan.per_link_Bps = 4e6 * (1 + p % 4);
    wan.aggregate_cap_Bps = wan.per_link_Bps * 12.0;
    wan.latency_s = 0.002 * (1 + p % 3);
    wan.protocol_overhead = 0.05;
    fleet.pipe_specs.push_back(wan);
  }
  return fleet;
}

/// Runs one rung: `transfers` WAN transfers through kPipes contended
/// pipes, at most kWindow in flight, cycling senders over all `nodes`
/// machines. A startup wave gives every machine one compute event so the
/// heap really holds the whole fleet at once (heap depth ~ nodes +
/// window). `trace`/`metrics` (optional) receive queue-depth samples and
/// the engine/pipe counters.
RungResult run_rung(int nodes, std::uint64_t transfers,
                    obs::TraceRecorder* trace, obs::Registry* metrics) {
  const Fleet fleet = make_fleet(nodes);
  sim::EventEngine engine;
  std::vector<sim::SharedPipe> pipes;
  pipes.reserve(kPipes);
  for (int p = 0; p < kPipes; ++p)
    pipes.emplace_back(fleet.pipe_specs[static_cast<std::size_t>(p)],
                       "repo-" + std::to_string(p));

  // Startup wave: one compute completion per machine, staggered so the
  // heap momentarily holds the entire fleet.
  for (int n = 0; n < nodes; ++n)
    engine.schedule(1e-6 * (n + 1), n, sim::EventKind::ComputeBlockDone);

  util::Rng rng(0xbe7c4a11);
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t checksum = 0;
  const auto begin_next = [&](double start) {
    const int node = static_cast<int>(started % static_cast<std::uint64_t>(
                                                    nodes));
    auto& pipe = pipes[started % kPipes];
    const double bytes = rng.uniform(64e3, 4e6);
    const std::uint64_t messages = 1 + (started % 7);
    pipe.begin_transfer(engine, start, node, bytes, messages,
                        fleet.nic_Bps[static_cast<std::size_t>(node)]);
    ++started;
  };

  util::Stopwatch wall;
  const std::uint64_t initial =
      std::min<std::uint64_t>(transfers, kWindow);
  for (std::uint64_t t = 0; t < initial; ++t) begin_next(1e-5 * (t + 1));

  std::uint64_t dispatched_since_sample = 0;
  while (!engine.empty()) {
    const sim::Event ev = engine.pop();
    for (auto& pipe : pipes) {
      const auto done = pipe.on_event(engine, ev);
      if (!done) continue;
      ++completed;
      // Fold the completion's bit pattern: any dispatch-order or FP drift
      // between runs changes the checksum.
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(done->end_time));
      std::memcpy(&bits, &done->end_time, sizeof(bits));
      checksum ^= bits + 0x9e3779b97f4a7c15ULL * done->transfer;
      if (started < transfers) begin_next(engine.now());
      break;
    }
    if (trace != nullptr && ++dispatched_since_sample >= 1024) {
      dispatched_since_sample = 0;
      trace->counter("sim", "queue_depth", obs::kJobNode, engine.now(),
                     static_cast<double>(engine.pending()));
    }
  }
  const double wall_s = wall.seconds();
  FGP_CHECK_MSG(completed == transfers,
                "rung lost transfers: " << completed << " of " << transfers);

  RungResult r;
  r.nodes = nodes;
  r.transfers = transfers;
  r.events = engine.events_dispatched();
  r.heap_peak = engine.heap_peak();
  r.virtual_end_s = engine.now();
  r.wall_s = wall_s;
  r.events_per_second =
      wall_s > 0.0 ? static_cast<double>(r.events) / wall_s : 0.0;
  r.checksum = checksum;
  for (const auto& pipe : pipes) r.recomputes += pipe.fair_share_recomputes();
  if (metrics != nullptr) {
    engine.flush_counters(metrics);
    for (const auto& pipe : pipes) {
      metrics->add("sim." + pipe.name() + ".transfers",
                   static_cast<double>(pipe.total_transfers()),
                   obs::Domain::Host);
      metrics->add("sim." + pipe.name() + ".recomputes",
                   static_cast<double>(pipe.fair_share_recomputes()),
                   obs::Domain::Host);
    }
  }
  return r;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string to_json(const std::vector<RungResult>& ladder, bool quick) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"fgpred-sim-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"note\": \"discrete-event core ladder: fixed transfer count "
        "through 8 contended WAN pipes, in-flight window "
     << kWindow
     << ", senders cycling over the fleet. events_per_second is wall-clock "
        "and machine-bound; bench_diff refuses comparisons across "
        "different host_cores. wall_s growth across rungs must stay "
        "sub-linear in nodes (only heap depth grows).\",\n";
  os << "  \"pipes\": " << kPipes << ",\n";
  os << "  \"window\": " << kWindow << ",\n";
  os << "  \"ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const RungResult& r = ladder[i];
    os << "    {\n";
    os << "      \"nodes\": " << r.nodes << ",\n";
    os << "      \"transfers\": " << r.transfers << ",\n";
    os << "      \"events\": " << r.events << ",\n";
    os << "      \"recomputes\": " << r.recomputes << ",\n";
    os << "      \"heap_peak\": " << r.heap_peak << ",\n";
    os << "      \"virtual_end_s\": " << r.virtual_end_s << ",\n";
    os << "      \"wall_s\": " << r.wall_s << ",\n";
    os << "      \"events_per_second\": " << r.events_per_second << ",\n";
    os << "      \"checksum\": \"" << hex(r.checksum) << "\"\n";
    os << "    }" << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // Headline: the largest rung's throughput (the claim under test is that
  // it holds up at fleet scale).
  os << "  \"events_per_second\": "
     << (ladder.empty() ? 0.0 : ladder.back().events_per_second) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace
}  // namespace fgp::bench

int main(int argc, char** argv) {
  bool quick = false;
  int single_nodes = 0;
  std::string out_path, trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--nodes" && i + 1 < argc) {
      single_nodes = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const std::uint64_t transfers = quick ? 20'000 : 200'000;
  std::vector<int> rungs;
  if (single_nodes > 0) {
    rungs = {single_nodes};
  } else if (quick) {
    rungs = {128, 512, 1024};
  } else {
    rungs = {128, 256, 512, 1024, 2048, 4096};
  }

  // Determinism gate: the smallest rung, twice, must produce the same
  // completion-bit checksum before anything gets timed for the report.
  {
    const auto a = fgp::bench::run_rung(rungs.front(), transfers / 10,
                                        nullptr, nullptr);
    const auto b = fgp::bench::run_rung(rungs.front(), transfers / 10,
                                        nullptr, nullptr);
    FGP_CHECK_MSG(a.checksum == b.checksum,
                  "nondeterministic engine: checksum mismatch across replays");
    std::cerr << "replay gate ok (checksum " << fgp::bench::hex(a.checksum)
              << ")\n";
  }

  fgp::obs::TraceRecorder trace;
  fgp::obs::Registry metrics;
  std::vector<fgp::bench::RungResult> ladder;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const bool largest = i + 1 == rungs.size();
    const auto r = fgp::bench::run_rung(
        rungs[i], transfers, largest ? &trace : nullptr,
        largest ? &metrics : nullptr);
    std::cerr << "nodes=" << r.nodes << " events=" << r.events
              << " wall_s=" << r.wall_s
              << " events/s=" << static_cast<std::uint64_t>(
                                     r.events_per_second)
              << " heap_peak=" << r.heap_peak << "\n";
    ladder.push_back(r);
  }

  const std::string json = fgp::bench::to_json(ladder, quick);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(out_path);
    f << json;
  }
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    f << trace.to_chrome_json(true);
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    f << metrics.to_json(true);
  }
  return 0;
}
