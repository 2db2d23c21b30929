// event_engine.h — the deterministic discrete-event simulation core.
//
// A virtual-time event queue for scenarios the runtime's closed-form phase
// accounting cannot express: contended WAN pipes whose senders join and
// leave at different times (SharedPipe below). Simulated cost scales with
// the number of *events* (state changes), so a thousand-machine grid
// where almost nothing changes per step costs almost nothing to simulate.
// The freeride runtime does not use it: a phase costs its slowest node, a
// max its pass loop folds inline. Its only callers are tests, which pin
// canonical replay (tests/test_event_engine.cpp, including a
// 1,024-machine closed-loop fleet replayed bit-identically).
//
// Determinism contract (DESIGN.md §18): events dispatch in the canonical
// total order (time, sequence, node_id, event_kind). `sequence` is the
// engine-assigned insertion counter and already unique, so the full key is
// a *total* order — replay is bit-identical regardless of host pool size,
// heap layout, or the container used to drain it. Every heap or sort over
// events inside src/sim must name one of the canonical comparators below
// (EventAfter / EventBefore / event_order_less); fgpcheck's `event-order`
// rule enforces this.
//
// Floating-point accumulation order at event boundaries is pinned the same
// way as kernel reductions (§10): any state a handler folds across events
// must be folded in dispatch order, which the total order makes unique.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.h"

namespace fgp::obs {
class Registry;
}

namespace fgp::sim {

/// What happened. The numeric values participate in the canonical order's
/// final tie-break, so they are part of the replay contract — append new
/// kinds, never renumber.
enum class EventKind : std::uint8_t {
  ComputeBlockDone = 0,  ///< one chunk block's local reduction finished
  DiskSegmentDone = 1,   ///< a node's retrieval (or cache write) finished
  NicSegmentDone = 2,    ///< an intra-cluster transfer segment finished
  WanAcquire = 3,        ///< a sender joins a shared WAN pipe
  WanSegmentDone = 4,    ///< a sender's current WAN segment drained
  WanRelease = 5,        ///< a sender leaves a shared WAN pipe
  Barrier = 6,           ///< synchronization point (pass/phase boundary)
};

const char* to_string(EventKind kind);

/// One scheduled occurrence. `payload` is caller-owned (SharedPipe stores
/// transfer-id | epoch).
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::int32_t node = -1;
  EventKind kind = EventKind::Barrier;
  std::uint64_t payload = 0;
};

/// The canonical total order: (time, seq, node, kind), ascending. seq is
/// unique per engine, so two distinct events never compare equal.
bool event_order_less(const Event& a, const Event& b);

/// Canonical comparator making containers pop the *earliest* event: a
/// max-heap (std::priority_queue, std::push_heap) ordered by EventAfter is
/// a min-queue on the canonical order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return event_order_less(b, a);
  }
};

/// Canonical ascending comparator for sorts over event vectors.
struct EventBefore {
  bool operator()(const Event& a, const Event& b) const {
    return event_order_less(a, b);
  }
};

/// Binary-heap virtual-time event queue with a monotone clock. Not
/// thread-safe: one engine belongs to one simulation thread (host
/// parallelism lives *underneath* events, in the kernels that really
/// execute — never in the event order).
class EventEngine {
 public:
  EventEngine() = default;

  /// Schedules an event at absolute virtual time `time` (must be finite
  /// and >= now(): virtual time never runs backwards). Returns the
  /// assigned sequence number.
  std::uint64_t schedule(double time, int node, EventKind kind,
                         std::uint64_t payload = 0);

  /// schedule(now() + delay, ...) with a non-negative finite delay.
  std::uint64_t schedule_after(double delay, int node, EventKind kind,
                               std::uint64_t payload = 0);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// The earliest pending event (canonical order). Engine must not be
  /// empty.
  const Event& peek() const;

  /// Dispatches the earliest pending event: removes it from the queue and
  /// advances the virtual clock to its time.
  Event pop();

  /// Current virtual time: the time of the last dispatched event (0 before
  /// the first pop, or whatever reset() installed).
  double now() const { return now_; }

  /// Rewinds the clock for a fresh scenario (queue must be drained).
  /// Sequence numbers keep counting — they are unique per engine lifetime.
  void reset(double time = 0.0);

  std::uint64_t events_scheduled() const { return scheduled_; }
  std::uint64_t events_dispatched() const { return dispatched_; }
  std::size_t heap_peak() const { return heap_peak_; }

  /// Writes the engine counters into `metrics` (host domain, so the
  /// deterministic export stays byte-identical with the engine attached):
  /// engine.events_scheduled / engine.events_dispatched / engine.heap_peak.
  /// Null-safe no-op.
  void flush_counters(obs::Registry* metrics) const;

 private:
  std::vector<Event> heap_;  ///< binary max-heap under EventAfter
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t heap_peak_ = 0;
};

/// A shared WAN pipe with cross-transfer contention: concurrent senders
/// split the pipe fairly, and the fair share is recomputed ONLY at event
/// boundaries (a WanAcquire or WanRelease dispatch), never mid-flight —
/// bandwidth is piecewise constant between events, which keeps the model
/// deterministic and the simulation cost proportional to sender churn.
///
/// Each sender's share is min(per_link, aggregate_cap / active, its NIC)
/// × (1 − protocol_overhead) — WanSpec::per_sender_bandwidth evaluated at
/// the current sender count. Per-message latency is a head term consumed
/// before bytes start flowing, so a recompute mid-latency rescales only
/// the byte part. In-flight completions are rescheduled lazily: a
/// rescheduled WanSegmentDone carries a new epoch and the stale event is
/// ignored on dispatch (classic lazy heap invalidation — O(log n) per
/// recompute instead of a heap rebuild).
///
/// The phase-structured closed form (WanSpec::transfer_time) is the
/// special case where every sender acquires at the same instant and
/// carries the same byte count: no churn happens before the first
/// completion, so every transfer sees one constant rate. The freeride
/// runtime's network phase charges exactly that closed form per segment
/// (model parity with the paper); this class is the *contended* mode for
/// multi-tenant scenario sweeps.
class SharedPipe {
 public:
  /// Validates `spec` (WanSpec::validate).
  SharedPipe(const WanSpec& spec, std::string name);

  /// Registers a transfer of `bytes` bytes over `messages` messages from
  /// `node` (NIC rate `nic_Bps`), acquiring the pipe at virtual time
  /// `start` (>= engine.now()). Returns the transfer id. The pipe only
  /// changes state inside on_event(), so the acquisition itself is an
  /// engine event like any other.
  std::uint64_t begin_transfer(EventEngine& engine, double start, int node,
                               double bytes, std::uint64_t messages,
                               double nic_Bps);

  struct Completion {
    std::uint64_t transfer = 0;
    int node = -1;
    double start_time = 0.0;
    double end_time = 0.0;
    double bytes = 0.0;
  };

  /// Feeds one dispatched event to the pipe. Events the pipe does not own
  /// — foreign payloads, other kinds, stale (re-epoched) segment
  /// completions — are ignored. Returns the finished transfer when `ev`
  /// is one of this pipe's WanRelease events.
  std::optional<Completion> on_event(EventEngine& engine, const Event& ev);

  int active_transfers() const { return static_cast<int>(active_.size()); }
  std::size_t total_transfers() const { return flows_.size(); }
  std::uint64_t fair_share_recomputes() const { return recomputes_; }
  const std::string& name() const { return name_; }
  const WanSpec& spec() const { return spec_; }

 private:
  struct Flow {
    int node = -1;
    double nic_Bps = 0.0;
    double bytes_total = 0.0;
    double remaining_bytes = 0.0;
    double latency_left_s = 0.0;
    double rate_Bps = 0.0;
    double last_update = 0.0;
    double start_time = 0.0;
    std::uint32_t epoch = 0;
    bool active = false;
    bool done = false;
  };

  static std::uint64_t pack(std::uint64_t id, std::uint32_t epoch);
  bool owns(std::uint64_t payload, std::uint64_t* id,
            std::uint32_t* epoch) const;
  void recompute_shares(EventEngine& engine);

  WanSpec spec_;
  std::string name_;
  std::uint64_t tag_;  ///< distinguishes this pipe's payloads from others'
  std::vector<Flow> flows_;           ///< dense, indexed by transfer id
  std::vector<std::uint64_t> active_;  ///< in-flight ids, ascending
  std::uint64_t recomputes_ = 0;
};

}  // namespace fgp::sim
