// stream.h — bounded streaming window layer for out-of-core datasets.
//
// DatasetStore::load copies every chunk onto the heap, so the largest
// dataset it can hold is bounded by host memory. This layer removes that
// bound: chunk files are read through fixed-size, page-aligned mmap
// windows (PROT_READ / MAP_PRIVATE, madvise WILLNEED on map, a bare munmap
// on recycle) recycled under a hard byte budget, so a dataset 10–100×
// larger than RAM streams through the repository with a flat resident
// set. Ownership and lifetime rules are DESIGN.md §15:
//
//   * a WindowPool retains at most budget_bytes of mapped windows (LRU);
//   * a window evicted from the pool stays alive while any chunk view
//     still borrows it (shared_ptr keep-alive via PayloadBuffer::from_view)
//     and is unmapped when the last borrower drops;
//   * a chunk whose payload fits one window aliases the mapping
//     (zero-copy); a payload straddling window boundaries is stitched
//     into a heap slab window by window — the fallback the contract
//     requires when a window is smaller than a chunk — so any
//     (window, chunk-size) combination is correct, merely slower.
//
// The StoreStreamSource below is the ChunkSource behind
// DatasetStore::load_streamed: it re-verifies every fetched payload
// against the stored checksum, so streamed bytes are as trustworthy as
// loaded ones, and it is thread-safe for concurrent fetches from pool
// workers. A window miss opens, re-stats and maps its file outside the
// pool lock, and windows leaving the pool are unmapped after the lock is
// released, so one fetch's syscalls never stall another's.
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "repository/dataset.h"

namespace fgp::obs {
class Registry;
}  // namespace fgp::obs

namespace fgp::repository {

/// Streaming knobs. window_bytes is rounded up to the page size; any
/// budget/window/chunk-size combination is correct (degenerate ones just
/// recycle more).
struct StreamConfig {
  std::size_t budget_bytes = std::size_t{8} << 20;    ///< pool retention cap
  std::size_t window_bytes = std::size_t{256} << 10;  ///< per-window span
};

/// Thread-safe LRU pool of mapped file windows under a hard byte budget.
/// Keys are (chunk index, window index); values are refcounted mappings,
/// so eviction never invalidates a live view. Host-domain counters
/// (store.window_maps / store.window_recycles) go to `metrics` — mapping
/// and recycling depend on host timing, never on results. The lock guards
/// only the LRU bookkeeping: maps and unmaps run outside it.
class WindowPool {
 public:
  /// One mapped window: [offset, offset + length) of a chunk file.
  class Window {
   public:
    Window(void* base, std::size_t length) : base_(base), length_(length) {}
    ~Window();
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    const std::uint8_t* data() const {
      return static_cast<const std::uint8_t*>(base_);
    }
    std::size_t length() const { return length_; }

   private:
    void* base_ = nullptr;
    std::size_t length_ = 0;
  };

  WindowPool(StreamConfig cfg, obs::Registry* metrics);

  /// Maps (or returns the resident) window `window_index` of `path`, whose
  /// current size must still be `expected_file_size` (a typed
  /// SerializationError reports a file truncated or grown since the
  /// metadata scan). Eviction keeps the pool at or under budget_bytes
  /// afterwards (the returned window itself always survives its own
  /// acquisition). Two threads missing on one key may both map it; the
  /// first to insert wins and the other's mapping is dropped.
  std::shared_ptr<const Window> acquire(std::size_t chunk_index,
                                        const std::filesystem::path& path,
                                        std::uint64_t expected_file_size,
                                        std::size_t window_index);

  /// Normalized configuration (window_bytes page-rounded).
  const StreamConfig& config() const { return cfg_; }

  /// Bytes of mapped windows the pool currently retains (<= budget after
  /// every acquire; windows still being mapped, and live borrowed windows
  /// outside the pool, don't count).
  std::size_t resident_bytes() const;

 private:
  using Key = std::pair<std::size_t, std::size_t>;  // (chunk, window)
  struct Slot {
    Key key;
    std::shared_ptr<const Window> window;
  };

  StreamConfig cfg_;
  obs::Registry* metrics_ = nullptr;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::map<Key, std::list<Slot>::iterator> index_;
  std::size_t resident_bytes_ = 0;
};

/// ChunkSource streaming a saved dataset's chunk files through a
/// WindowPool (the engine behind DatasetStore::load_streamed). Counters:
/// store.windowed_bytes and store.stitched_chunks are Deterministic
/// (integral, fixed by the fetch sequence); window maps/recycles are Host
/// (they depend on pool timing).
class StoreStreamSource final : public ChunkSource {
 public:
  /// Per-chunk metadata gathered by the load_streamed header scan.
  struct Entry {
    std::filesystem::path path;
    std::uint64_t file_size = 0;
    ChunkId id = 0;
    double virtual_scale = 1.0;
    std::uint64_t checksum = 0;
    std::uint64_t payload_bytes = 0;
  };

  /// Parses the fixed 32-byte wire header of one chunk file into an
  /// Entry, validating the payload length against the file size. Throws
  /// util::SerializationError on a missing, truncated or oversized file.
  static Entry read_entry(const std::filesystem::path& path);

  StoreStreamSource(std::vector<Entry> entries, StreamConfig cfg,
                    obs::Registry* metrics);

  Chunk fetch(std::size_t index) const override;

  std::size_t chunk_count() const { return entries_.size(); }
  const Entry& entry(std::size_t i) const { return entries_.at(i); }
  const StreamConfig& config() const { return pool_.config(); }
  /// Window bytes currently retained by the pool (test/bench hook).
  std::size_t resident_window_bytes() const { return pool_.resident_bytes(); }

 private:
  std::vector<Entry> entries_;
  obs::Registry* metrics_ = nullptr;
  mutable WindowPool pool_;
};

}  // namespace fgp::repository
