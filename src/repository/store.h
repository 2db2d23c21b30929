// store.h — on-disk persistence for chunked datasets.
//
// A repository node's data server "reads data chunks in from repository
// disk"; this store gives the virtual cluster a real file layout to read:
// one file per chunk plus a manifest, under a directory per dataset.
// There are two read paths: load() copies every payload onto the heap (the
// reference, and the fallback where mmap is unavailable), and
// load_streamed() serves payloads zero-copy through budget-bounded mmap
// windows (stream.h, DESIGN.md §15). The virtual disk time is modeled
// either way; the dataset-scaling benches and the out-of-core benchmark
// read through load_streamed().
#pragma once

#include <filesystem>
#include <string>

#include "repository/dataset.h"
#include "repository/stream.h"

namespace fgp::util {
class ThreadPool;
}  // namespace fgp::util

namespace fgp::obs {
class Registry;
class TraceRecorder;
}  // namespace fgp::obs

namespace fgp::repository {

class DatasetStore {
 public:
  explicit DatasetStore(std::filesystem::path root);

  /// As above, plus observability sinks (both may be null). Store IO is
  /// host-machine work, so save/load record *host-domain* artifacts: a
  /// wall-clock span per call (when the recorder has host recording on)
  /// and the integral counters store.saved_chunks / store.saved_bytes /
  /// store.loaded_chunks / store.loaded_bytes — integral so concurrent
  /// chunk IO stays exact.
  DatasetStore(std::filesystem::path root, obs::TraceRecorder* trace,
               obs::Registry* metrics);

  /// Writes `ds` under root/<ds.meta().name>/ (manifest + chunk files).
  /// Overwrites any existing copy. Chunk files are streamed (no
  /// intermediate byte-buffer copy); a non-null `pool` writes them
  /// concurrently — each chunk has a fixed file name, so the layout is
  /// identical at any pool size.
  void save(const ChunkedDataset& ds, util::ThreadPool* pool = nullptr) const;

  /// Loads a dataset by name. Verifies every chunk checksum; throws
  /// SerializationError on corruption or a malformed manifest. A non-null
  /// `pool` reads chunk files concurrently; chunks land at their manifest
  /// indices, so the dataset is identical at any pool size.
  ChunkedDataset load(const std::string& name,
                      util::ThreadPool* pool = nullptr) const;

  /// Out-of-core, zero-copy variant of load(): only the fixed 32-byte wire
  /// headers are read up front (a non-null `pool` scans them
  /// concurrently); the returned dataset holds metadata-only chunk
  /// handles plus a StoreStreamSource that materializes payloads on
  /// demand through budget-bounded mmap windows (stream.h, DESIGN.md
  /// §15). Checksums are verified lazily, at each materialize — reading
  /// everything eagerly is exactly what this mode exists to avoid. Peak
  /// memory for a sequential sweep is ~cfg.budget_bytes + the chunks held
  /// live, independent of dataset size. On platforms without mmap this
  /// falls back to the fully-resident load().
  ChunkedDataset load_streamed(const std::string& name,
                               const StreamConfig& cfg = {},
                               util::ThreadPool* pool = nullptr) const;

  bool exists(const std::string& name) const;
  void remove(const std::string& name) const;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path dir_for(const std::string& name) const;
  std::filesystem::path root_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace fgp::repository
