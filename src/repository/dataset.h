// dataset.h — a chunked dataset: ordered chunks plus descriptive metadata.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "repository/chunk.h"

namespace fgp::repository {

/// Metadata travelling with a dataset (and recorded into profiles: the
/// prediction model's "s" is total_virtual_bytes()).
struct DatasetMeta {
  std::string name;
  std::string schema;  ///< free-form element description, e.g. "f64 point dim=8"
  std::uint64_t seed = 0;
};

/// Lazy payload provider for a streamed dataset (DESIGN.md §15): the
/// dataset holds metadata_only chunk handles and pulls bytes through its
/// source on demand. Implementations must be thread-safe — the runtime
/// fetches from pool workers concurrently — and must verify the fetched
/// bytes against the stored checksum (throwing util::SerializationError on
/// mismatch): that fetch is the only check a streamed chunk gets before a
/// kernel reads it (Runtime::run's first-pass checksum sweep and verify_all()
/// skip unloaded chunks), so a materialized chunk is as trustworthy as a
/// loaded one.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Returns chunk `index` with its payload resident, at the scale the
  /// chunk was stored with. Throws on IO errors or corruption.
  virtual Chunk fetch(std::size_t index) const = 0;

  /// No-op that nothing in the library calls (DESIGN.md §15 gives the
  /// measurements against prefetching). It stays virtual only so that
  /// source wrappers which still override it keep compiling.
  virtual void prefetch(std::size_t /*index*/) const {}
};

class ChunkedDataset {
 public:
  ChunkedDataset() = default;
  explicit ChunkedDataset(DatasetMeta meta) : meta_(std::move(meta)) {}

  const DatasetMeta& meta() const { return meta_; }
  DatasetMeta& meta() { return meta_; }

  void add_chunk(Chunk c);

  std::size_t chunk_count() const { return chunks_.size(); }
  const Chunk& chunk(std::size_t i) const { return chunks_.at(i); }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// The prediction model's dataset size "s" (bytes at paper scale).
  double total_virtual_bytes() const { return total_virtual_bytes_; }
  std::size_t total_real_bytes() const { return total_real_bytes_; }

  /// Rescales every chunk to `virtual_scale` and recomputes the virtual
  /// total. Payloads and checksums are untouched: the result is exactly the
  /// dataset the generator would have produced at that scale, without
  /// generating twice (the probe-then-rescale pattern in bench/common.cpp).
  void set_uniform_virtual_scale(double virtual_scale);

  /// True when every chunk's checksum verifies. An unloaded streamed chunk
  /// is fetched once and hashed once: the fetch itself verifies it and
  /// throws util::SerializationError on corruption.
  bool verify_all() const;

  /// Attaches the lazy payload source the metadata_only chunks of a
  /// streamed dataset resolve through.
  void attach_source(std::shared_ptr<const ChunkSource> source) {
    source_ = std::move(source);
  }
  const std::shared_ptr<const ChunkSource>& source() const { return source_; }
  /// True when chunk payloads live behind a ChunkSource.
  bool streamed() const { return source_ != nullptr; }

  /// Chunk `i` with its payload guaranteed resident: loaded chunks (and
  /// datasets without a source) come back as plain handle copies; unloaded
  /// streamed chunks are fetched through the source and rebound to this
  /// dataset's virtual scale for `i` (so a dataset rescaled in place by
  /// set_uniform_virtual_scale materializes at its new scale, not the
  /// stored one). The returned handle owns the bytes for its lifetime —
  /// dropping it releases them, which is what keeps a streamed pass's
  /// resident set flat (DESIGN.md §15).
  Chunk materialize(std::size_t i) const;

 private:
  DatasetMeta meta_;
  std::vector<Chunk> chunks_;
  std::shared_ptr<const ChunkSource> source_;
  double total_virtual_bytes_ = 0.0;
  std::size_t total_real_bytes_ = 0;
};

}  // namespace fgp::repository
