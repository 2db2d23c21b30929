// chunk.h — the unit of storage, movement and processing.
//
// FREERIDE-G "expects data to be stored in chunks, whose size is manageable
// for the repository nodes". A chunk is a *view*: it holds a refcounted
// immutable PayloadBuffer (what the kernels actually process) plus a
// virtual size — the number of bytes this chunk *represents* at paper
// scale. The repository charges disk and network time against virtual
// bytes, and the runtime scales kernel work by the same factor, so
// MB-scale real payloads faithfully stand in for the paper's GB-scale
// datasets (see DESIGN.md §2).
//
// Because the payload is shared and immutable, copying a chunk copies a
// handle, never bytes: concurrent sweep jobs, caches and rescaled dataset
// views all alias one slab (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "repository/payload.h"
#include "util/check.h"
#include "util/serial.h"

namespace fgp::repository {

using ChunkId = std::uint64_t;

class Chunk {
 public:
  /// Fixed wire-header size of write_to/read_from: id, virtual_scale,
  /// checksum and payload length, 8 bytes each.
  static constexpr std::uint64_t kWireHeaderBytes = 32;

  Chunk() = default;
  Chunk(ChunkId id, std::vector<std::uint8_t> payload, double virtual_scale);
  /// Wraps an existing (possibly mmap-backed) payload slab without copying.
  Chunk(ChunkId id, std::shared_ptr<const PayloadBuffer> payload,
        double virtual_scale);

  /// A payload-less handle carrying only wire metadata — the streamed
  /// store's resident form (DESIGN.md §15). It sizes, partitions and
  /// rescales exactly like a loaded chunk (real_bytes/virtual_bytes come
  /// from the declared size), but payload access throws until the owning
  /// dataset materializes the bytes through its ChunkSource.
  static Chunk metadata_only(ChunkId id, std::uint64_t real_bytes,
                             std::uint64_t checksum, double virtual_scale);

  /// False only for a metadata_only handle with a non-empty declared
  /// payload; such a chunk must be materialized before its bytes are read.
  bool loaded() const {
    return payload_ != nullptr || declared_real_bytes_ == 0;
  }

  ChunkId id() const { return id_; }
  std::size_t real_bytes() const {
    return payload_ != nullptr ? payload_->size()
                               : static_cast<std::size_t>(declared_real_bytes_);
  }
  double virtual_bytes() const { return virtual_bytes_; }
  /// virtual_bytes / real_bytes; kernels' work is scaled by this.
  double virtual_scale() const { return virtual_scale_; }
  std::uint64_t checksum() const { return checksum_; }

  /// Immutable view of the shared payload bytes. Valid as long as any
  /// chunk (or other holder) keeps the underlying buffer alive. Throws on
  /// an unloaded metadata_only handle: the bytes are still on disk, and
  /// silently returning an empty span would corrupt any kernel result.
  std::span<const std::uint8_t> payload() const {
    FGP_CHECK_MSG(loaded(), "chunk " << id_ << ": payload access on an "
                  "unloaded streamed chunk (materialize it via its dataset)");
    return payload_ != nullptr ? payload_->bytes()
                               : std::span<const std::uint8_t>{};
  }

  /// The refcounted slab backing payload() (null for an empty chunk).
  const std::shared_ptr<const PayloadBuffer>& payload_buffer() const {
    return payload_;
  }

  /// Typed view of the payload. Throws if the size is not a multiple of T.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::span<const T> as_span() const {
    const auto bytes = payload();
    FGP_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                  "chunk " << id_ << " payload (" << bytes.size()
                           << " bytes) not a whole number of elements");
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  /// Rebinds the chunk to a new virtual scale (payload and checksum are
  /// untouched). Lets generators produce data once at scale 1 and rescale
  /// to the requested virtual size instead of generating twice.
  void set_virtual_scale(double virtual_scale);

  /// Recomputes the XXH64 checksum and compares to the stored one.
  bool verify() const;

  void serialize(util::ByteWriter& w) const;
  static Chunk deserialize(util::ByteReader& r);

  /// Streams the chunk to `os` in the same wire format as serialize(),
  /// without building an intermediate byte buffer.
  void write_to(std::ostream& os) const;

  /// Streams a chunk back from `is` (counterpart of write_to), reading the
  /// payload straight into its final buffer. `payload_limit` bounds the
  /// length prefix (e.g. the file size), so a corrupted prefix throws
  /// SerializationError instead of reaching the allocator; a prefix the
  /// stream cannot satisfy (e.g. exactly payload_limit, which still
  /// includes this header) throws the same way. Verifies the checksum like
  /// deserialize().
  static Chunk read_from(std::istream& is, std::uint64_t payload_limit);

 private:
  ChunkId id_ = 0;
  std::shared_ptr<const PayloadBuffer> payload_;
  std::uint64_t declared_real_bytes_ = 0;  ///< metadata_only payload size
  double virtual_scale_ = 1.0;
  double virtual_bytes_ = 0.0;
  std::uint64_t checksum_ = 0;
};

/// Builds a chunk from a typed element array.
template <typename T>
  requires std::is_trivially_copyable_v<T>
Chunk make_chunk(ChunkId id, const std::vector<T>& elements,
                 double virtual_scale = 1.0) {
  std::vector<std::uint8_t> bytes(elements.size() * sizeof(T));
  if (!elements.empty())
    std::memcpy(bytes.data(), elements.data(), bytes.size());
  return Chunk(id, std::move(bytes), virtual_scale);
}

}  // namespace fgp::repository
