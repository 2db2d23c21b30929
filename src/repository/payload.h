// payload.h — refcounted immutable byte slabs backing chunk payloads.
//
// The data plane's hot bytes live in PayloadBuffers: once constructed, a
// buffer's bytes never change for its lifetime, so any number of chunks,
// datasets, caches and concurrent sweep jobs may hold views of the same
// slab without copies or locks (DESIGN.md §13). Two backings exist:
//
//   heap      an owned std::vector moved in at construction (generators,
//             deserializers, DatasetStore::load, stitched streamed
//             payloads);
//   borrowed  the buffer aliases memory owned by someone else (a mapped
//             window of the streaming layer, stream.h) and holds a
//             refcounted keep-alive so the owner cannot vanish under the
//             view (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace fgp::repository {

class PayloadBuffer {
  /// Construction goes through the factories below; this token keeps the
  /// constructors unusable outside them while staying make_shared-friendly.
  struct Token {
    explicit Token() = default;
  };

 public:
  /// Wraps an owned heap buffer (moved, never copied).
  static std::shared_ptr<const PayloadBuffer> from_bytes(
      std::vector<std::uint8_t> bytes);

  /// True when this platform has the streaming layer's mmap read path
  /// compiled in.
  static bool mmap_supported();

  /// Aliases `size` bytes at `data` owned by `owner` (e.g. a mapped
  /// window): the buffer copies nothing and keeps `owner` alive for its
  /// own lifetime, so the bytes stay valid as long as any chunk view of
  /// this buffer does. The bytes must be immutable for that lifetime —
  /// the same contract every other backing obeys (DESIGN.md §13).
  static std::shared_ptr<const PayloadBuffer> from_view(
      std::shared_ptr<const void> owner, const std::uint8_t* data,
      std::size_t size);

  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// True for a from_view buffer borrowing another owner's bytes.
  bool borrowed() const { return owner_ != nullptr; }

  PayloadBuffer(Token, std::vector<std::uint8_t> heap);
  PayloadBuffer(Token, std::shared_ptr<const void> owner,
                const std::uint8_t* data, std::size_t size);

  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;

 private:
  std::vector<std::uint8_t> heap_;
  std::shared_ptr<const void> owner_;  ///< keep-alive for from_view buffers
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fgp::repository
