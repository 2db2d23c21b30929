#include "repository/chunk.h"

#include <istream>
#include <ostream>

namespace fgp::repository {

namespace {

template <typename T>
  requires std::is_trivially_copyable_v<T>
void write_scalar(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T read_scalar(std::istream& is) {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is.good())
    throw util::SerializationError("truncated chunk stream: header");
  return v;
}

}  // namespace

Chunk::Chunk(ChunkId id, std::vector<std::uint8_t> payload,
             double virtual_scale)
    : Chunk(id, PayloadBuffer::from_bytes(std::move(payload)), virtual_scale) {
}

Chunk::Chunk(ChunkId id, std::shared_ptr<const PayloadBuffer> payload,
             double virtual_scale)
    : id_(id), payload_(std::move(payload)), virtual_scale_(virtual_scale) {
  FGP_CHECK_MSG(virtual_scale_ > 0.0, "virtual_scale must be positive");
  virtual_bytes_ = static_cast<double>(real_bytes()) * virtual_scale_;
  const auto bytes = this->payload();
  checksum_ = util::xxh64(bytes.data(), bytes.size());
}

Chunk Chunk::metadata_only(ChunkId id, std::uint64_t real_bytes,
                           std::uint64_t checksum, double virtual_scale) {
  FGP_CHECK_MSG(virtual_scale > 0.0, "virtual_scale must be positive");
  Chunk c;
  c.id_ = id;
  c.declared_real_bytes_ = real_bytes;
  c.virtual_scale_ = virtual_scale;
  c.virtual_bytes_ = static_cast<double>(real_bytes) * virtual_scale;
  c.checksum_ = checksum;
  return c;
}

void Chunk::set_virtual_scale(double virtual_scale) {
  FGP_CHECK_MSG(virtual_scale > 0.0, "virtual_scale must be positive");
  virtual_scale_ = virtual_scale;
  virtual_bytes_ = static_cast<double>(real_bytes()) * virtual_scale_;
}

bool Chunk::verify() const {
  const auto bytes = payload();
  return checksum_ == util::xxh64(bytes.data(), bytes.size());
}

void Chunk::serialize(util::ByteWriter& w) const {
  const auto bytes = payload();
  w.put_u64(id_);
  w.put_f64(virtual_scale_);
  w.put_u64(checksum_);
  w.put_u64(bytes.size());
  w.put_bytes(bytes.data(), bytes.size());
}

void Chunk::write_to(std::ostream& os) const {
  const auto bytes = payload();
  write_scalar(os, id_);
  write_scalar(os, virtual_scale_);
  write_scalar(os, checksum_);
  write_scalar(os, static_cast<std::uint64_t>(bytes.size()));
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

Chunk Chunk::read_from(std::istream& is, std::uint64_t payload_limit) {
  const ChunkId id = read_scalar<ChunkId>(is);
  const double scale = read_scalar<double>(is);
  const std::uint64_t stored_checksum = read_scalar<std::uint64_t>(is);
  const std::uint64_t n = read_scalar<std::uint64_t>(is);
  if (n > payload_limit)
    throw util::SerializationError(
        "chunk " + std::to_string(id) + ": payload length " +
        std::to_string(n) + " exceeds limit " + std::to_string(payload_limit));
  std::vector<std::uint8_t> payload(n);
  if (n != 0) {
    // The n == 0 case skips the read entirely: payload.data() may be null
    // on an empty vector, and trailing bytes after a zero-length payload
    // must not poison the stream state.
    is.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(n));
    if (!is.good() || static_cast<std::uint64_t>(is.gcount()) != n)
      throw util::SerializationError("truncated chunk stream: payload");
  }
  Chunk c(id, std::move(payload), scale);
  if (c.checksum() != stored_checksum)
    throw util::SerializationError("chunk " + std::to_string(id) +
                                   ": checksum mismatch (corrupted payload)");
  return c;
}

Chunk Chunk::deserialize(util::ByteReader& r) {
  const ChunkId id = r.get_u64();
  const double scale = r.get_f64();
  const std::uint64_t stored_checksum = r.get_u64();
  auto payload = r.get_vector<std::uint8_t>();
  Chunk c(id, std::move(payload), scale);
  if (c.checksum() != stored_checksum)
    throw util::SerializationError("chunk " + std::to_string(id) +
                                   ": checksum mismatch (corrupted payload)");
  return c;
}

}  // namespace fgp::repository
