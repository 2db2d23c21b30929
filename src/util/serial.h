// serial.h — byte-oriented serialization used for reduction objects and
// chunk payloads. Reduction-object sizes feed directly into the prediction
// model's T_ro = w*r + l term, so the writer tracks exact byte counts.
//
// Format: little-endian fixed-width scalars, length-prefixed containers.
// (All supported hosts are little-endian; a static_assert guards this.)
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/check.h"

namespace fgp::util {

static_assert(std::endian::native == std::endian::little,
              "fgpred serialization assumes a little-endian host");

/// Appends scalars/containers to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f64(double v) { put(v); }

  void put_string(const std::string& s) {
    put_u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put_u64(v.size());
    if (!v.empty()) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
      buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
    }
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Bytes written so far — this is the reduction-object size "r".
  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Drops the contents but keeps the capacity, so one writer can be
  /// reused across many serialize calls without reallocating.
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads scalars/containers back; throws SerializationError on truncation.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    require(sizeof(T));
    T out;
    std::memcpy(&out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return out;
  }

  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() { return get<double>(); }

  std::string get_string() {
    const std::uint64_t n = get_u64();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const std::uint64_t n = get_u64();
    require_count(n, sizeof(T));
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Reads a container count and validates it against the bytes left:
  /// each element occupies at least `min_elem_bytes` on the wire, so any
  /// larger count is hostile. Deserializers must use this (not get_u64)
  /// before count-driven allocation, so a corrupted length prefix throws
  /// SerializationError instead of reaching the allocator.
  std::uint64_t get_count(std::size_t min_elem_bytes = 1) {
    const std::uint64_t n = get_u64();
    require_count(n, min_elem_bytes);
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void require(std::size_t n) const {
    if (size_ - pos_ < n)
      throw SerializationError("truncated buffer: need " + std::to_string(n) +
                               " bytes, have " + std::to_string(size_ - pos_));
  }
  void require_count(std::uint64_t count, std::size_t elem) const {
    if (elem != 0 && count > (size_ - pos_) / elem)
      throw SerializationError("truncated buffer: vector of " +
                               std::to_string(count) + " elements overruns");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// XXH64 (seed 0) over a byte range: the chunk format's checksum, which
/// detects corrupted payloads on load and on every streamed fetch
/// (failure-injection tests rely on this). Accepts (nullptr, 0).
std::uint64_t xxh64(const std::uint8_t* data, std::size_t n);

}  // namespace fgp::util
