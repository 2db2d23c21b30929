#include "repository/payload.h"

namespace fgp::repository {

std::shared_ptr<const PayloadBuffer> PayloadBuffer::from_bytes(
    std::vector<std::uint8_t> bytes) {
  return std::make_shared<const PayloadBuffer>(Token{}, std::move(bytes));
}

bool PayloadBuffer::mmap_supported() {
#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
  return true;
#else
  return false;
#endif
}

std::shared_ptr<const PayloadBuffer> PayloadBuffer::from_view(
    std::shared_ptr<const void> owner, const std::uint8_t* data,
    std::size_t size) {
  return std::make_shared<const PayloadBuffer>(Token{}, std::move(owner),
                                               data, size);
}

PayloadBuffer::PayloadBuffer(Token, std::shared_ptr<const void> owner,
                             const std::uint8_t* data, std::size_t size)
    : owner_(std::move(owner)), data_(data), size_(size) {}

PayloadBuffer::PayloadBuffer(Token, std::vector<std::uint8_t> heap)
    : heap_(std::move(heap)), data_(heap_.data()), size_(heap_.size()) {}

}  // namespace fgp::repository
