// payload-const-cast negative fixture: copy the bytes; a const_cast
// with no payload on its line is not this rule's business.
#include <cstdint>
#include <span>
#include <vector>

std::vector<std::uint8_t> copy(std::span<const std::uint8_t> payload) {
  return {payload.begin(), payload.end()};
}

int* unconst(const int* p) { return const_cast<int*>(p); }
