// payload-const-cast positive fixture: writing through a shared view.
#include <cstdint>
#include <span>

void scribble(std::span<const std::uint8_t> payload) {
  auto* bytes = const_cast<std::uint8_t*>(payload.data());
  bytes[0] = 0;
}
