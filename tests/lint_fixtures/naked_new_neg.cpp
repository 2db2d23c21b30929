// naked-new negative fixture: smart pointers, deleted members and
// near-miss identifiers.
#include <memory>

class Handle {
 public:
  Handle() = default;
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;
};

int make() {
  const auto node = std::make_unique<Handle>();
  const int new_count = 1;  // "new" in a comment is inert
  return node != nullptr ? new_count : 0;
}
