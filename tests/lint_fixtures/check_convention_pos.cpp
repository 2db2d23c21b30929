// check-convention positive fixture: raw asserts, aborts and std
// exceptions instead of util/check.h and typed errors.
#include <cassert>
#include <cstdlib>
#include <stdexcept>

int checked(int v) {
  assert(v >= 0);
  if (v > 100) std::abort();
  if (v == 42) throw std::runtime_error("no");
  return v;
}
