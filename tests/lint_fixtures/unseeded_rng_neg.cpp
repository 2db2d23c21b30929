// unseeded-rng negative fixture: a seeded util::Rng and a near miss.
#include "util/rng.h"

struct Bounds {
  int rand_max = 6;  // a field, not a call
};

int roll(std::uint64_t seed) {
  fgp::util::Rng rng(seed);
  return static_cast<int>(rng.next_below(Bounds{}.rand_max));
}
