// unseeded-rng positive fixture: ambient randomness in src/.
#include <cstdlib>
#include <random>

int roll() {
  std::random_device device;
  std::srand(device());
  return std::rand() % 6;
}
