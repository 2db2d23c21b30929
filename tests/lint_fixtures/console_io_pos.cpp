// console-io positive fixture: a library printing to the console.
#include <cstdio>
#include <iostream>

void report(int v) {
  std::cout << v << "\n";
  std::cerr << "warning\n";
  std::printf("%d\n", v);
  std::fprintf(stderr, "%d\n", v);
}
