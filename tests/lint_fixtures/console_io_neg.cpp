// console-io negative fixture: formatting into a buffer is fine.
#include <cstdio>
#include <string>

std::string format(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%d", v);  // printf() in a comment
  return std::string(buf) + "cout";
}
