// check-convention negative fixture: util/check.h and typed errors.
#include "util/check.h"

int checked(int v) {
  static_assert(sizeof(int) >= 4);
  FGP_CHECK_MSG(v >= 0, "negative input");
  if (v == 42) throw fgp::util::ConfigError("no");
  return v;
}
