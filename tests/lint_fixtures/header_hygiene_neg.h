// header-hygiene negative fixture: a guarded header.
#pragma once

struct Guarded {
  int value = 0;
};
