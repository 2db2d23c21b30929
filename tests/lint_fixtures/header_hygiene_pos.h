// header-hygiene positive fixture: a header with no include guard
// pragma; the finding lands on line 1.
struct Unguarded {
  int value = 0;
};
