// Fixture: nondeterministic seeding that hpcfail-lint must reject.
#include <cstdlib>
#include <ctime>

unsigned bad_seed() {
  std::srand(static_cast<unsigned>(time(NULL)));
  return static_cast<unsigned>(rand());
}

unsigned tolerated_seed() {
  return static_cast<unsigned>(rand());  // hpcfail-lint: allow(banned-pattern) -- fixture for a reasoned allow
}

unsigned reasonless_seed() {
  return static_cast<unsigned>(rand());  // hpcfail-lint: allow(banned-pattern)
}
