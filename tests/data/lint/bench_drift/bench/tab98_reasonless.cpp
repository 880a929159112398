// Fixture: a table bench with no failure analysis whose allow has no
// reason, so it suppresses nothing. hpcfail-lint: allow(bench-pipeline)
#include <cstdio>

int main() {
  std::puts("inventory");
  return 0;
}
