// Fixture: a table bench with no failure analysis at all, suppressed via
// the allow comment. hpcfail-lint: allow(bench-pipeline) -- prints an inventory, analyzes nothing
#include <cstdio>

int main() {
  std::puts("inventory");
  return 0;
}
