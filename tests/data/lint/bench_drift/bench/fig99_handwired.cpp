// Fixture: a figure bench that hand-wires the analysis instead of going
// through the shared bench pipeline facade.
#include "core/failure_detector.hpp"

int main() {
  const auto parsed = make_parsed();
  const hpcfail::core::FailureDetector detector;
  return detector.detect(parsed.store, &parsed.jobs).empty() ? 1 : 0;
}
