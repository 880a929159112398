// Fixture: instrumentation sites whose metric/span names drift from the
// hpcfail.<layer>.<snake_case> convention.
#include "util/metrics.hpp"
#include "util/trace.hpp"

void instrument(hpcfail::util::MetricsRegistry& reg, int worker) {
  reg.counter("hpcfail.ingest.bytes_read").add(1);
  reg.counter("hpcfail.Ingest.BytesRead").add(1);
  reg.gauge("hpcfail.pool").set(1);
  reg.counter("ingest.chunks").add(1);
  reg.counter("hpcfail.pool.Worker" + std::to_string(worker)).add(1);
  hpcfail::util::TraceSpan span("hpcfail.engine.run");
  hpcfail::util::TraceSpan bad("hpcfail.engine.Analyzer");
  reg.counter("hpcfail.Legacy.Name").add(1);  // hpcfail-lint: allow(metric-naming) -- fixture for a reasoned allow
  // Without a reason the allow suppresses nothing:
  reg.counter("hpcfail.Legacy.Other").add(1);  // hpcfail-lint: allow(metric-naming)
}
