#include "ledger.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

namespace util = hpcfail::util;

namespace {

constexpr std::string_view kOp = "perfbench.op";

/// Program span prefixes and the ledger layer that owns them.
constexpr std::pair<std::string_view, std::string_view> kProgramPrefixes[] = {
    {"hpcfail.sim.", "faultsim"},   {"hpcfail.ingest.", "parsers"},
    {"hpcfail.store.", "logmodel"}, {"hpcfail.engine.", "core"},
    {"hpcfail.context.", "core"},   {"hpcfail.serve.", "serve"},
};

std::string_view strip_id(std::string_view name) {
  const auto hash = name.rfind('#');
  return hash == std::string_view::npos ? name : name.substr(0, hash);
}

/// The ledger layer owning span `name` ("" for the root span and for spans
/// of no known layer).
std::string_view layer_of(std::string_view name) {
  constexpr std::string_view kBench = "perfbench.";
  if (name.substr(0, kBench.size()) == kBench) {
    const std::string_view rest = name.substr(kBench.size());
    const std::string_view layer = rest.substr(0, rest.find('.'));
    for (const std::string_view known : kLayers) {
      if (known == layer && layer.size() < rest.size()) return known;
    }
    return {};
  }
  for (const auto& [prefix, layer] : kProgramPrefixes) {
    if (name.substr(0, prefix.size()) == prefix) return layer;
  }
  return {};
}

}  // namespace

Span::Span(std::string_view name, std::uint64_t id) noexcept : recorder_(util::trace()) {
  if (recorder_ != nullptr) {
    name_ = "perfbench.";
    name_ += name;
    name_ += '#';
    name_ += std::to_string(id);
    start_us_ = recorder_->now_us();
  }
}

Span::~Span() {
  if (recorder_ != nullptr) {
    recorder_->record(std::move(name_), start_us_, recorder_->now_us() - start_us_);
  }
}

LedgerTotals aggregate(const util::TraceRecorder& recorder) {
  struct Node {
    std::string_view name;  // id stripped; views into `events`
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t covered = 0;  // child time inside [begin, end)
  };

  const std::vector<util::TraceEvent> events = recorder.events();
  LedgerTotals out;
  for (const std::string_view layer : kLayers) out.self_ms[std::string(layer)] = 0.0;

  std::unordered_map<std::uint32_t, std::vector<Node>> by_thread;
  std::unordered_set<std::uint32_t> op_threads;
  for (const util::TraceEvent& e : events) {
    const Node n{strip_id(e.name), e.ts_us, e.ts_us + e.dur_us};
    by_thread[e.tid].push_back(n);
    if (n.name == kOp) op_threads.insert(e.tid);
    out.span_ms[std::string(n.name)] += static_cast<double>(e.dur_us) / 1e3;
  }

  for (auto& [tid, nodes] : by_thread) {
    if (op_threads.count(tid) == 0) continue;
    // Spans on one thread nest strictly; outer spans sort first.
    std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<Node*> stack;
    for (Node& n : nodes) {
      while (!stack.empty() && n.begin >= stack.back()->end) stack.pop_back();
      if (!stack.empty()) stack.back()->covered += std::min(n.end, stack.back()->end) - n.begin;
      stack.push_back(&n);
    }
    for (const Node& n : nodes) {
      const double self_ms =
          static_cast<double>(std::max<std::int64_t>(0, n.end - n.begin - n.covered)) / 1e3;
      if (n.name == kOp) ++out.ops;
      const std::string_view layer = layer_of(n.name);
      if (layer.empty()) {
        out.unaccounted_ms += self_ms;
      } else {
        out.self_ms[std::string(layer)] += self_ms;
      }
    }
  }
  return out;
}

}  // namespace perfbench
