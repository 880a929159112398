#include "util/trace.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <thread>

#include "util/json.hpp"

namespace hpcfail::util {

namespace {

std::atomic<TraceRecorder*> g_trace{nullptr};

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(steady_ns()) {}

std::int64_t TraceRecorder::now_us() const noexcept {
  return (steady_ns() - epoch_ns_) / 1000;
}

void TraceRecorder::record(std::string name, std::int64_t ts_us, std::int64_t dur_us) {
  const std::uint64_t hash = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard lock(mutex_);
  std::uint32_t tid = 0;
  bool found = false;
  for (const auto& [h, id] : thread_ids_) {
    if (h == hash) {
      tid = id;
      found = true;
      break;
    }
  }
  if (!found) {
    tid = static_cast<std::uint32_t>(thread_ids_.size());
    thread_ids_.emplace_back(hash, tid);
  }
  TraceEvent e;
  e.name = std::move(name);
  e.tid = tid;
  e.ts_us = std::max<std::int64_t>(0, ts_us);
  e.dur_us = std::max<std::int64_t>(0, dur_us);
  events_.push_back(std::move(e));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::string TraceRecorder::to_chrome_json() const {
  std::vector<TraceEvent> sorted = events();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.dur_us > b.dur_us;  // parents before children
                   });
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TraceEvent& e = sorted[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_json_string(out, e.name);
    out += ",\"cat\":\"hpcfail\",\"ph\":\"X\",\"ts\":";
    append_json_number(out, e.ts_us);
    out += ",\"dur\":";
    append_json_number(out, e.dur_us);
    out += ",\"pid\":1,\"tid\":";
    append_json_number(out, std::uint64_t{e.tid});
    out += '}';
  }
  out += "]}";
  return out;
}

void install_trace(TraceRecorder* recorder) noexcept {
  g_trace.store(recorder, std::memory_order_release);
}

TraceRecorder* trace() noexcept { return g_trace.load(std::memory_order_acquire); }

std::string trace_name_segment(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0) {
      out.push_back(static_cast<char>(std::tolower(u)));
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "unnamed";
  return out;
}

}  // namespace hpcfail::util
