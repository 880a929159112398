// The resident query daemon's engine: boots from a ParsedCorpus (text
// parse, streaming ingest or snapshot load all produce one), follows
// attached log tails through TailReader + OnlineMonitor, and answers
// protocol requests against an immutable per-epoch view of the world.
//
// Epoch model (DESIGN.md §14): the server holds a shared_ptr to the
// current Epoch — an immutable LogStore over base + tail records, the
// sliding analysis window clipped to ServerConfig::window, and a snapshot
// of per-node monitor health.  poll_tail() is the single writer: when new
// records arrive it builds the next Epoch — the previous store extended
// by the fresh records (LogStore::extend: rows, index entries and detail
// strings appended in place past every older epoch's view, no copy of the
// history or its symbol table, no sort, no re-index) — and
// swaps the pointer; queries (any thread) copy the pointer once and answer
// entirely from that Epoch, so every response is consistent with exactly
// one epoch — no torn reads.
//
// Analysis results are cached per epoch: the first query that needs the
// AnalysisEngine (causes, lead_time, report) runs it once under
// std::call_once, renders the markdown report from that same result, and
// every later query in that epoch reuses both.  A tail advance
// invalidates nothing in place — the old Epoch simply stops being
// current, and in-flight queries against it stay valid until their
// shared_ptr drops.  hpcfail.serve.analysis_recomputes counts the compute
// path, hpcfail.serve.cache_hits the reuse path; the epoch-cache test
// pins "repeated queries within an epoch never recompute" on those.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/online_monitor.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/ingest.hpp"
#include "parsers/source_parsers.hpp"
#include "serve/protocol.hpp"
#include "serve/tail.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail::serve {

/// Per-node rollup of every monitor alert seen so far.
struct NodeHealth {
  std::uint64_t warnings = 0;    ///< PatternWarning + ExternalEarlyWarning
  std::uint64_t failures = 0;    ///< FailureConfirmed
  std::uint64_t recoveries = 0;  ///< NodeRecovered
  bool down = false;
  bool has_alert = false;
  core::Alert last;  ///< most recent alert; meaningful when has_alert
};

struct ServerConfig {
  /// Sliding analysis window: queries analyze [last record - window,
  /// last record], clipped to the store extent.
  util::Duration window = util::Duration::days(30);
  /// Shards the per-failure analysis stages; null = serial (results are
  /// byte-identical either way, per the engine's determinism contract).
  util::ThreadPool* pool = nullptr;
};

class Server {
 public:
  /// Boots over the corpus: replays the store through the OnlineMonitor
  /// (boot_alerts() keeps the replay's alerts) and publishes epoch 0.
  explicit Server(parsers::ParsedCorpus corpus, ServerConfig config = {});

  /// Follows `path` as a live tail of `source` starting at `offset` (pass
  /// the ingested prefix size; 0 re-reads the whole file).  Scheduler
  /// tails are rejected with std::invalid_argument: the job table is
  /// fixed at boot, so tailed job facts would have nowhere to go.
  void attach_tail(std::string path, logmodel::LogSource source,
                   std::uint64_t offset = 0);

  struct TailPoll {
    std::size_t lines = 0;    ///< non-blank lines consumed across all tails
    std::size_t records = 0;  ///< records parsed from them
    std::vector<core::Alert> alerts;
    std::optional<TailError> error;  ///< first tail error, if any

    [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
  };

  /// Polls every attached tail and, when records arrived, publishes the
  /// next epoch: the current store extended by the fresh records, in time
  /// order wherever they fall.  The fresh records of all tails reach the
  /// OnlineMonitor time-sorted; one older than the last record fed (its
  /// time interleaves history) is stored and analyzed but not monitored,
  /// and counted in hpcfail.serve.monitor_skipped.  Single-writer: call
  /// from one thread at a time (queries may run concurrently).  A tail
  /// error leaves that tail's offset where reading stopped — the next poll
  /// retries from there — and never tears the current epoch.
  TailPoll poll_tail();

  /// Parses and answers one request line; always returns exactly one
  /// response line (no trailing newline).  Thread-safe.
  [[nodiscard]] std::string handle_line(std::string_view line);

  /// Current epoch id: 0 at boot, +1 per record-bearing poll.
  [[nodiscard]] std::uint64_t epoch() const noexcept;

  /// Times the analysis cache was filled (at most once per epoch).
  [[nodiscard]] std::uint64_t analysis_recomputes() const noexcept {
    return recomputes_.load(std::memory_order_relaxed);
  }

  /// True once a shutdown request was answered; serve loops stop on it.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Alerts emitted while replaying the boot corpus through the monitor.
  [[nodiscard]] const std::vector<core::Alert>& boot_alerts() const noexcept {
    return boot_alerts_;
  }

  [[nodiscard]] const platform::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] std::string_view system_label() const noexcept { return label_; }

 private:
  using HealthMap = std::unordered_map<std::uint32_t, NodeHealth>;  ///< by node id

  /// One immutable published view; queries pin it with a shared_ptr.
  struct Epoch {
    std::uint64_t id = 0;
    logmodel::LogStore store;  ///< base + every tail record so far
    util::TimePoint begin;     ///< analysis window start
    util::TimePoint end;       ///< analysis window end (exclusive)
    std::size_t tail_records = 0;  ///< cumulative tail records in the store
    /// Per-node monitor health; shared with the previous epoch when this
    /// epoch's poll raised no alert, so a poll does not copy the health of
    /// every node ever alerted.
    std::shared_ptr<const HealthMap> health;
    std::size_t nodes_down = 0;  ///< nodes in `health` marked down

    // Lazy per-epoch analysis cache, filled at most once under `once`.
    std::once_flag once;
    std::shared_ptr<const core::AnalysisResult> analysis;
    std::string report;  ///< markdown_report rendered from `analysis`
  };

  struct AttachedTail {
    TailReader reader;
    parsers::LineParseFn parse = nullptr;
  };

  [[nodiscard]] std::shared_ptr<Epoch> current() const;
  void publish(std::shared_ptr<Epoch> next);

  /// Fills the epoch's analysis cache (the analysis, then the report
  /// rendered from it) on first use; counts recompute vs cache hit.
  const core::AnalysisResult& analysis_of(Epoch& epoch);

  /// Folds one alert into the writer's health_ and nodes_down_.
  void apply_alert(const core::Alert& alert);

  /// Window bounds for a store extent under config_.window.
  void window_of(const logmodel::LogStore& store, util::TimePoint& begin,
                 util::TimePoint& end) const;

  // --- per-verb handlers; each returns the serialized "data" object ------
  [[nodiscard]] std::string data_ping() const;
  [[nodiscard]] std::string data_status(const Epoch& epoch) const;
  [[nodiscard]] std::string data_node_health(const Epoch& epoch,
                                             const util::JsonValue& params,
                                             std::string& bad_params) const;
  [[nodiscard]] std::string data_lead_time(const core::AnalysisResult& analysis) const;
  [[nodiscard]] std::string data_causes(const core::AnalysisResult& analysis) const;
  [[nodiscard]] std::string data_report(Epoch& epoch, const util::JsonValue& params,
                                        std::string& bad_params);
  [[nodiscard]] std::string data_metrics() const;
  [[nodiscard]] std::string data_shutdown();

  ServerConfig config_;
  platform::Topology topology_;
  jobs::JobTable jobs_;  ///< immutable after boot (tails never carry scheduler lines)
  std::string label_;
  util::TimePoint corpus_begin_;
  parsers::ParseContext parse_ctx_;  ///< topo set; symbols rebound per poll

  mutable std::mutex epoch_mutex_;
  std::shared_ptr<Epoch> epoch_;  ///< guarded by epoch_mutex_ (pointer only)

  // Tail state: single-writer (poll_tail), so unguarded by design.
  std::vector<AttachedTail> tails_;
  core::OnlineMonitor monitor_;
  util::TimePoint monitor_watermark_;  ///< last time fed to the monitor
  HealthMap health_;  ///< writer's copy
  std::size_t nodes_down_ = 0;  ///< nodes in health_ marked down
  std::vector<core::Alert> boot_alerts_;

  std::atomic<std::uint64_t> recomputes_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace hpcfail::serve
