#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/markdown_report.hpp"
#include "parsers/ingest.hpp"
#include "util/metrics.hpp"
#include "util/scan.hpp"
#include "util/trace.hpp"

namespace hpcfail::serve {

using util::append_json_number;
using util::append_json_string;
using util::JsonValue;

namespace {

/// Latency bucket edges (microseconds) shared by every request observation
/// — the registry requires identical bounds on re-lookup.
const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds = {50,    100,   250,    500,    1000,
                                             2500,  5000,  10000,  25000,  50000,
                                             100000, 250000, 1000000};
  return bounds;
}

}  // namespace

Server::Server(parsers::ParsedCorpus corpus, ServerConfig config)
    : config_(config),
      topology_(std::move(corpus.topology)),
      jobs_(std::move(corpus.jobs)),
      label_(corpus.system.label),
      corpus_begin_(corpus.begin) {
  util::TraceSpan span("hpcfail.serve.boot");
  parse_ctx_.topo = &topology_;
  const util::CivilTime civil = util::civil_time(corpus_begin_);
  parse_ctx_.base_year = civil.year;
  parse_ctx_.base_month = civil.month;

  auto epoch = std::make_shared<Epoch>();
  epoch->id = 0;
  epoch->store = std::move(corpus.store);
  window_of(epoch->store, epoch->begin, epoch->end);

  // Replay the boot corpus through the monitor so node health covers
  // history, not just the tail.
  boot_alerts_ = monitor_.ingest_all(epoch->store);
  for (const core::Alert& alert : boot_alerts_) apply_alert(alert);
  monitor_watermark_ =
      epoch->store.size() == 0 ? corpus_begin_ : epoch->store.last_time();
  epoch->health = std::make_shared<const HealthMap>(health_);
  epoch->nodes_down = nodes_down_;

  publish(std::move(epoch));
}

void Server::attach_tail(std::string path, logmodel::LogSource source,
                         std::uint64_t offset) {
  if (source == logmodel::LogSource::Scheduler) {
    throw std::invalid_argument(
        "Server::attach_tail: scheduler logs are not tailable (the job table is fixed "
        "at boot)");
  }
  tails_.push_back(AttachedTail{TailReader(std::move(path), offset),
                                parsers::line_parser_for(source)});
}

Server::TailPoll Server::poll_tail() {
  util::TraceSpan span("hpcfail.serve.tail_poll");
  util::MetricsRegistry* reg = util::metrics();
  if (reg != nullptr) reg->counter("hpcfail.serve.tail_polls").increment();

  TailPoll out;
  const std::shared_ptr<Epoch> snap = current();

  std::vector<TailReader::Poll> polls;
  polls.reserve(tails_.size());
  {
    util::TraceSpan read("hpcfail.serve.tail_read");
    for (AttachedTail& tail : tails_) polls.push_back(tail.reader.poll());
  }

  logmodel::SymbolTable scratch;
  parsers::ParseContext ctx = parse_ctx_;
  ctx.symbols = &scratch;

  std::vector<logmodel::LogRecord> fresh;  // details interned in `scratch`
  for (std::size_t t = 0; t < tails_.size(); ++t) {
    const TailReader::Poll& poll = polls[t];
    // An errored tail's offset stopped at the error, so the next poll
    // retries it; the lines before it were consumed and parse here.
    if (!poll.ok() && !out.error.has_value()) out.error = poll.error;
    // The same walk as ingest's over a chunk: blank lines are skipped, not
    // counted, and CRLF endings are stripped.
    util::scan::LineCursor cursor(poll.text);
    std::string_view line;
    while (cursor.next(line)) {
      ++out.lines;
      if (const auto record = tails_[t].parse(line, ctx)) fresh.push_back(*record);
    }
  }
  out.records = fresh.size();
  if (reg != nullptr) {
    reg->counter("hpcfail.serve.tail_lines").add(out.lines);
    reg->counter("hpcfail.serve.tail_records").add(out.records);
  }
  if (fresh.empty()) return out;

  // Build the next epoch: the previous store extended by the fresh records.
  // extend() interns their details from the poll's own table into the
  // store's (in place at the chain's tip, so old ids stay valid and no
  // table is copied) and places records that interleave history in time
  // order.
  auto next = std::make_shared<Epoch>();
  next->id = snap->id + 1;
  next->store = logmodel::LogStore::extend(snap->store, fresh, scratch);
  window_of(next->store, next->begin, next->end);
  next->tail_records = snap->tail_records + fresh.size();

  // Feed the monitor the batch time-sorted, so a record from a tail polled
  // later is not dropped behind an earlier tail's newer record.  It
  // requires non-decreasing times; a tail record older than the watermark
  // (its time interleaves already-replayed history) is analyzable but not
  // monitorable.
  std::stable_sort(fresh.begin(), fresh.end(),
                   [](const logmodel::LogRecord& a, const logmodel::LogRecord& b) {
                     return a.time < b.time;
                   });
  for (const logmodel::LogRecord& record : fresh) {
    if (record.time < monitor_watermark_) {
      if (reg != nullptr) reg->counter("hpcfail.serve.monitor_skipped").increment();
      continue;
    }
    monitor_watermark_ = record.time;
    for (core::Alert& alert : monitor_.ingest(record, scratch.view(record.detail))) {
      apply_alert(alert);
      out.alerts.push_back(std::move(alert));
    }
  }
  next->health = out.alerts.empty() ? snap->health : std::make_shared<const HealthMap>(health_);
  next->nodes_down = nodes_down_;

  publish(std::move(next));
  return out;
}

std::string Server::handle_line(std::string_view line) {
  util::TraceSpan span("hpcfail.serve.request");
  util::MetricsRegistry* reg = util::metrics();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = reg != nullptr ? Clock::now() : Clock::time_point{};
  if (reg != nullptr) reg->counter("hpcfail.serve.requests").increment();

  const auto finish = [reg, start](std::string response, bool error) {
    if (reg != nullptr) {
      if (error) reg->counter("hpcfail.serve.request_errors").increment();
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - start);
      reg->histogram("hpcfail.serve.request_latency_us", latency_bounds())
          .observe(static_cast<double>(us.count()));
    }
    return response;
  };

  RequestParse parsed = parse_request(line);
  if (!parsed.ok()) {
    return finish(error_response(parsed.id, parsed.error, parsed.message), true);
  }
  const Request& req = *parsed.request;
  const std::shared_ptr<Epoch> snap = current();

  std::string data;
  std::string bad_params;
  try {
    switch (req.verb) {
      case Verb::Ping: data = data_ping(); break;
      case Verb::Status: data = data_status(*snap); break;
      case Verb::NodeHealth: data = data_node_health(*snap, req.params, bad_params); break;
      case Verb::LeadTime: data = data_lead_time(analysis_of(*snap)); break;
      case Verb::Causes: data = data_causes(analysis_of(*snap)); break;
      case Verb::Report: data = data_report(*snap, req.params, bad_params); break;
      case Verb::Metrics: data = data_metrics(); break;
      case Verb::Shutdown: data = data_shutdown(); break;
    }
  } catch (const std::exception& e) {
    return finish(error_response(req.id, ProtocolErrorKind::Internal, e.what()), true);
  }
  if (!bad_params.empty()) {
    return finish(error_response(req.id, ProtocolErrorKind::BadParams, bad_params),
                  true);
  }
  return finish(ok_response(req.id, req.verb, snap->id, data), false);
}

std::uint64_t Server::epoch() const noexcept { return current()->id; }

std::shared_ptr<Server::Epoch> Server::current() const {
  const std::scoped_lock lock(epoch_mutex_);
  return epoch_;
}

void Server::publish(std::shared_ptr<Epoch> next) {
  if (util::MetricsRegistry* reg = util::metrics()) {
    reg->gauge("hpcfail.serve.epoch").set(static_cast<std::int64_t>(next->id));
  }
  const std::scoped_lock lock(epoch_mutex_);
  epoch_ = std::move(next);
}

const core::AnalysisResult& Server::analysis_of(Epoch& epoch) {
  bool computed = false;
  std::call_once(epoch.once, [this, &epoch, &computed] {
    computed = true;
    util::TraceSpan span("hpcfail.serve.analyze_epoch");
    core::AnalysisConfig cfg;
    cfg.pool = config_.pool;
    const core::AnalysisEngine engine(cfg);
    epoch.analysis = std::make_shared<const core::AnalysisResult>(
        engine.analyze(epoch.store, &jobs_, epoch.begin, epoch.end));
    // Render the report from that same analysis, so one engine run per
    // epoch covers every analysis-backed verb.
    core::ReportInputs inputs;
    inputs.store = &epoch.store;
    inputs.jobs = &jobs_;
    inputs.topology = &topology_;
    inputs.system_label = label_;
    inputs.begin = epoch.begin;
    inputs.end = epoch.end;
    epoch.report = core::markdown_report(inputs, *epoch.analysis);
    recomputes_.fetch_add(1, std::memory_order_relaxed);
    if (util::MetricsRegistry* reg = util::metrics()) {
      reg->counter("hpcfail.serve.analysis_recomputes").increment();
    }
  });
  if (!computed) {
    if (util::MetricsRegistry* reg = util::metrics()) {
      reg->counter("hpcfail.serve.cache_hits").increment();
    }
  }
  return *epoch.analysis;
}

void Server::apply_alert(const core::Alert& alert) {
  NodeHealth& node = health_[alert.node.value];
  const bool was_down = node.down;
  switch (alert.kind) {
    case core::AlertKind::PatternWarning:
    case core::AlertKind::ExternalEarlyWarning:
      ++node.warnings;
      break;
    case core::AlertKind::FailureConfirmed:
      ++node.failures;
      node.down = true;
      break;
    case core::AlertKind::NodeRecovered:
      ++node.recoveries;
      node.down = false;
      break;
  }
  if (node.down && !was_down) ++nodes_down_;
  if (!node.down && was_down) --nodes_down_;
  node.has_alert = true;
  node.last = alert;
}

void Server::window_of(const logmodel::LogStore& store, util::TimePoint& begin,
                       util::TimePoint& end) const {
  if (store.size() == 0) {
    begin = corpus_begin_;
    end = corpus_begin_;
    return;
  }
  end = store.last_time() + util::Duration::microseconds(1);
  begin = store.first_time();
  if (end - begin > config_.window) begin = end - config_.window;
}

// --------------------------------------------------------------- handlers --

std::string Server::data_ping() const { return "{\"pong\":true}"; }

std::string Server::data_status(const Epoch& epoch) const {
  std::string out = "{\"analysis_recomputes\":";
  append_json_number(out, analysis_recomputes());
  out += ",\"epoch\":";
  append_json_number(out, epoch.id);
  out += ",\"nodes\":";
  append_json_number(out, static_cast<std::uint64_t>(epoch.store.nodes().size()));
  out += ",\"nodes_down\":";
  append_json_number(out, static_cast<std::uint64_t>(epoch.nodes_down));
  out += ",\"records\":";
  append_json_number(out, static_cast<std::uint64_t>(epoch.store.size()));
  out += ",\"system\":";
  append_json_string(out, label_);
  out += ",\"tail_records\":";
  append_json_number(out, static_cast<std::uint64_t>(epoch.tail_records));
  out += ",\"window_begin\":";
  append_json_string(out, util::format_iso(epoch.begin));
  out += ",\"window_end\":";
  append_json_string(out, util::format_iso(epoch.end));
  out += "}";
  return out;
}

std::string Server::data_node_health(const Epoch& epoch, const JsonValue& params,
                                     std::string& bad_params) const {
  const JsonValue* name = params.find("node");
  if (name == nullptr || !name->is_string()) {
    bad_params = "node_health needs params.node (string node name)";
    return {};
  }
  const std::optional<platform::NodeId> node =
      topology_.node_from_name(name->as_string());
  if (!node.has_value()) {
    bad_params = "unknown node name \"" + name->as_string() + "\"";
    return {};
  }

  const auto it = epoch.health->find(node->value);
  const NodeHealth* health = it == epoch.health->end() ? nullptr : &it->second;
  const std::size_t in_window =
      epoch.store.node_range(*node, epoch.begin, epoch.end).size();

  std::string out = "{\"down\":";
  out += (health != nullptr && health->down) ? "true" : "false";
  out += ",\"failures\":";
  append_json_number(out, health != nullptr ? health->failures : 0);
  out += ",\"last_alert\":";
  if (health != nullptr && health->has_alert) {
    out += "{\"kind\":";
    append_json_string(out, core::to_string(health->last.kind));
    out += ",\"message\":";
    append_json_string(out, health->last.message);
    out += ",\"suspected\":";
    append_json_string(out, logmodel::to_string(health->last.suspected));
    out += ",\"time\":";
    append_json_string(out, util::format_iso(health->last.time));
    out += "}";
  } else {
    out += "null";
  }
  out += ",\"node\":";
  append_json_string(out, name->as_string());
  out += ",\"records_in_window\":";
  append_json_number(out, static_cast<std::uint64_t>(in_window));
  out += ",\"recoveries\":";
  append_json_number(out, health != nullptr ? health->recoveries : 0);
  out += ",\"warnings\":";
  append_json_number(out, health != nullptr ? health->warnings : 0);
  out += "}";
  return out;
}

std::string Server::data_lead_time(const core::AnalysisResult& analysis) const {
  const core::LeadTimeSummary& s = analysis.lead_time_summary;
  std::string out = "{\"enhanceable\":";
  append_json_number(out, static_cast<std::uint64_t>(s.enhanceable));
  out += ",\"enhanceable_fraction\":";
  append_json_number(out, s.enhanceable_fraction());
  out += ",\"enhancement_factor\":";
  append_json_number(out, s.enhancement_factor());
  out += ",\"failures\":";
  append_json_number(out, static_cast<std::uint64_t>(s.failures));
  out += ",\"mean_external_minutes\":";
  append_json_number(out, s.external_minutes.mean());
  out += ",\"mean_internal_minutes\":";
  append_json_number(out, s.internal_minutes.mean());
  out += "}";
  return out;
}

std::string Server::data_causes(const core::AnalysisResult& analysis) const {
  // Cause names sorted alphabetically, every cause present (zero counts
  // included) so clients see a fixed schema.
  std::vector<std::pair<std::string_view, std::size_t>> counts;
  counts.reserve(logmodel::kRootCauseCount);
  for (std::size_t i = 0; i < logmodel::kRootCauseCount; ++i) {
    const auto cause = static_cast<logmodel::RootCause>(i);
    counts.emplace_back(logmodel::to_string(cause), analysis.breakdown.count(cause));
  }
  std::sort(counts.begin(), counts.end());

  std::string out = "{\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ",";
    append_json_string(out, counts[i].first);
    out += ":";
    append_json_number(out, static_cast<std::uint64_t>(counts[i].second));
  }
  out += "},\"layers\":{\"application\":";
  append_json_number(out, analysis.layers.application);
  out += ",\"application_triggered\":";
  append_json_number(out, analysis.layers.application_triggered);
  out += ",\"hardware\":";
  append_json_number(out, analysis.layers.hardware);
  out += ",\"memory_exhaustion\":";
  append_json_number(out, analysis.layers.memory_exhaustion);
  out += ",\"software\":";
  append_json_number(out, analysis.layers.software);
  out += ",\"unknown\":";
  append_json_number(out, analysis.layers.unknown);
  out += "},\"total\":";
  append_json_number(out, static_cast<std::uint64_t>(analysis.breakdown.total));
  out += "}";
  return out;
}

std::string Server::data_report(Epoch& epoch, const JsonValue& params,
                                std::string& bad_params) {
  analysis_of(epoch);  // renders epoch.report on first use
  const std::string& report = epoch.report;

  // Slice on "## " headings; the heading text names the section.
  struct Section {
    std::string_view title;
    std::size_t begin = 0;  ///< offset of the heading line
    std::size_t end = 0;    ///< offset one past the slice
  };
  std::vector<Section> sections;
  std::size_t pos = 0;
  while (pos < report.size()) {
    const bool at_heading = report.compare(pos, 3, "## ") == 0;
    const std::size_t eol = report.find('\n', pos);
    const std::size_t next = eol == std::string::npos ? report.size() : eol + 1;
    if (at_heading) {
      if (!sections.empty()) sections.back().end = pos;
      const std::size_t title_end = eol == std::string::npos ? report.size() : eol;
      sections.push_back(Section{
          std::string_view(report).substr(pos + 3, title_end - pos - 3), pos, 0});
    }
    pos = next;
  }
  if (!sections.empty()) sections.back().end = report.size();

  const JsonValue* wanted = params.find("section");
  if (wanted == nullptr) {
    std::string out = "{\"sections\":[";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (i != 0) out += ",";
      append_json_string(out, sections[i].title);
    }
    out += "]}";
    return out;
  }
  if (!wanted->is_string()) {
    bad_params = "report params.section must be a string section title";
    return {};
  }
  for (const Section& section : sections) {
    if (section.title == wanted->as_string()) {
      std::string out = "{\"section\":";
      append_json_string(out, section.title);
      out += ",\"text\":";
      append_json_string(out, std::string_view(report).substr(
                                  section.begin, section.end - section.begin));
      out += "}";
      return out;
    }
  }
  bad_params = "unknown report section \"" + wanted->as_string() +
               "\"; query report without params to list sections";
  return {};
}

std::string Server::data_metrics() const {
  std::string out = "{\"metrics\":";
  if (util::MetricsRegistry* reg = util::metrics()) {
    out += reg->to_json();
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

std::string Server::data_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  return "{\"stopping\":true}";
}

}  // namespace hpcfail::serve
