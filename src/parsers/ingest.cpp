#include "parsers/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <new>
#include <stdexcept>
#include <utility>

#include "logmodel/store_builder.hpp"
#include "parsers/source_parsers.hpp"
#include "util/chunked_reader.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/scan.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "util/trace.hpp"

namespace hpcfail::parsers {

using logmodel::LogRecord;
using logmodel::LogSource;

LineParseFn line_parser_for(LogSource source) noexcept {
  switch (source) {
    case LogSource::Messages: return &parse_messages_line;
    case LogSource::Controller: return &parse_controller_line;
    case LogSource::Erd: return &parse_erd_line;
    case LogSource::Scheduler: return &parse_scheduler_line;
    default: return &parse_console_line;  // console and consumer
  }
}

std::string_view to_string(IngestErrorKind kind) noexcept {
  switch (kind) {
    case IngestErrorKind::Resource: return "resource";
    case IngestErrorKind::StreamIo: break;
  }
  return "stream-io";
}

std::string IngestError::to_string() const {
  std::string out(parsers::to_string(kind));
  out += " error in ";
  out += logmodel::to_string(source);
  if (!file.empty()) out += " (" + file + ")";
  if (kind == IngestErrorKind::StreamIo) {
    out += " at byte offset " + std::to_string(byte_offset);
  }
  out += ": " + message;
  return out;
}

namespace {

/// Result of parsing one chunk's lines on a pool worker.  Detail Symbols
/// point into the chunk-local table; append_batch remaps them into the
/// builder's table at retire time.  `job_updates` holds the chunk's job
/// facts (scheduler chunks only), in line order.
struct ChunkResult {
  std::vector<LogRecord> records;
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> job_updates;
  std::size_t lines = 0;
  std::size_t skipped = 0;
};

std::int64_t steady_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ingest-layer instrument slots, all nullptr when metrics are dark.  The
/// stall counters separate time blocked on the producer (reading the next
/// chunk) from time blocked on consumers (waiting for the oldest in-flight
/// parse): the read-vs-parse balance of the pipeline.
struct IngestInstruments {
  util::Counter* bytes_read = nullptr;
  util::Counter* chunks = nullptr;
  util::Counter* records_parsed = nullptr;
  util::Counter* lines_skipped = nullptr;
  util::Counter* read_stall_us = nullptr;
  util::Counter* retire_stall_us = nullptr;

  static IngestInstruments bind() {
    IngestInstruments m;
    if (util::MetricsRegistry* reg = util::metrics()) {
      m.bytes_read = &reg->counter("hpcfail.ingest.bytes_read");
      m.chunks = &reg->counter("hpcfail.ingest.chunks");
      m.records_parsed = &reg->counter("hpcfail.ingest.records_parsed");
      m.lines_skipped = &reg->counter("hpcfail.ingest.lines_skipped");
      m.read_stall_us = &reg->counter("hpcfail.ingest.read_stall_us");
      m.retire_stall_us = &reg->counter("hpcfail.ingest.retire_stall_us");
    }
    return m;
  }

  [[nodiscard]] bool on() const noexcept { return bytes_read != nullptr; }
};

/// Sources retire in this fixed order whatever order the caller lists
/// them in, so time-tied records always merge in the same order.
constexpr LogSource kSourceOrder[] = {
    LogSource::Console,    LogSource::Consumer, LogSource::Messages,
    LogSource::Controller, LogSource::Erd,      LogSource::Scheduler,
};

/// read -> parse -> shard pipeline over one source stream.  Chunks retire
/// in submission order (FIFO), so the builder sees the file's line order,
/// and `job_updates` the scheduler's job facts in log order, no matter how
/// the pool schedules the parse tasks.
void ingest_source(std::istream& in, LineParseFn parse, const ParseContext& ctx,
                   const IngestOptions& options, util::ThreadPool& pool,
                   logmodel::StoreBuilder& builder,
                   std::vector<jobs::JobUpdate>& job_updates, std::size_t& total_lines,
                   std::size_t& skipped) {
  util::ChunkedLineReader reader(in, options.chunk_bytes);
  std::deque<std::future<ChunkResult>> pending;
  const IngestInstruments m = IngestInstruments::bind();

  const auto retire_front = [&] {
    if (HPCFAIL_FAULT_SITE("ingest.retire.bad_alloc")) throw std::bad_alloc{};
    ChunkResult r;
    if (m.on()) {
      const std::int64_t t0 = steady_us();
      r = pending.front().get();
      m.retire_stall_us->add(
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_us() - t0)));
    } else {
      r = pending.front().get();
    }
    pending.pop_front();
    // append_batch throws (if at all) before touching the store, so counting
    // the chunk's lines only after it returns keeps the partial-result
    // invariant total_lines == parsed + skipped when a retire fails.  The
    // job facts follow the records, so a partial job table never holds a
    // job whose JobStart record the partial store lacks.
    const std::size_t records = r.records.size();
    builder.append_batch(std::move(r.records), r.symbols);
    total_lines += r.lines;
    skipped += r.skipped;
    job_updates.insert(job_updates.end(), std::make_move_iterator(r.job_updates.begin()),
                       std::make_move_iterator(r.job_updates.end()));
    if (m.on()) {
      m.records_parsed->add(records);
      m.lines_skipped->add(r.skipped);
    }
  };

  const auto read_next = [&](std::string& out) {
    if (!m.on()) return reader.next(out);
    const std::int64_t t0 = steady_us();
    const bool more = reader.next(out);
    m.read_stall_us->add(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_us() - t0)));
    if (more) {
      m.bytes_read->add(out.size());
      m.chunks->increment();
    }
    return more;
  };

  std::string chunk;
  try {
    while (read_next(chunk)) {
      // ctx is captured by value (four words): a queued task must not hold
      // references into this frame once an exception starts unwinding it.
      pending.push_back(
          pool.submit([text = std::move(chunk), parse, ctx]() -> ChunkResult {
            util::TraceSpan span("hpcfail.ingest.parse_chunk");
            if (HPCFAIL_FAULT_SITE("ingest.parse.bad_alloc")) throw std::bad_alloc{};
            ChunkResult r;
            ParseContext local = ctx;
            local.symbols = &r.symbols;  // intern straight from the chunk buffer
            local.job_updates = &r.job_updates;
            // Zero-allocation line walk: the cursor hands out views into the
            // chunk buffer one at a time, so the per-chunk vector of line
            // views (and its resize churn) is gone from the hot loop.
            r.records.reserve(util::scan::count_byte(text, '\n') + 1);
            util::scan::LineCursor cursor(text);
            std::string_view line;
            while (cursor.next(line)) {
              ++r.lines;
              if (auto rec = parse(line, local)) {
                r.records.push_back(*rec);
              } else {
                ++r.skipped;
              }
            }
            return r;
          }));
      chunk = {};
      if (pending.size() >= 2 * pool.size()) retire_front();
    }
    while (!pending.empty()) retire_front();
  } catch (...) {
    // Tasks capture everything by value, so nothing dangles — but join
    // anyway so an ingest error doesn't leave parse work running after the
    // caller regains control.
    for (auto& f : pending) {
      if (f.valid()) f.wait();
    }
    throw;
  }
}

/// Runs one source's pipeline, converting the two recoverable data-plane
/// failures — a stream I/O error from the reader and an allocation failure
/// anywhere in the chunk pipeline — into a structured IngestError.  Logic
/// errors and everything else stay loud.
template <typename Fn>
std::optional<IngestError> run_source_guarded(LogSource source, Fn&& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const util::IoError& e) {
    return IngestError{IngestErrorKind::StreamIo, source, {}, e.byte_offset, e.what()};
  } catch (const std::bad_alloc&) {
    return IngestError{IngestErrorKind::Resource, source, {}, 0,
                       "allocation failure in the ingest pipeline"};
  }
}

}  // namespace

IngestResult ingest_stream(const loggen::Corpus& header,
                           const std::vector<SourceStream>& sources,
                           const IngestOptions& options) {
  util::TraceSpan run_span("hpcfail.ingest.run");
  IngestResult out;
  out.system = header.system;
  out.topology = platform::Topology{header.system.topology};
  out.begin = header.begin;
  out.days = header.days;
  util::ThreadPool& pool = options.pool != nullptr ? *options.pool : util::default_pool();

  const auto begin_civil = util::civil_time(header.begin);
  ParseContext ctx;
  ctx.topo = &out.topology;
  ctx.base_year = begin_civil.year;
  ctx.base_month = begin_civil.month;

  const auto stream_of = [&sources](LogSource s) -> std::istream* {
    for (const auto& src : sources) {
      if (src.source == s) return src.in;
    }
    return nullptr;
  };

  logmodel::StoreBuilder builder;
  std::vector<jobs::JobUpdate> job_updates;
  std::size_t skipped = 0;

  for (const LogSource source : kSourceOrder) {
    std::istream* in = stream_of(source);
    if (in == nullptr) continue;
    util::TraceSpan span("hpcfail.ingest.source_" +
                         util::trace_name_segment(logmodel::to_string(source)));
    out.error = run_source_guarded(source, [&] {
      ingest_source(*in, line_parser_for(source), ctx, options, pool, builder,
                    job_updates, out.total_lines, skipped);
    });
    if (out.error) break;
  }
  // The table is built once, from the facts of every retired chunk, and
  // before the store merge so the update list is gone by then.
  {
    util::TraceSpan span("hpcfail.ingest.job_table");
    out.jobs = jobs::JobTable(std::move(job_updates));
  }

  // Build the store even after a failure: everything retired before the
  // error is a record-accurate partial result, and the line accounting
  // (total_lines = parsed + skipped) covers exactly what was seen.
  out.skipped_lines = skipped;
  out.parsed_records = builder.record_count();
  out.store = builder.build();
  return out;
}

IngestResult ingest_files(const std::string& dir, const IngestOptions& options) {
  namespace fs = std::filesystem;
  const loggen::Corpus header = loggen::read_corpus_header(dir);

  std::vector<std::ifstream> files;
  std::vector<SourceStream> sources;
  files.reserve(logmodel::kLogSourceCount);
  sources.reserve(logmodel::kLogSourceCount);
  for (std::size_t i = 0; i < logmodel::kLogSourceCount; ++i) {
    const auto source = static_cast<LogSource>(i);
    const fs::path path = fs::path(dir) / loggen::source_file_name(source);
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      // Absent source (e.g. no ERD on S5): skipped, but never invisible.
      if (util::MetricsRegistry* reg = util::metrics()) {
        reg->counter("hpcfail.ingest.files_missing").increment();
      }
      continue;
    }
    files.push_back(std::move(file));
    sources.push_back(SourceStream{source, &files.back()});
  }
  IngestResult out = ingest_stream(header, sources, options);
  if (out.error && out.error->file.empty()) {
    out.error->file = (fs::path(dir) / loggen::source_file_name(out.error->source)).string();
  }
  return out;
}

}  // namespace hpcfail::parsers
