#pragma once
// Streaming, bounded-memory corpus ingestion: per-source log files ->
// finalized LogStore + JobTable, without ever holding a full source text
// or a full line-view vector in memory.
//
// The pipeline per non-scheduler source:
//
//   ChunkedLineReader --chunk--> ThreadPool parse task --records--> StoreBuilder
//
// The reader hands out fixed-size chunks split on line boundaries; up to
// `max_inflight_chunks` chunks are being parsed concurrently while the
// next one is read (read -> parse -> shard pipelining); parsed chunks are
// retired in submission order, so the record sequence reaching the
// sharded builder is exactly the file's line order.  Peak text residency
// is chunk_bytes x (inflight + 1) instead of the corpus size.
//
// The scheduler source is parsed sequentially (its lines mutate the
// JobTable in order) but still streams chunk by chunk.
//
// Error surface: malformed *lines* are skipped and counted (never fatal),
// but *stream-level* failures — an I/O error mid-file, an allocation
// failure mid-pipeline, a missing source file under MissingFilePolicy::
// Error — stop the run and surface as a structured IngestError on the
// returned IngestResult, alongside the record-accurate partial store built
// from everything retired before the failure.  Configuration mistakes
// (missing/malformed manifest) still throw: they mean there is no corpus,
// not a damaged one.  The `ingest.*` fault sites (util/fault.hpp) let the
// sweep in tests/faultinject_test.cpp provoke every degraded ending.
//
// This is the only parse path: parse_corpus() (parsers/corpus_parser.hpp)
// is ingest_stream() over in-memory streams.  tests/ingest_test.cpp pins
// that file-backed and in-memory streams of the same corpus bytes produce
// identical ParsedCorpus contents (record order, indexes, line counts) for
// any chunk geometry and source order.

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "parsers/corpus_parser.hpp"
#include "parsers/source_parsers.hpp"

namespace hpcfail::parsers {

/// What to do when a per-source log file named by the manifest layout is
/// absent from the corpus directory.
enum class MissingFilePolicy {
  /// Skip the source, like read_corpus (S5 legitimately has no external
  /// logs) — but count it in `hpcfail.ingest.files_missing` so the skip is
  /// no longer invisible.
  Skip,
  /// Stop and report IngestErrorKind::MissingFile.
  Error,
};

struct IngestOptions {
  /// Target chunk size in bytes; a chunk grows past this only when a
  /// single line is longer.  256 KiB keeps the in-flight buffers a small
  /// fraction of peak RSS at no measurable throughput cost.
  std::size_t chunk_bytes = std::size_t{1} << 18;
  /// Chunks parsed concurrently per source; 0 means 2 x pool size.
  std::size_t max_inflight_chunks = 0;
  /// Pool for chunk parsing; null = shared default pool.
  util::ThreadPool* pool = nullptr;
  /// Absent source files: skip-with-metric (default) or structured error.
  MissingFilePolicy missing_file_policy = MissingFilePolicy::Skip;
};

/// One open source stream; `in` must outlive the ingest call.
struct SourceStream {
  logmodel::LogSource source;
  std::istream* in = nullptr;
};

enum class IngestErrorKind {
  StreamIo,     ///< the stream reported badbit/failbit that is not EOF
  Resource,     ///< std::bad_alloc mid-pipeline (parse, retire, or merge)
  MissingFile,  ///< a source file is absent and missing_file_policy == Error
};

[[nodiscard]] std::string_view to_string(IngestErrorKind kind) noexcept;

/// Structured description of why an ingest run stopped early.
struct IngestError {
  IngestErrorKind kind = IngestErrorKind::StreamIo;
  logmodel::LogSource source = logmodel::LogSource::Console;
  std::string file;             ///< on-disk file, when ingesting a directory
  std::size_t byte_offset = 0;  ///< stream offset where detected (StreamIo)
  std::string message;

  /// "<kind> in <source> (<file>, offset N): <message>" one-liner.
  [[nodiscard]] std::string to_string() const;
};

/// ParsedCorpus plus the explicit error surface.  When `error` is set the
/// base holds the record-accurate partial result: every record retired
/// before the failure, finalized and queryable, with total_lines /
/// parsed_records / skipped_lines accounting for every line seen.
struct IngestResult : ParsedCorpus {
  std::optional<IngestError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Streams a corpus directory (manifest.txt + per-source log files, as
/// written by loggen::write_corpus).  Absent source files follow
/// options.missing_file_policy.  Throws on a missing/malformed manifest;
/// data-plane failures come back as IngestResult::error.
[[nodiscard]] IngestResult ingest_files(const std::string& dir,
                                        const IngestOptions& options = {});

/// Lower-level entry: `header` carries the manifest fields (system,
/// topology, window); `sources` are parsed in the canonical source order
/// regardless of their order in the vector.
[[nodiscard]] IngestResult ingest_stream(const loggen::Corpus& header,
                                         const std::vector<SourceStream>& sources,
                                         const IngestOptions& options = {});

/// The stateless per-line parser the parallel path uses for `source`
/// (nullptr for LogSource::Scheduler, which is stateful).
using LineParseFn = std::optional<logmodel::LogRecord> (*)(std::string_view,
                                                           const ParseContext&);
[[nodiscard]] LineParseFn line_parser_for(logmodel::LogSource source) noexcept;

}  // namespace hpcfail::parsers
