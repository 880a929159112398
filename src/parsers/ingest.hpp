#pragma once
// Streaming, bounded-memory corpus ingestion: per-source log files ->
// LogStore + JobTable, without ever holding a full source text or a full
// line-view vector in memory.
//
// One pipeline serves all six sources, one source after another, the
// scheduler last:
//
//   ChunkedLineReader --chunk--> ThreadPool parse task --records--> StoreBuilder
//                                                     \--job updates--> JobTable
//
// The reader hands out fixed-size chunks split on line boundaries; up to
// two chunks per pool thread are being parsed concurrently while the next
// one is read (read -> parse -> shard pipelining); parsed chunks are
// retired in submission order, so the record sequence reaching the
// sharded builder is exactly the file's line order.  Peak text residency
// is chunk_bytes x (2 x threads + 1) instead of the corpus size.
//
// Every line parser is stateless (parsers/source_parsers.hpp).  The
// scheduler parser appends each line's job fact to its chunk's list; a
// chunk's facts retire with its records, right after them, so they reach
// the one JobTable constructor in log order, and a partial result's table
// never holds a job whose JobStart record its store lacks.
//
// Error surface: malformed *lines* are skipped and counted (never fatal),
// and so are absent source files; *stream-level* failures — an I/O error
// mid-file, an allocation failure mid-pipeline — stop the run and surface
// as a structured IngestError on the returned IngestResult, alongside the
// record-accurate partial store built from everything retired before the
// failure.  Configuration mistakes (missing/malformed manifest) still
// throw: they mean there is no corpus, not a damaged one.  The `ingest.*`
// fault sites (util/fault.hpp) let the sweep in tests/faultinject_test.cpp
// provoke every degraded ending.
//
// This is the only parse path: ingest_corpus() is ingest_stream() over
// in-memory streams, and parse_corpus() (parsers/corpus_parser.hpp) wraps
// it, throwing on an ingest error.  tests/ingest_test.cpp pins
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

struct IngestOptions {
  /// Target chunk size in bytes; a chunk grows past this only when a
  /// single line is longer.  256 KiB keeps the in-flight buffers a small
  /// fraction of peak RSS at no measurable throughput cost.
  std::size_t chunk_bytes = std::size_t{1} << 18;
  /// Pool for chunk parsing; null = shared default pool.  Each source keeps
  /// up to 2 x its size chunks in flight.
  util::ThreadPool* pool = nullptr;
};

/// One open source stream; `in` must outlive the ingest call.
struct SourceStream {
  logmodel::LogSource source;
  std::istream* in = nullptr;
};

enum class IngestErrorKind {
  StreamIo,  ///< the stream reported badbit/failbit that is not EOF
  Resource,  ///< std::bad_alloc mid-pipeline (parse, retire, or merge)
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
/// base holds the record-accurate partial result: every record and job
/// retired before the failure, queryable, with total_lines /
/// parsed_records / skipped_lines accounting for every line seen.
struct IngestResult : ParsedCorpus {
  std::optional<IngestError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Streams a corpus directory (manifest.txt + per-source log files, as
/// written by loggen::write_corpus).  An absent source file is skipped, like
/// read_corpus does (S5 legitimately has no external logs), and counted in
/// `hpcfail.ingest.files_missing`.  Throws on a missing/malformed manifest;
/// data-plane failures come back as IngestResult::error.
[[nodiscard]] IngestResult ingest_files(const std::string& dir,
                                        const IngestOptions& options = {});

/// Streams the in-memory text of `corpus` through the same pipeline, as
/// zero-copy memory streams.  An ingest error comes back as
/// IngestResult::error, with the partial result; parse_corpus
/// (parsers/corpus_parser.hpp) is this function's throwing wrapper.
[[nodiscard]] IngestResult ingest_corpus(const loggen::Corpus& corpus,
                                         const IngestOptions& options = {});

/// Lower-level entry: `header` carries the manifest fields (system,
/// topology, window); `sources` are parsed in the canonical source order
/// regardless of their order in the vector.
[[nodiscard]] IngestResult ingest_stream(const loggen::Corpus& header,
                                         const std::vector<SourceStream>& sources,
                                         const IngestOptions& options = {});

/// The stateless per-line parser the pipeline uses for `source`.
using LineParseFn = std::optional<logmodel::LogRecord> (*)(std::string_view,
                                                           const ParseContext&);
[[nodiscard]] LineParseFn line_parser_for(logmodel::LogSource source) noexcept;

}  // namespace hpcfail::parsers
