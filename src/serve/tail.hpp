// Incremental reader over a growing log file — the serve-layer face of
// "ingest a live tail".  A TailReader remembers a byte offset into one
// source file and, on every poll, consumes the complete lines appended
// since the last poll; a trailing partial line (a writer mid-append) is
// left in the file and picked up once its newline lands, so records are
// never built from torn lines.
//
// Error discipline matches the rest of the pipeline: an I/O failure while
// reading the tail (provoked deterministically through the
// serve.tail.read_io fault site) surfaces as a structured TailError on the
// poll result, the offset does not advance, and the next poll retries —
// the daemon never crashes or silently skips bytes.  A file that does not
// exist yet is an empty poll, not an error (the writer may not have
// created it).  A file found shorter than the offset was truncated in
// place (copytruncate rotation): the reader restarts at byte 0, as
// `tail -F` does, and counts hpcfail.serve.tail_truncations.  A truncated
// file that grows past the old offset again before the next poll cannot
// be told apart from an append.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hpcfail::serve {

/// Why a tail poll failed; `offset` is where the read stopped.
struct TailError {
  std::string file;
  std::uint64_t offset = 0;
  std::string message;

  /// "<file> at offset N: <message>" one-liner.
  [[nodiscard]] std::string to_string() const;
};

class TailReader {
 public:
  /// Follows `path` starting at `offset` — pass the size of the
  /// already-ingested prefix to skip it.
  explicit TailReader(std::string path, std::uint64_t offset = 0);

  struct Poll {
    std::vector<std::string> lines;  ///< complete new lines, file order
    std::optional<TailError> error;

    [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
  };

  /// Reads every complete line appended since the last successful poll
  /// (from byte 0 after a truncation).
  [[nodiscard]] Poll poll();

  /// Byte offset of the first unconsumed byte.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
};

}  // namespace hpcfail::serve
