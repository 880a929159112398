// Bounded-memory text chunking for the streaming ingestion pipeline.
//
// A ChunkedLineReader pulls fixed-size chunks out of an std::istream and
// extends each chunk to the next line boundary, so every chunk a consumer
// sees is a whole number of lines and a line is never split across two
// chunks.  Memory use is O(chunk_bytes + longest line), independent of the
// stream length — this is what lets parsers::ingest_files parse a corpus
// far larger than RAM.
//
// Boundary behaviour:
//   - a line longer than chunk_bytes is returned whole (the chunk grows);
//   - a final line without a trailing '\n' is returned as-is;
//   - CRLF line endings pass through untouched (scan::LineCursor strips
//     the '\r' when the chunk is walked line by line).
//
// Error behaviour: end-of-file is NOT the only way a stream stops.  A read
// that leaves the stream bad() — or fail() without eof() — is a stream I/O
// error, and next() throws IoError carrying the byte offset instead of
// quietly treating the error as EOF (which would silently truncate the
// corpus and mis-diagnose the analysis input).  The `ingest.read.*` fault
// sites (util/fault.hpp) let tests provoke each degraded ending on demand.
//
// In-memory text enters the same reader through MemoryStream, so text
// already in RAM and text on disk take one parse path.
#pragma once

#include <cstddef>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>

namespace hpcfail::util {

/// Read-only std::istream over bytes the caller owns.  The get area points
/// straight at `text`, so nothing is copied up front (std::istringstream
/// would duplicate the whole text).  `text` must outlive the stream, which
/// is pinned in place because the istream base points at the member buffer.
class MemoryStream : public std::istream {
 public:
  explicit MemoryStream(std::string_view text) : std::istream(nullptr), buffer_(text) {
    rdbuf(&buffer_);
  }
  MemoryStream(const MemoryStream&) = delete;
  MemoryStream& operator=(const MemoryStream&) = delete;

 private:
  class Buffer : public std::streambuf {
   public:
    explicit Buffer(std::string_view text) {
      // setg() wants char*, but nothing writes through it: there is no put
      // area, and the default pbackfail() refuses a mismatched putback.
      char* begin = const_cast<char*>(text.data());
      setg(begin, begin, begin + text.size());
    }
  };
  Buffer buffer_;
};

/// A stream I/O failure that is not end-of-file, thrown with the stream
/// offset (bytes consumed before the error) so the operator can locate the
/// corruption instead of guessing from a truncated analysis.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), byte_offset(offset) {}

  std::size_t byte_offset = 0;
};

class ChunkedLineReader {
 public:
  /// `chunk_bytes == 0` is clamped to 1.  The stream must outlive the reader.
  explicit ChunkedLineReader(std::istream& in, std::size_t chunk_bytes);

  /// Fills `chunk` with the next run of complete lines (~chunk_bytes of
  /// text, extended to the last '\n'; the final chunk may lack one).
  /// Returns false — with `chunk` empty — once the stream is exhausted.
  /// Throws IoError when the stream reports an error that is not EOF.
  [[nodiscard]] bool next(std::string& chunk);

 private:
  std::istream& in_;
  std::size_t chunk_bytes_;
  std::string carry_;  ///< partial trailing line from the previous read
  std::size_t bytes_read_ = 0;  ///< bytes handed out so far; IoError's offset
  bool eof_ = false;
};

}  // namespace hpcfail::util
