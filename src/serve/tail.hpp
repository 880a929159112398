// Incremental reader over a growing log file — the serve-layer face of
// "ingest a live tail".  A TailReader remembers a byte offset into one
// source file and, on every poll, consumes the complete lines appended
// since the last poll; a trailing partial line (a writer mid-append) is
// left in the file and picked up once its newline lands, so records are
// never built from torn lines.
//
// The file is held open between polls.  A poll is one stat() of the path
// — all an empty poll does — then, when the file grew, one pread() of the
// new bytes through the held descriptor; bytes before the offset are never
// touched again.
//
// Error discipline matches the rest of the pipeline: an I/O failure while
// reading the tail (provoked deterministically through the
// serve.tail.read_io fault site) surfaces as a structured TailError on the
// poll result, the offset does not advance, and the next poll retries —
// the daemon never crashes or silently skips bytes.  A file that does not
// exist yet is an empty poll, not an error (the writer may not have
// created it).  A file found shorter than the offset was truncated in
// place (copytruncate rotation): the reader restarts at byte 0, as
// `tail -F` does, and counts hpcfail.serve.tail_truncations.  A file
// truncated in place that grows past the old offset again before the next
// poll cannot be told apart from an append.  A different file at the path
// (rename rotation: `mv f f.1 && touch f`) is told apart by its inode: the
// reader first drains the complete lines appended to the old file, through
// the descriptor it still holds, then restarts at byte 0 of the new one,
// and counts hpcfail.serve.tail_rotations.
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
  /// already-ingested prefix to skip it.  The file is opened by the first
  /// poll that finds it.
  explicit TailReader(std::string path, std::uint64_t offset = 0);
  ~TailReader();
  TailReader(TailReader&& other) noexcept;
  TailReader& operator=(TailReader&& other) noexcept;
  TailReader(const TailReader&) = delete;
  TailReader& operator=(const TailReader&) = delete;

  struct Poll {
    /// Complete new lines, file order.  They are consumed even when
    /// `error` is set: a rotation drains the old file before the new one
    /// fails to open or read.
    std::vector<std::string> lines;
    std::optional<TailError> error;  ///< why reading stopped short, if it did

    [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
  };

  /// Reads every complete line appended since the last successful poll
  /// (from byte 0 after a truncation or a rotation).
  [[nodiscard]] Poll poll();

  /// Byte offset of the first unconsumed byte.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  /// Reads [offset_, size) of the held file and appends its complete lines
  /// to `out`.  On a read error sets out.error, leaves offset_ where it was
  /// and returns false.
  bool read_lines(std::uint64_t size, Poll& out);

  void close() noexcept;

  std::string path_;
  std::uint64_t offset_ = 0;
  int fd_ = -1;             ///< the followed file, held open; -1 until a poll opens it
  std::uint64_t device_ = 0;  ///< the held file's identity, to tell a rename rotation
  std::uint64_t inode_ = 0;
};

}  // namespace hpcfail::serve
