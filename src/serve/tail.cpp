#include "serve/tail.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace hpcfail::serve {

std::string TailError::to_string() const {
  return file + " at offset " + std::to_string(offset) + ": " + message;
}

TailReader::TailReader(std::string path, std::uint64_t offset)
    : path_(std::move(path)), offset_(offset) {}

TailReader::Poll TailReader::poll() {
  Poll out;
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec) || ec) {
    return out;  // writer has not created the file yet
  }

  // A file shorter than the offset was truncated under us (copytruncate
  // rotation): restart from its first byte, as `tail -F` does, instead of
  // seeking past EOF and later resuming mid-line.
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (!ec && size < offset_) {
    offset_ = 0;
    if (util::MetricsRegistry* reg = util::metrics()) {
      reg->counter("hpcfail.serve.tail_truncations").increment();
    }
  }

  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    out.error = TailError{path_, offset_, "cannot open tail file"};
    return out;
  }
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) {
    out.error = TailError{path_, offset_, "cannot seek to tail offset"};
    return out;
  }

  std::string chunk;
  char buf[std::size_t{64} * 1024];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    if (HPCFAIL_FAULT_SITE("serve.tail.read_io")) in.setstate(std::ios::badbit);
    if (in.bad()) {
      out.error = TailError{path_, offset_ + chunk.size(),
                            "I/O error while reading the tail"};
      if (util::MetricsRegistry* reg = util::metrics()) {
        reg->counter("hpcfail.serve.tail_errors").increment();
      }
      return out;  // offset_ unchanged; the next poll retries from it
    }
    chunk.append(buf, static_cast<std::size_t>(in.gcount()));
  }

  // Consume only up to the last newline; a trailing partial line stays in
  // the file (offset does not move past it) until its newline arrives.
  const std::size_t last_nl = chunk.rfind('\n');
  if (last_nl == std::string::npos) return out;
  std::size_t begin = 0;
  while (begin <= last_nl) {
    const std::size_t end = chunk.find('\n', begin);
    std::size_t len = end - begin;
    if (len > 0 && chunk[begin + len - 1] == '\r') --len;  // CRLF writers
    out.lines.emplace_back(chunk, begin, len);
    begin = end + 1;
  }
  offset_ += last_nl + 1;
  return out;
}

}  // namespace hpcfail::serve
