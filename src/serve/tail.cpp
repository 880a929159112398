#include "serve/tail.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace hpcfail::serve {

namespace {

void count(const char* name, std::uint64_t n = 1) {
  if (util::MetricsRegistry* reg = util::metrics()) reg->counter(name).add(n);
}

}  // namespace

std::string TailError::to_string() const {
  return file + " at offset " + std::to_string(offset) + ": " + message;
}

TailReader::TailReader(std::string path, std::uint64_t offset)
    : path_(std::move(path)), offset_(offset) {}

TailReader::~TailReader() { close(); }

TailReader::TailReader(TailReader&& other) noexcept
    : path_(std::move(other.path_)),
      offset_(other.offset_),
      fd_(std::exchange(other.fd_, -1)),
      device_(other.device_),
      inode_(other.inode_) {}

TailReader& TailReader::operator=(TailReader&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    offset_ = other.offset_;
    fd_ = std::exchange(other.fd_, -1);
    device_ = other.device_;
    inode_ = other.inode_;
  }
  return *this;
}

void TailReader::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

TailReader::Poll TailReader::poll() {
  Poll out;
  struct stat at_path {};
  if (::stat(path_.c_str(), &at_path) != 0) {
    return out;  // writer has not created the file (yet, or again)
  }

  if (fd_ >= 0 && (at_path.st_dev != device_ || at_path.st_ino != inode_)) {
    // Rename rotation: the path names a new file.  The old one may have
    // taken appends since the last poll; finish its complete lines through
    // the descriptor still held, then follow the new file from byte 0.
    struct stat held {};
    if (::fstat(fd_, &held) != 0) {
      out.error = TailError{path_, offset_, "cannot stat the rotated tail file"};
      return out;
    }
    if (static_cast<std::uint64_t>(held.st_size) > offset_ &&
        !read_lines(static_cast<std::uint64_t>(held.st_size), out)) {
      return out;  // the next poll retries the drain
    }
    close();
    offset_ = 0;
    count("hpcfail.serve.tail_rotations");
  }

  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
      if (errno != ENOENT) out.error = TailError{path_, offset_, "cannot open tail file"};
      return out;  // ENOENT: removed since the stat; an empty poll
    }
    // Size and identity of the file actually opened, not of whatever the
    // stat above found.
    if (::fstat(fd_, &at_path) != 0) {
      close();
      out.error = TailError{path_, offset_, "cannot stat tail file"};
      return out;
    }
    device_ = at_path.st_dev;
    inode_ = at_path.st_ino;
  }

  // A file shorter than the offset was truncated under us (copytruncate
  // rotation): restart from its first byte, as `tail -F` does, instead of
  // waiting past EOF and later resuming mid-line.
  const auto size = static_cast<std::uint64_t>(at_path.st_size);
  if (size < offset_) {
    offset_ = 0;
    count("hpcfail.serve.tail_truncations");
  }
  if (size > offset_) read_lines(size, out);
  return out;
}

bool TailReader::read_lines(std::uint64_t size, Poll& out) {
  std::string chunk(size - offset_, '\0');
  std::size_t got = 0;
  while (got < chunk.size()) {
    const ssize_t n = ::pread(fd_, chunk.data() + got, chunk.size() - got,
                              static_cast<off_t>(offset_ + got));
    if (n == 0) break;  // shrank since the stat; the next poll sees it
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 || HPCFAIL_FAULT_SITE("serve.tail.read_io")) {
      out.error = TailError{path_, offset_ + got, "I/O error while reading the tail"};
      count("hpcfail.serve.tail_errors");
      return false;  // offset_ unchanged; the next poll retries from it
    }
    got += static_cast<std::size_t>(n);
  }
  chunk.resize(got);
  count("hpcfail.serve.tail_bytes", got);

  // Consume only up to the last newline; a trailing partial line stays in
  // the file (offset does not move past it) until its newline arrives.
  const std::size_t last_nl = chunk.rfind('\n');
  if (last_nl == std::string::npos) return true;
  std::size_t begin = 0;
  while (begin <= last_nl) {
    const std::size_t end = chunk.find('\n', begin);
    std::size_t len = end - begin;
    if (len > 0 && chunk[begin + len - 1] == '\r') --len;  // CRLF writers
    out.lines.emplace_back(chunk, begin, len);
    begin = end + 1;
  }
  offset_ += last_nl + 1;
  return true;
}

}  // namespace hpcfail::serve
