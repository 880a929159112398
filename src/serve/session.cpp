#include "serve/session.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string_view>

#include "serve/server.hpp"

namespace hpcfail::serve {

namespace {

/// Writes the whole buffer to `fd`, riding out short writes and EINTR.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Pops complete lines off the front of `buffer`, invoking `fn` on each
/// (without the newline; CR stripped).  Returns false when `fn` does.
template <typename Fn>
bool drain_lines(std::string& buffer, Fn&& fn) {
  std::size_t begin = 0;
  for (;;) {
    const std::size_t nl = buffer.find('\n', begin);
    if (nl == std::string::npos) break;
    std::size_t len = nl - begin;
    if (len > 0 && buffer[begin + len - 1] == '\r') --len;
    const bool keep_going = fn(std::string_view(buffer).substr(begin, len));
    begin = nl + 1;
    if (!keep_going) {
      buffer.erase(0, begin);
      return false;
    }
  }
  buffer.erase(0, begin);
  return true;
}

/// RAII close for a raw socket fd.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  [[nodiscard]] bool ok() const noexcept { return fd >= 0; }
};

/// Fills `addr` for the unix socket at `path`; false if the path is too
/// long for sockaddr_un.
bool unix_address(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

std::size_t run_session(Server& server, std::istream& in, std::ostream& out,
                        const SessionOptions& options) {
  std::size_t answered = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (options.poll_tail_each_request) (void)server.poll_tail();
    out << server.handle_line(line) << '\n';
    out.flush();
    ++answered;
    if (server.shutdown_requested()) break;
  }
  return answered;
}

bool run_socket_server(Server& server, const std::string& path,
                       const SessionOptions& options) {
  sockaddr_un addr{};
  if (!unix_address(path, addr)) {
    std::cerr << "hpcfail serve: socket path too long: " << path << "\n";
    return false;
  }
  ::unlink(path.c_str());

  const Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!listener.ok() ||
      ::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener.fd, 4) != 0) {
    std::cerr << "hpcfail serve: cannot listen on " << path << ": "
              << std::strerror(errno) << "\n";
    return false;
  }

  while (!server.shutdown_requested()) {
    const Fd conn(::accept(listener.fd, nullptr, nullptr));
    if (!conn.ok()) {
      if (errno == EINTR) continue;
      std::cerr << "hpcfail serve: accept failed on " << path << ": "
                << std::strerror(errno) << "\n";
      ::unlink(path.c_str());
      return false;
    }

    std::string buffer;
    char chunk[4096];
    bool peer_open = true;
    while (peer_open) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // peer closed (or errored): back to accept
      buffer.append(chunk, static_cast<std::size_t>(n));
      const bool keep_going = drain_lines(buffer, [&](std::string_view request) {
        if (options.poll_tail_each_request) (void)server.poll_tail();
        std::string response = server.handle_line(request);
        response += '\n';
        if (!write_all(conn.fd, response)) {
          peer_open = false;
          return false;
        }
        return !server.shutdown_requested();
      });
      if (!keep_going) break;
    }
  }
  ::unlink(path.c_str());
  return true;
}

bool run_socket_client(const std::string& path, std::istream& in, std::ostream& out) {
  sockaddr_un addr{};
  if (!unix_address(path, addr)) {
    std::cerr << "hpcfail serve: socket path too long: " << path << "\n";
    return false;
  }
  const Fd conn(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!conn.ok() ||
      ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "hpcfail serve: cannot connect to " << path << ": "
              << std::strerror(errno) << "\n";
    return false;
  }

  std::string buffer;
  char chunk[4096];
  std::string line;
  while (std::getline(in, line)) {
    line += '\n';
    if (!write_all(conn.fd, line)) {
      std::cerr << "hpcfail serve: connection dropped mid-request\n";
      return false;
    }
    // One response line per request, in order.
    bool got_response = false;
    while (!got_response) {
      drain_lines(buffer, [&](std::string_view response) {
        out << response << '\n';
        got_response = true;
        return false;  // stop after one line; keep the rest buffered
      });
      if (got_response) break;
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::cerr << "hpcfail serve: connection dropped mid-response\n";
        return false;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    out.flush();
  }
  return true;
}

}  // namespace hpcfail::serve
