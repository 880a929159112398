// Serve loops around Server::handle_line: a line-delimited stdio session
// (one JSON request per line in, one JSON response per line out), a local
// unix-socket listener for out-of-process clients, and the matching client
// that forwards its stdin — so a scripted CI session needs no tooling
// beyond `hpcfail serve` itself.
//
// The stdio session optionally fans requests out over a ThreadPool while
// keeping responses in request order (futures retire FIFO); the socket
// listener stays serial — it is a local debugging/scripting surface, and
// one connection at a time keeps it honest about ordering.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "util/thread_pool.hpp"

namespace hpcfail::serve {

class Server;

struct SessionOptions {
  /// When set, request handling is submitted to the pool; responses still
  /// come back in request order.  Null handles requests inline.
  util::ThreadPool* pool = nullptr;
  /// Max requests in flight before the reader blocks on the oldest.
  std::size_t max_inflight = 64;
  /// Poll the server's attached tails before each request is dispatched —
  /// the daemon's deterministic, timer-free way of following a live log:
  /// a query always sees every line that landed before it was asked.
  bool poll_tail_each_request = false;
};

/// Reads request lines from `in` until EOF or a shutdown request was
/// answered; writes exactly one response line per request to `out`, in
/// request order.  Returns the number of requests answered.
std::size_t run_session(Server& server, std::istream& in, std::ostream& out,
                        const SessionOptions& options = {});

/// Binds a unix-domain socket at `path` (replacing a stale one), then
/// accepts one connection at a time and answers its request lines until
/// the peer disconnects; returns once a shutdown request was answered (or
/// on listener error, with a message on stderr).  Returns true on clean
/// shutdown.  Only `poll_tail_each_request` is honored from the options —
/// socket handling is serial by design.
bool run_socket_server(Server& server, const std::string& path,
                       const SessionOptions& options = {});

/// Connects to the unix-domain socket at `path`, forwards each line of
/// `in` as a request and prints each response line to `out`.  Returns
/// false if the connection fails or drops mid-session.
bool run_socket_client(const std::string& path, std::istream& in, std::ostream& out);

}  // namespace hpcfail::serve
