// Serve loops around Server::handle_line: a line-delimited stdio session
// (one JSON request per line in, one JSON response per line out), a local
// unix-socket listener for out-of-process clients, and the matching client
// that forwards its stdin — so a scripted CI session needs no tooling
// beyond `hpcfail serve` itself.
//
// Both transports answer serially on the reader thread, one request at a
// time: request n is the n-th line parsed and pins the epoch every earlier
// request's tail poll left, so a reply and a fault's n-th hit never depend
// on thread scheduling.  The socket listener takes one connection at a
// time.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace hpcfail::serve {

class Server;

struct SessionOptions {
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
/// shutdown.
bool run_socket_server(Server& server, const std::string& path,
                       const SessionOptions& options = {});

/// Connects to the unix-domain socket at `path`, forwards each line of
/// `in` as a request and prints each response line to `out`.  Returns
/// false if the connection fails or drops mid-session.
bool run_socket_client(const std::string& path, std::istream& in, std::ostream& out);

}  // namespace hpcfail::serve
