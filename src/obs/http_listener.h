// Reusable loopback HTTP/1.1 listener: the socket machinery behind both HTTP
// planes, the live plane (util::LivePlane) and the serve daemon.
//
// One accept thread polls the listening socket with a short timeout and a
// stop flag (prompt shutdown without pthread_cancel games) and pushes
// accepted fds onto a bounded queue; `threads` connection workers pop fds,
// read the request under a per-connection deadline, and run the handler.
// When the queue is full the accept thread writes a canned 503 and closes —
// a stalled or bursty client population can delay service but never wedge
// the accept loop or grow memory without bound.
//
// Socket-path hardening lives here once, shared by every consumer:
//   - EINTR retried on poll/recv/send
//   - partial writes looped to completion
//   - SIGPIPE suppressed via MSG_NOSIGNAL (no process-global sigaction)
//   - per-connection absolute read deadline (408 on expiry)
//   - request size bound (413 past Options::max_request_bytes)
//
// Port 0 requests an ephemeral port; port() reports the kernel's pick so
// tests and parallel CI jobs never collide.
//
// Trace propagation: every handled request runs under a root span
// ("http.<path>"). A valid W3C `traceparent` request header is adopted —
// the handler's spans join the caller's trace — and every response carries
// a `Traceparent` header naming the trace, so clients (loadgen) can link a
// slow response to its recorded trace.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace auric::obs {

/// One parsed request. Header names are lower-cased at parse time so
/// lookups are case-insensitive, as HTTP requires.
struct HttpRequest {
  std::string method;
  std::string target;  // as sent, query string included
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of `name` (must be given lower-case); empty when absent.
  std::string_view header(std::string_view name) const;
  /// Target up to the first '?'.
  std::string_view path() const;
  /// Target past the first '?'; empty when there is none.
  std::string_view query() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers (e.g. Retry-After), emitted verbatim.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

struct HttpListenerOptions {
  /// Loopback only by default; this is an operator/service peephole, not an
  /// internet-facing tier.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Requests larger than this are answered 413 and dropped.
  std::size_t max_request_bytes = 8192;
  /// A connection that has not delivered a complete request within this
  /// budget is answered 408 and closed; a stalled client cannot wedge a
  /// worker forever.
  int read_deadline_ms = 2000;
  /// Connection-handling worker threads.
  int threads = 1;
  /// Accepted-fd queue bound; past it the accept thread sheds with a canned
  /// 503 instead of queueing.
  std::size_t pending_connections = 64;
  /// listen(2) backlog.
  int backlog = 16;
  /// Prefix for error messages, so throws identify their owner.
  std::string name = "http listener";
};

class HttpListener {
 public:
  using Options = HttpListenerOptions;
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpListener(Handler handler, Options options);
  ~HttpListener();
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Binds, listens and launches the accept + worker threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();
  /// Stops accepting, drains already-accepted connections through the
  /// handler, joins all threads and closes the socket; idempotent.
  void stop();
  bool running() const { return running_.load(); }

  /// The bound port (the kernel's pick when Options::port was 0); 0 before
  /// start().
  std::uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

  /// Responses written, including 4xx/5xx synthesized by the read path.
  std::uint64_t requests_served() const { return requests_.load(); }
  /// Connections shed with a canned 503 because the fd queue was full.
  std::uint64_t connections_shed() const { return sheds_.load(); }

  static const char* status_text(int status);

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int client_fd);
  /// Runs the handler under a root span, adopting the request's W3C
  /// `traceparent` header when present (the response carries one back).
  HttpResponse dispatch(const HttpRequest& request);
  void write_response(int client_fd, const HttpResponse& response);

  Handler handler_;
  Options options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> sheds_{0};
};

}  // namespace auric::obs
