#include "obs/http_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/render.h"

namespace auric::obs {

namespace {

using Clock = std::chrono::steady_clock;

// Writes `head` then `body` with one sendmsg per attempt, so a response
// normally leaves in a single call; a short write resumes where the kernel
// stopped (possibly mid-head), and EINTR retries. MSG_NOSIGNAL keeps a dead
// peer from raising SIGPIPE at the process.
void send_response(int fd, std::string_view head, std::string_view body) {
  iovec parts[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(body.data()), body.size()}};
  iovec* next = parts;
  std::size_t left = 2;
  while (left > 0) {
    if (next->iov_len == 0) {
      ++next;
      --left;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = left;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // peer went away; nothing useful to do
    }
    auto sent = static_cast<std::size_t>(n);
    while (left > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A Content-Length value: ASCII digits only, so a sign, inner whitespace,
/// an embedded NUL or an out-of-range number is rejected (nullopt).
std::optional<std::size_t> parse_content_length(std::string_view value) {
  std::size_t length = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, length);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return length;
}

/// Parses "METHOD SP TARGET SP HTTP/x.y" from the first line of `raw`.
/// Returns false when the line is complete but malformed.
bool parse_request_line(std::string_view line, HttpRequest* out) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).substr(0, 5) != "HTTP/") {
    return false;
  }
  out->method = std::string(line.substr(0, sp1));
  out->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  return true;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) {
      return value;
    }
  }
  return {};
}

std::string_view HttpRequest::path() const {
  const std::string_view t(target);
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpRequest::query() const {
  const std::string_view t(target);
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? std::string_view{} : t.substr(q + 1);
}

const char* HttpListener::status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Error";
  }
}

HttpListener::HttpListener(Handler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

HttpListener::~HttpListener() { stop(); }

void HttpListener::start() {
  if (running_.load()) {
    return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(options_.name + ": socket(): " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error(options_.name + ": bad bind address: " + options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error(options_.name + ": bind(" + options_.bind_address + ":" +
                             std::to_string(options_.port) + "): " + std::strerror(err));
  }
  if (::listen(fd, options_.backlog) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error(options_.name + ": listen(): " + std::strerror(err));
  }
  // Recover the kernel's pick when an ephemeral port was requested.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error(options_.name + ": getsockname(): " + std::strerror(err));
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  stop_requested_.store(false);
  running_.store(true);
  const int workers = std::max(1, options_.threads);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void HttpListener::stop() {
  stop_requested_.store(true);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
}

void HttpListener::accept_loop() {
  while (!stop_requested_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      continue;  // timeout (re-check stop flag) or EINTR
    }
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      continue;  // EINTR / transient accept failure
    }
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() >= options_.pending_connections) {
        shed = true;
      } else {
        pending_.push_back(client);
      }
    }
    if (shed) {
      // Don't read the request: the point of shedding is to spend nothing on
      // work we cannot do. The canned response fits in the socket buffer.
      sheds_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse busy{503, "text/plain; charset=utf-8", "listener overloaded\n", {{"Retry-After", "1"}}};
      write_response(client, busy);
      ::close(client);
    } else {
      cv_.notify_one();
    }
  }
}

void HttpListener::worker_loop() {
  for (;;) {
    int client = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_requested_.load() || !pending_.empty(); });
      if (pending_.empty()) {
        // stop requested and the accept thread has joined: queue is final.
        return;
      }
      client = pending_.front();
      pending_.pop_front();
    }
    handle_connection(client);
    ::close(client);
  }
}

void HttpListener::handle_connection(int client_fd) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.read_deadline_ms);

  std::string raw;
  HttpRequest request;
  std::size_t headers_end = std::string::npos;  // offset just past the blank line
  std::size_t body_needed = 0;
  bool peer_closed = false;
  int error_status = 0;
  const char* error_body = nullptr;

  char buf[2048];
  for (;;) {
    // Completeness checks on what we have so far.
    if (raw.size() > options_.max_request_bytes) {
      error_status = 413;
      error_body = "request too large\n";
      break;
    }
    if (headers_end == std::string::npos) {
      std::size_t end = raw.find("\r\n\r\n");
      std::size_t skip = 4;
      if (end == std::string::npos) {
        end = raw.find("\n\n");
        skip = 2;
      }
      if (end != std::string::npos) {
        headers_end = end + skip;
        // Parse request line + headers.
        std::string_view head(raw.data(), end);
        const std::size_t eol = head.find('\n');
        std::string_view first =
            eol == std::string_view::npos ? head : head.substr(0, eol);
        if (!parse_request_line(first, &request)) {
          error_status = 400;
          error_body = "malformed request line\n";
          break;
        }
        std::string_view rest =
            eol == std::string_view::npos ? std::string_view{} : head.substr(eol + 1);
        while (!rest.empty()) {
          const std::size_t line_end = rest.find('\n');
          std::string_view line =
              line_end == std::string_view::npos ? rest : rest.substr(0, line_end);
          rest = line_end == std::string_view::npos ? std::string_view{}
                                                    : rest.substr(line_end + 1);
          const std::size_t colon = line.find(':');
          if (colon == std::string_view::npos) {
            continue;
          }
          request.headers.emplace_back(lower(trim(line.substr(0, colon))),
                                       std::string(trim(line.substr(colon + 1))));
        }
        // Every Content-Length must parse, and repeats must agree: taking
        // one of two differing lengths would frame the body differently
        // from a peer that took the other (RFC 9112 §6.3).
        std::optional<std::size_t> length;
        for (const auto& [name, value] : request.headers) {
          if (name != "content-length" || value.empty()) continue;
          const std::optional<std::size_t> parsed = parse_content_length(value);
          if (!parsed.has_value()) {
            error_status = 400;
            error_body = "bad content-length\n";
            break;
          }
          if (length.has_value() && *length != *parsed) {
            error_status = 400;
            error_body = "conflicting content-length\n";
            break;
          }
          length = parsed;
        }
        if (error_status != 0) break;
        if (length.has_value()) {
          body_needed = *length;
          // headers_end <= raw.size() <= max_request_bytes here, so the
          // subtraction cannot wrap (an addition could, for huge lengths).
          if (body_needed > options_.max_request_bytes - headers_end) {
            error_status = 413;
            error_body = "request too large\n";
            break;
          }
        }
      } else if (raw.find('\n') != std::string::npos) {
        // A complete first line with no header terminator yet: bail out early
        // when it is already malformed, instead of making a garbage-spewing
        // client wait out the deadline.
        HttpRequest probe;
        std::string_view first(raw.data(), raw.find('\n'));
        if (!parse_request_line(first, &probe)) {
          error_status = 400;
          error_body = "malformed request line\n";
          break;
        }
      }
    }
    if (headers_end != std::string::npos) {
      if (raw.size() >= headers_end + body_needed) {
        request.body = raw.substr(headers_end, body_needed);
        break;  // complete
      }
    }
    if (peer_closed) {
      error_status = 400;
      error_body = "malformed request\n";
      break;
    }

    // Wait for more bytes, bounded by the absolute deadline.
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) {
      error_status = 408;
      error_body = "read deadline exceeded\n";
      break;
    }
    pollfd pfd{client_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_status = 400;
      error_body = "read error\n";
      break;
    }
    if (ready == 0) {
      error_status = 408;
      error_body = "read deadline exceeded\n";
      break;
    }
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      error_status = 400;
      error_body = "read error\n";
      break;
    }
    if (n == 0) {
      peer_closed = true;  // let the completeness check above decide
      continue;
    }
    raw.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  if (error_status != 0) {
    response = {error_status, "text/plain; charset=utf-8", error_body, {}};
  } else {
    response = dispatch(request);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  write_response(client_fd, response);
}

HttpResponse HttpListener::dispatch(const HttpRequest& request) {
  TraceRecorder& recorder = TraceRecorder::global();
  if (!recorder.enabled()) {
    return handler_(request);
  }
  const std::optional<Traceparent> remote = parse_traceparent(request.header("traceparent"));
  // A valid traceparent is adopted: the root span (and everything the
  // handler opens under it) joins the caller's trace, parented under the
  // caller's span id. Otherwise the scope installs a clean context and the
  // root span starts a fresh trace. Either way the server is the trace's
  // edge, so its root span decides keep/drop when it closes.
  TraceContextScope adopt(remote.has_value()
                              ? TraceContext{remote->trace_id, 0, remote->parent_span}
                              : TraceContext{});
  ScopedSpan span(recorder.intern("http.", request.path()), recorder, ScopedSpan::kTraceRoot);
  HttpResponse response = handler_(request);
  if (response.status >= 500) {
    recorder.mark_trace_error();
  }
  if (span.trace().valid()) {
    response.extra_headers.emplace_back("Traceparent", format_traceparent(span.trace(), span.id()));
  }
  return response;
}

void HttpListener::write_response(int client_fd, const HttpResponse& response) {
  std::string head;
  head.reserve(128 + response.content_type.size());
  head += "HTTP/1.1 ";
  util::append_int(head, response.status);
  head += ' ';
  head += status_text(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nContent-Length: ";
  util::append_int(head, response.body.size());
  for (const auto& [key, value] : response.extra_headers) {
    head += "\r\n";
    head += key;
    head += ": ";
    head += value;
  }
  head += "\r\nConnection: close\r\n\r\n";
  send_response(client_fd, head, response.body);
}

}  // namespace auric::obs
