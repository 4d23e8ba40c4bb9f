#include "util/obs_flags.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/debug_endpoint.h"
#include "obs/http_listener.h"
#include "obs/log_buffer.h"
#include "obs/profiler.h"
#include "obs/rules.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace auric::obs {
namespace {

// Minimal HTTP client: one raw request, read to connection close. With
// `half_close` the client shuts down its write side after sending, so an
// incomplete request meets EOF instead of the read deadline. Send errors
// end the send: the server may answer and close before reading everything.
std::string http_request(std::uint16_t port, const std::string& raw, bool half_close = false) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("client socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("client connect() failed");
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  if (half_close) {
    ::shutdown(fd, SHUT_WR);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return http_request(port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

// Writes `text` to a fresh file under the temp directory; returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

std::string first_line(const std::string& path) {
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  return line;
}

// A plane whose sampler ticks only by hand and whose listener stays down.
util::LivePlaneOptions manual_options() {
  util::LivePlaneOptions options;
  options.sample_interval_ms = 0.0;
  return options;
}

util::LivePlaneOptions listening_options(std::uint16_t port = 0) {
  util::LivePlaneOptions options = manual_options();
  options.serve = true;
  options.port = port;
  return options;
}

TEST(LivePlane, HandleRoutesEveryEndpoint) {
  MetricsRegistry reg;
  reg.counter("req_total", "requests").inc(7);
  util::LivePlane plane({}, reg);

  HttpResponse metrics = plane.handle("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("req_total 7"), std::string::npos);

  HttpResponse varz = plane.handle("GET", "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.content_type, "application/json");
  EXPECT_EQ(varz.body.front(), '[');
  EXPECT_NE(varz.body.find("\"name\":\"req_total\""), std::string::npos);

  // Query strings are stripped; endpoints take no parameters.
  EXPECT_EQ(plane.handle("GET", "/metrics?format=json").status, 200);
  // The index lists the endpoints; unknown paths are 404, non-GET is 405.
  EXPECT_NE(plane.handle("GET", "/").body.find("/healthz"), std::string::npos);
  EXPECT_EQ(plane.handle("GET", "/nope").status, 404);
  EXPECT_EQ(plane.handle("POST", "/metrics").status, 405);
  EXPECT_EQ(plane.handle("HEAD", "/metrics").status, 405);
}

TEST(LivePlane, OptionalSourcesGateTheirEndpoints) {
  MetricsRegistry reg;
  util::LivePlane plane({}, reg);
  // No rules loaded: healthz degrades to "alive == healthy".
  HttpResponse healthz = plane.handle("GET", "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos);
  // /healthz belongs to the plane's own router, not the shared debug one.
  EXPECT_FALSE(debug_endpoint("/healthz", "", reg).has_value());

  // /tracez and /logz serve the process-wide span ring and log buffer.
  TraceRecorder& traces = TraceRecorder::global();
  traces.clear();
  { ScopedSpan span("test.span", traces); }
  LogBuffer& logs = LogBuffer::global();
  logs.clear();
  logs.append("hello from the ring");
  HttpResponse tracez = plane.handle("GET", "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_EQ(tracez.content_type, "application/x-ndjson");
  EXPECT_NE(tracez.body.find("\"name\":\"test.span\""), std::string::npos);
  HttpResponse logz = plane.handle("GET", "/logz");
  EXPECT_EQ(logz.status, 200);
  EXPECT_EQ(logz.body, "hello from the ring\n");
  traces.clear();
  logs.clear();
}

TEST(LivePlane, ModelzServesTheRegisteredSourceUntilUnregistered) {
  MetricsRegistry reg;
  util::LivePlane plane({}, reg);
  EXPECT_EQ(plane.handle("GET", "/modelz").status, 404);
  EXPECT_EQ(plane.handle("GET", "/").body.find("/modelz"), std::string::npos);
  plane.set_modelz([] { return std::string("{\"psi\":0}"); });
  HttpResponse modelz = plane.handle("GET", "/modelz");
  EXPECT_EQ(modelz.status, 200);
  EXPECT_EQ(modelz.content_type, "application/json");
  EXPECT_EQ(modelz.body, "{\"psi\":0}");
  EXPECT_NE(plane.handle("GET", "/").body.find("/modelz"), std::string::npos);
  plane.set_modelz(nullptr);
  EXPECT_EQ(plane.handle("GET", "/modelz").status, 404);
}

TEST(LivePlane, HealthzFollowsTheRuleEngineVerdict) {
  MetricsRegistry reg;
  util::LivePlaneOptions options = manual_options();
  options.rules_file = write_temp("auric_plane_must_fire.rules",
                                  "must_fire,absence,no_such_metric,>,0\n");
  util::LivePlane plane(options, reg);
  ASSERT_NE(plane.rules(), nullptr);

  EXPECT_EQ(plane.handle("GET", "/healthz").status, 200);  // not yet evaluated
  plane.sampler()->tick(1.0);  // the plane evaluates its rules on every tick
  HttpResponse firing = plane.handle("GET", "/healthz");
  EXPECT_EQ(firing.status, 503);
  EXPECT_NE(firing.body.find("\"status\":\"alerting\""), std::string::npos);
  EXPECT_NE(firing.body.find("must_fire"), std::string::npos);
}

TEST(LivePlane, AlertTransitionsAreWarnLogLines) {
  // A rule that fires under the plane logs through util::log: its line is
  // counted as a warning, carries the level, and keeps the "ALERT firing"
  // text that CI greps for.
  MetricsRegistry reg;
  util::LivePlaneOptions options = manual_options();
  options.rules_file = write_temp("auric_plane_alert_log.rules",
                                  "alert_log,absence,no_such_metric,>,0\n");
  util::LivePlane plane(options, reg);
  Counter& warnings = MetricsRegistry::global().counter(
      "auric_log_messages_total", "log calls by level", {{"level", "warn"}});
  const std::uint64_t before = warnings.value();
  plane.sampler()->tick(1.0);
  EXPECT_EQ(warnings.value(), before + 1);
  const std::vector<std::string> tail = LogBuffer::global().tail();
  ASSERT_FALSE(tail.empty());
  EXPECT_NE(tail.back().find("WARN  ALERT firing: alert_log"), std::string::npos) << tail.back();
}

TEST(LivePlane, ServesOverAnEphemeralPort) {
  MetricsRegistry reg;
  reg.counter("live_total", "liveness probe").inc(3);
  util::LivePlane plane(listening_options(), reg);
  EXPECT_EQ(plane.port(), 0);
  plane.start();
  EXPECT_TRUE(plane.listening());
  const std::uint16_t port = plane.port();
  EXPECT_NE(port, 0);

  const std::string response = http_get(port, "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("live_total 3"), std::string::npos);

  EXPECT_NE(http_get(port, "/nope").rfind("HTTP/1.1 404", 0), std::string::npos);
  EXPECT_GE(plane.requests_served(), 2u);
  plane.stop();
  EXPECT_FALSE(plane.listening());
  plane.stop();  // idempotent
  EXPECT_THROW(http_get(port, "/metrics"), std::runtime_error);
}

TEST(LivePlane, RejectsMalformedAndOversizedRequests) {
  MetricsRegistry reg;
  util::LivePlane plane(listening_options(), reg);
  plane.start();

  EXPECT_EQ(http_request(plane.port(), "GARBAGE\r\n\r\n").rfind("HTTP/1.1 400", 0), 0u);
  EXPECT_EQ(http_request(plane.port(), "GET /metrics\r\n\r\n").rfind("HTTP/1.1 400", 0), 0u);
  EXPECT_EQ(http_request(plane.port(), "POST /metrics HTTP/1.1\r\n\r\n").rfind("HTTP/1.1 405", 0),
            0u);
  // Past the listener's 8 KiB request bound.
  const std::string oversized =
      "GET /metrics HTTP/1.1\r\nX-Padding: " + std::string(9000, 'x') + "\r\n\r\n";
  EXPECT_EQ(http_request(plane.port(), oversized).rfind("HTTP/1.1 413", 0), 0u);
  plane.stop();
}

TEST(LivePlane, ConcurrentScrapesAllSucceed) {
  MetricsRegistry reg;
  reg.counter("scrape_total").inc(1);
  util::LivePlane plane(listening_options(), reg);
  plane.start();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::vector<int> ok(kClients, 0);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string response = http_get(plane.port(), "/metrics");
        if (response.rfind("HTTP/1.1 200", 0) == 0 &&
            response.find("scrape_total 1") != std::string::npos) {
          ++ok[c];
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  int total = 0;
  for (int n : ok) {
    total += n;
  }
  EXPECT_EQ(total, kClients * kRequestsEach);
  EXPECT_GE(plane.requests_served(), static_cast<std::uint64_t>(kClients * kRequestsEach));
  plane.stop();
}

TEST(LivePlane, RebindingAFixedPortAfterStopWorks) {
  MetricsRegistry reg;
  util::LivePlane first(listening_options(), reg);
  first.start();
  const std::uint16_t port = first.port();
  first.stop();

  // Freed by stop(); SO_REUSEADDR covers TIME_WAIT.
  util::LivePlane second(listening_options(port), reg);
  second.start();
  EXPECT_EQ(second.port(), port);
  EXPECT_EQ(http_get(port, "/healthz").rfind("HTTP/1.1 200", 0), 0u);
  second.stop();
}

TEST(LivePlane, BadBindAddressThrows) {
  MetricsRegistry reg;
  util::LivePlane plane({}, reg);
  HttpListenerOptions options;
  options.bind_address = "not-an-address";
  HttpListener listener(
      [&plane](const HttpRequest& request) { return plane.handle(request.method, request.target); },
      options);
  EXPECT_THROW(listener.start(), std::runtime_error);
  EXPECT_FALSE(listener.running());

  // The plane itself binds loopback only; a port already in use fails start().
  util::LivePlane holder(listening_options(), reg);
  holder.start();
  util::LivePlane clash(listening_options(holder.port()), reg);
  EXPECT_THROW(clash.start(), std::runtime_error);
  EXPECT_FALSE(clash.listening());
}

TEST(LivePlane, RulesWithoutServeMetricsLoadAndEvaluate) {
  MetricsRegistry reg;
  reg.gauge("some_gauge").set(10.0);
  util::LivePlaneOptions options;
  options.sample_interval_ms = 5.0;
  options.rules_file = write_temp("auric_plane_depth.rules", "depth,threshold,some_gauge,>,5\n");
  util::LivePlane plane(options, reg);
  ASSERT_NE(plane.rules(), nullptr);
  EXPECT_EQ(plane.rules()->size(), 1u);
  plane.start();
  EXPECT_FALSE(plane.listening());
  EXPECT_EQ(plane.port(), 0);
  for (int i = 0; i < 2000 && plane.rules()->evaluations() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(plane.rules()->evaluations(), 0u);
  EXPECT_EQ(plane.handle("GET", "/healthz").status, 503);
  plane.stop();
}

TEST(LivePlane, SeriesOutAloneWritesTheCsvAtStop) {
  MetricsRegistry reg;
  reg.counter("series_total").inc(4);
  util::LivePlaneOptions options = manual_options();
  options.series_out =
      (std::filesystem::temp_directory_path() / "auric_plane_series.csv").string();
  std::filesystem::remove(options.series_out);
  util::LivePlane plane(options, reg);
  ASSERT_NE(plane.sampler(), nullptr);
  plane.start();
  EXPECT_FALSE(plane.listening());
  EXPECT_FALSE(std::filesystem::exists(options.series_out));
  plane.stop();  // one final tick, then the dump
  const std::string header = first_line(options.series_out);
  EXPECT_EQ(header.rfind("t_s,", 0), 0u) << header;
  EXPECT_NE(header.find("series_total"), std::string::npos) << header;
}

TEST(LivePlane, MalformedRulesFileThrowsWithFileAndLine) {
  const std::string path =
      write_temp("auric_plane_bad.rules", "# a comment\nr,threshold,m,~,1\n");
  util::LivePlaneOptions options = manual_options();
  options.rules_file = path;
  MetricsRegistry reg;
  try {
    util::LivePlane plane(options, reg);
    FAIL() << "expected the malformed rules file to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos) << e.what();
  }
  options.rules_file = path + ".missing";
  try {
    util::LivePlane plane(options, reg);
    FAIL() << "expected the missing rules file to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(options.rules_file), std::string::npos) << e.what();
  }
}

TEST(LivePlane, TraceRingDropGaugeIsInEverySnapshot) {
  MetricsRegistry reg;
  util::LivePlaneOptions options = manual_options();
  options.rules_file = write_temp("auric_plane_drops.rules",
                                  "trace_ring_drops,threshold,obs_trace_ring_dropped,>,1e12\n");
  util::LivePlane plane(options, reg);
  plane.sampler()->tick(1.0);
  plane.sampler()->tick(2.0);
  const std::vector<SamplePoint> points = plane.sampler()->points();
  ASSERT_EQ(points.size(), 2u);
  for (const SamplePoint& point : points) {
    EXPECT_TRUE(std::any_of(point.samples.begin(), point.samples.end(),
                            [](const MetricSample& s) { return s.name == "obs_trace_ring_dropped"; }));
  }
  // The rule reads the gauge, so it has a value rather than "absent".
  const std::vector<RuleState> states = plane.rules()->states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].last_value.has_value());
}

// --- shared HttpListener hardening (the machinery under the live plane and
// --- the serve daemon) ---

int connect_to(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("client socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("client connect() failed");
  }
  return fd;
}

std::string read_all(int fd) {
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

TEST(HttpListener, SlowClientGets408AndDoesNotWedgeTheWorker) {
  HttpListenerOptions options;
  options.read_deadline_ms = 200;
  options.threads = 1;  // the single worker must not be wedged by the staller
  HttpListener listener([](const HttpRequest&) { return HttpResponse{200, "text/plain", "ok\n", {}}; },
                        options);
  listener.start();

  // The slow client sends half a request and stalls.
  int slow_fd = connect_to(listener.port());
  const std::string half = "GET /slow HTTP/1.1\r\nHost: local";
  ASSERT_EQ(::send(slow_fd, half.data(), half.size(), 0),
            static_cast<ssize_t>(half.size()));

  // A well-behaved client arriving behind it is served once the read
  // deadline reaps the staller — bounded delay, not a wedge.
  const auto t0 = std::chrono::steady_clock::now();
  int good_fd = connect_to(listener.port());
  const std::string full = "GET /good HTTP/1.1\r\nHost: local\r\n\r\n";
  ASSERT_EQ(::send(good_fd, full.data(), full.size(), 0), static_cast<ssize_t>(full.size()));
  const std::string good_response = read_all(good_fd);
  ::close(good_fd);
  const auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(good_response.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_LT(waited.count(), 2000);  // reaped at ~200ms, not the 2s default

  // The staller itself got a terminal 408 before its connection closed.
  const std::string slow_response = read_all(slow_fd);
  ::close(slow_fd);
  EXPECT_EQ(slow_response.rfind("HTTP/1.1 408", 0), 0u);
  listener.stop();
}

/// `response` without its Traceparent header line (its ids vary per trace).
std::string without_traceparent(std::string response) {
  const std::size_t at = response.find("\r\nTraceparent: ");
  if (at != std::string::npos) response.erase(at, response.find("\r\n", at + 2) - at);
  return response;
}

TEST(HttpListener, ResponsesArriveWholeForEmptySmallAndMultiMegabyteBodies) {
  // Head and body leave in one sendmsg; a body far larger than the socket
  // buffers takes the partial-write path, resuming inside the iovecs.
  std::string big(8 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>('a' + i % 23);
  HttpListenerOptions options;
  options.threads = 1;
  HttpListener listener(
      [&big](const HttpRequest& request) {
        if (request.path() == "/big") {
          return HttpResponse{200, "application/octet-stream", big, {{"X-Part", "big"}}};
        }
        if (request.path() == "/empty") return HttpResponse{404, "text/plain", "", {}};
        return HttpResponse{200, "text/plain", "ok\n", {{"Retry-After", "1"}, {"X-A", "b"}}};
      },
      options);
  listener.start();

  EXPECT_EQ(without_traceparent(http_get(listener.port(), "/small")),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n"
            "Retry-After: 1\r\nX-A: b\r\nConnection: close\r\n\r\nok\n");
  EXPECT_EQ(without_traceparent(http_get(listener.port(), "/empty")),
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 0\r\n"
            "Connection: close\r\n\r\n");

  // A client with a small receive window that drains slowly.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int window = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /big HTTP/1.1\r\nHost: local\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0), static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string response = without_traceparent(read_all(fd));
  ::close(fd);
  const std::string head =
      "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: " +
      std::to_string(big.size()) + "\r\nX-Part: big\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(response.size(), head.size() + big.size());
  EXPECT_EQ(response.substr(0, head.size()), head);
  EXPECT_TRUE(response.compare(head.size(), big.size(), big) == 0);
  listener.stop();
}

TEST(HttpListener, HalfRequestThenCloseGetsA400NotAHang) {
  HttpListenerOptions options;
  options.threads = 1;
  HttpListener listener([](const HttpRequest&) { return HttpResponse{200, "text/plain", "ok\n", {}}; },
                        options);
  listener.start();

  int fd = connect_to(listener.port());
  const std::string half = "GET /x HTTP/1.1\r\nHost:";
  ASSERT_EQ(::send(fd, half.data(), half.size(), 0), static_cast<ssize_t>(half.size()));
  ::shutdown(fd, SHUT_WR);  // EOF before the request completed
  const std::string response = read_all(fd);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u);
  listener.stop();
}

TEST(HttpListener, ShedsConnectionsPastThePendingBound) {
  HttpListenerOptions options;
  options.pending_connections = 0;  // everything accepted is over the bound
  HttpListener listener([](const HttpRequest&) { return HttpResponse{200, "text/plain", "ok\n", {}}; },
                        options);
  listener.start();

  int fd = connect_to(listener.port());
  const std::string full = "GET /x HTTP/1.1\r\n\r\n";
  ::send(fd, full.data(), full.size(), 0);
  const std::string response = read_all(fd);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u);
  EXPECT_NE(response.find("Retry-After"), std::string::npos);
  EXPECT_GE(listener.connections_shed(), 1u);
  listener.stop();
}

TEST(HttpListener, ClientAbortAfterResponseStartsDoesNotKillTheProcess) {
  // A client that slams the connection mid-write would deliver SIGPIPE
  // without MSG_NOSIGNAL; surviving this loop proves the suppression.
  MetricsRegistry reg;
  reg.counter("big_total").inc(1);
  HttpListenerOptions options;
  HttpListener listener(
      [](const HttpRequest&) {
        return HttpResponse{200, "text/plain", std::string(1 << 20, 'x'), {}};
      },
      options);
  listener.start();
  for (int i = 0; i < 5; ++i) {
    int fd = connect_to(listener.port());
    const std::string full = "GET /big HTTP/1.1\r\n\r\n";
    ::send(fd, full.data(), full.size(), 0);
    char buf[128];
    (void)::recv(fd, buf, sizeof(buf), 0);  // read a sliver of the 1 MiB body
    ::close(fd);                            // then slam the door
  }
  // The listener survived and still serves.
  int fd = connect_to(listener.port());
  const std::string full = "GET /big HTTP/1.1\r\n\r\n";
  ::send(fd, full.data(), full.size(), 0);
  EXPECT_EQ(read_all(fd).rfind("HTTP/1.1 200", 0), 0u);
  ::close(fd);
  listener.stop();
}

// --- seeded request fuzz: hostile bytes over a real socket ---

/// Empty when `response` is exactly one well-formed HTTP/1.1 response — one
/// status line, "Name: value" headers, one Content-Length equal to the body
/// length and nothing after the body; otherwise what is wrong with it.
std::string response_defect(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return "no header terminator";
  const std::string_view head(response.data(), head_end);
  const std::size_t status_end = head.find("\r\n");
  const std::string_view status = head.substr(0, status_end);
  if (status.size() < 14 || status.substr(0, 9) != "HTTP/1.1 " ||
      !std::isdigit(static_cast<unsigned char>(status[9])) ||
      !std::isdigit(static_cast<unsigned char>(status[10])) ||
      !std::isdigit(static_cast<unsigned char>(status[11])) || status[12] != ' ') {
    return "bad status line";
  }
  int content_lengths = 0;
  std::size_t content_length = 0;
  std::string_view rest = status_end == std::string_view::npos ? std::string_view{}
                                                                : head.substr(status_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
    const std::size_t colon = line.find(": ");
    if (colon == std::string_view::npos || colon == 0) return "bad header line";
    if (line.substr(0, colon) == "Content-Length") {
      ++content_lengths;
      content_length = std::stoul(std::string(line.substr(colon + 2)));
    }
  }
  if (content_lengths != 1) return "Content-Length count " + std::to_string(content_lengths);
  const std::size_t body = response.size() - head_end - 4;
  if (body != content_length) {
    return "body is " + std::to_string(body) + " bytes, Content-Length " +
           std::to_string(content_length);
  }
  return {};
}

/// The seeded hostile corpus: every-byte truncations, random bytes with
/// embedded NULs, bare-LF line ends, header lines with no colon, oversized
/// heads, and duplicate or garbage Content-Length values. ~500 inputs.
/// `expected`, when given, receives (input index, status) for the inputs
/// whose answer is fixed: a repeated Content-Length is a 400 unless it
/// parses to the first one's value.
std::vector<std::string> fuzz_corpus(std::uint64_t seed, std::size_t max_request_bytes,
                                     std::vector<std::pair<std::size_t, int>>* expected = nullptr) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto random_bytes = [&](std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(pick(256));
    return out;
  };
  std::vector<std::string> corpus;

  const std::string crlf = "POST /echo HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 5\r\n\r\nhello";
  const std::string lf = "GET /x?a=1 HTTP/1.1\nHost: fuzz\nX-Y: z\n\n";
  for (const std::string* valid : {&crlf, &lf}) {
    for (std::size_t n = 0; n <= valid->size(); ++n) corpus.push_back(valid->substr(0, n));
  }

  for (int i = 0; i < 150; ++i) corpus.push_back(random_bytes(1 + pick(300)));
  for (int i = 0; i < 50; ++i) {
    corpus.push_back("GET /r HTTP/1.1\r\n" + random_bytes(pick(200)) + "\r\n\r\n");
  }

  const std::vector<std::string> junk_lines = {
      "NoColonHere", "", " : ", "Host: fuzz", ":empty-name", "X-A:b", "\t",
      std::string("X-B: \0c", 7)};
  for (int i = 0; i < 60; ++i) {
    std::string request = pick(2) == 0 ? "GET /h HTTP/1.1" : "GET /h HTTP/1.0";
    const std::size_t lines = pick(6);
    for (std::size_t l = 0; l < lines; ++l) {
      request += pick(2) == 0 ? "\n" : "\r\n";
      request += junk_lines[pick(junk_lines.size())];
    }
    request += pick(2) == 0 ? "\n\n" : "\r\n\r\n";
    corpus.push_back(std::move(request));
  }

  for (int i = 0; i < 30; ++i) {
    const std::size_t pad = max_request_bytes + pick(3 * max_request_bytes);
    corpus.push_back(i % 3 == 0 ? "GET /" + std::string(pad, 'p') + " HTTP/1.1\r\n\r\n"
                     : i % 3 == 1
                         ? "GET /o HTTP/1.1\r\nX-Pad: " + std::string(pad, 'x') + "\r\n\r\n"
                         : "GET /o HTTP/1.1\r\n" + std::string(pad, 'y'));
  }

  const std::vector<std::string> lengths = {
      "+5", "-5", "-0", "0x5", "5a", "5 5", "5,5", "1e3", "five", "\xd9\xa5",
      std::string("5\0", 2), "99999999999999999999999", "18446744073709551615",
      "18446744073709551616", "00005", "0", "5", "4", "6", " 5 "};
  for (const std::string& value : lengths) {
    corpus.push_back("POST /echo HTTP/1.1\r\nContent-Length: " + value + "\r\n\r\nhello");
    if (expected != nullptr) {
      const bool agrees = value == "5" || value == "00005" || value == " 5 ";
      expected->emplace_back(corpus.size(), agrees ? 200 : 400);
    }
    corpus.push_back("POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: " + value +
                     "\r\n\r\nhello");
  }
  while (corpus.size() < 500) {
    const std::string& base = corpus[pick(corpus.size())];
    std::string mutated = base;
    if (!mutated.empty()) mutated[pick(mutated.size())] = static_cast<char>(pick(256));
    corpus.push_back(std::move(mutated));
  }
  return corpus;
}

TEST(HttpListener, SeededFuzzedRequestsEachGetOneWellFormedResponse) {
  HttpListenerOptions options;
  options.threads = 2;
  options.read_deadline_ms = 150;
  options.max_request_bytes = 1024;
  HttpListener listener(
      [](const HttpRequest& request) {
        return HttpResponse{200, "text/plain", request.path() == "/echo" ? request.body : "ok\n",
                            {}};
      },
      options);
  listener.start();

  std::vector<std::pair<std::size_t, int>> expected;
  const std::vector<std::string> corpus = fuzz_corpus(20211, options.max_request_bytes, &expected);
  ASSERT_GE(corpus.size(), 500u);
  ASSERT_EQ(expected.size(), 20u);
  std::size_t next_expected = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    // A few inputs stay half-open so the read deadline (408) answers them.
    const std::string response = http_request(listener.port(), corpus[i], i % 97 != 0);
    ASSERT_EQ(response_defect(response), "")
        << "input " << i << " (" << corpus[i].size() << " bytes): " << response;
    if (next_expected < expected.size() && expected[next_expected].first == i) {
      const std::string status = "HTTP/1.1 " + std::to_string(expected[next_expected].second);
      EXPECT_EQ(response.rfind(status, 0), 0u) << "input " << i << ": " << response;
      ++next_expected;
    }
  }
  EXPECT_EQ(next_expected, expected.size());
  EXPECT_EQ(listener.requests_served(), corpus.size());

  // The listener is still healthy afterwards.
  const std::string ok = http_get(listener.port(), "/after");
  EXPECT_EQ(ok.rfind("HTTP/1.1 200", 0), 0u) << ok;
  EXPECT_EQ(response_defect(ok), "");
  listener.stop();
}

TEST(HttpListener, ContentLengthMustBeDigitsOnly) {
  // Regression: the length went through strtoll, which took "+5" as 5 (and
  // stopped at an embedded NUL). A sign, a NUL or any non-digit is a 400.
  HttpListenerOptions options;
  options.threads = 1;
  HttpListener listener(
      [](const HttpRequest& request) { return HttpResponse{200, "text/plain", request.body, {}}; },
      options);
  listener.start();
  const auto post = [&](const std::string& value) {
    return http_request(listener.port(),
                        "POST /echo HTTP/1.1\r\nContent-Length: " + value + "\r\n\r\nhello",
                        true);
  };
  for (const std::string& bad :
       {std::string("+5"), std::string("-0"), std::string("5\0", 2), std::string("0x5")}) {
    const std::string response = post(bad);
    EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
    EXPECT_NE(response.find("bad content-length"), std::string::npos) << response;
  }
  const std::string good = post("5");
  EXPECT_EQ(response_defect(good), "");
  EXPECT_EQ(good.substr(good.size() - 5), "hello");
  EXPECT_EQ(post("00005").rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(post("99999999999999999999999").rfind("HTTP/1.1 400", 0), 0u);  // out of range
  EXPECT_EQ(post("18446744073709551615").rfind("HTTP/1.1 413", 0), 0u);     // no wraparound
  listener.stop();
}

TEST(HttpListener, ConflictingContentLengthsAre400) {
  // Regression: the listener framed the body by the first of two differing
  // Content-Length headers, which a proxy that took the other would frame
  // differently (request smuggling; RFC 9112 §6.3). Repeats that agree
  // stay accepted.
  HttpListenerOptions options;
  options.threads = 1;
  HttpListener listener(
      [](const HttpRequest& request) { return HttpResponse{200, "text/plain", request.body, {}}; },
      options);
  listener.start();
  const auto post = [&](const std::string& first, const std::string& second) {
    return http_request(listener.port(),
                        "POST /echo HTTP/1.1\r\nContent-Length: " + first +
                            "\r\nX-Between: 1\r\nContent-Length: " + second +
                            "\r\n\r\nhello",
                        true);
  };
  for (const auto& [first, second] : {std::pair{"5", "4"}, std::pair{"4", "5"},
                                      std::pair{"5", "0"}, std::pair{"0", "5"}}) {
    const std::string response = post(first, second);
    EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << first << "/" << second << ": " << response;
    EXPECT_NE(response.find("conflicting content-length"), std::string::npos) << response;
  }
  // A malformed repeat is reported as malformed, whichever comes first.
  EXPECT_NE(post("5", "+5").find("bad content-length"), std::string::npos);
  EXPECT_NE(post("+5", "5").find("bad content-length"), std::string::npos);
  for (const auto& [first, second] : {std::pair{"5", "5"}, std::pair{"5", "00005"}}) {
    const std::string response = post(first, second);
    EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
    EXPECT_EQ(response.substr(response.size() - 5), "hello");
  }
  listener.stop();
}

TEST(LivePlane, TracezRoutesTraceIdAndMinMsQueries) {
  MetricsRegistry reg;
  util::LivePlane plane({}, reg);
  TraceRecorder& traces = TraceRecorder::global();
  traces.clear();
  TailOptions tail;
  tail.min_ms = 0.0;
  traces.set_tail_options(tail);
  TraceId id;
  {
    ScopedSpan span("kept.span", traces);
    id = span.trace();
  }
  HttpResponse by_id = plane.handle("GET", "/tracez?trace_id=" + trace_id_hex(id));
  EXPECT_EQ(by_id.status, 200);
  EXPECT_NE(by_id.body.find("\"name\":\"kept.span\""), std::string::npos);
  HttpResponse miss = plane.handle("GET", "/tracez?trace_id=" + std::string(32, 'e'));
  EXPECT_EQ(miss.status, 200);
  EXPECT_TRUE(miss.body.empty());
  HttpResponse slow = plane.handle("GET", "/tracez?min_ms=0");
  EXPECT_NE(slow.body.find("\"dur_ms\":"), std::string::npos);
  traces.clear();
  traces.set_tail_options(TailOptions{});  // restore defaults for later tests
}

TEST(LivePlane, ProfilezReportsSupportBusyAndBadParams) {
  MetricsRegistry reg;
  util::LivePlane plane({}, reg);
  if (!Profiler::supported()) {
    // Sanitizer / non-Linux builds: the route must say so, not 404.
    EXPECT_EQ(plane.handle("GET", "/profilez").status, 501);
    return;
  }
  EXPECT_EQ(plane.handle("GET", "/profilez?seconds=abc").status, 400);

  // Keep a core busy so SIGPROF has CPU time to sample.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sink = sink * 31 + 1;
    }
  });
  HttpResponse profile = plane.handle("GET", "/profilez?seconds=1");
  stop.store(true);
  burner.join();
  EXPECT_EQ(profile.status, 200);
  EXPECT_EQ(profile.body.rfind("# samples=", 0), 0u);
  EXPECT_NE(profile.body.find(" dropped="), std::string::npos);
}

TEST(HttpListener, AdoptsTraceparentAndEchoesTheTraceInTheResponse) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.clear();
  TailOptions tail;
  tail.min_ms = 0.0;  // keep every finalized trace for the assertions
  rec.set_tail_options(tail);

  HttpListener listener(
      [](const HttpRequest& request) {
        const int status = request.path() == "/boom" ? 500 : 200;
        return HttpResponse{status, "text/plain", "done\n", {}};
      },
      HttpListenerOptions{});
  listener.start();

  const std::string client_header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  int fd = connect_to(listener.port());
  const std::string request =
      "GET /hello HTTP/1.1\r\nTraceparent: " + client_header + "\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  const std::string response = read_all(fd);
  ::close(fd);

  // The response carries the SAME trace id with the server's span id.
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_NE(response.find("\r\nTraceparent: 00-0af7651916cd43dd8448eb211c80319c-"),
            std::string::npos);
  EXPECT_EQ(response.find("Traceparent: " + client_header), std::string::npos);

  // The adopted trace was finalized server-side and is queryable by its id.
  const TraceId id = *parse_trace_id_hex("0af7651916cd43dd8448eb211c80319c");
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace, id);
  EXPECT_FALSE(kept[0].error);
  ASSERT_EQ(kept[0].spans.size(), 1u);
  EXPECT_EQ(kept[0].spans[0].name, "http./hello");
  // The remote parent id is recorded verbatim on the server's root span.
  EXPECT_EQ(kept[0].spans[0].parent, 0xb7ad6b7169203331ULL);

  // A 5xx response marks its trace as an error.
  fd = connect_to(listener.port());
  const std::string boom =
      "GET /boom HTTP/1.1\r\nTraceparent: 00-0af7651916cd43dd8448eb211c80319d-"
      "b7ad6b7169203331-01\r\n\r\n";
  ::send(fd, boom.data(), boom.size(), 0);
  const std::string boom_response = read_all(fd);
  ::close(fd);
  EXPECT_EQ(boom_response.rfind("HTTP/1.1 500", 0), 0u);
  const std::vector<KeptTrace> kept_after = rec.kept_traces();
  ASSERT_EQ(kept_after.size(), 2u);
  EXPECT_TRUE(kept_after[1].error);

  // A request WITHOUT a traceparent still gets a trace of its own.
  fd = connect_to(listener.port());
  const std::string bare = "GET /hello HTTP/1.1\r\n\r\n";
  ::send(fd, bare.data(), bare.size(), 0);
  const std::string bare_response = read_all(fd);
  ::close(fd);
  EXPECT_NE(bare_response.find("\r\nTraceparent: 00-"), std::string::npos);

  listener.stop();
  rec.clear();
  rec.set_tail_options(TailOptions{});  // restore defaults for later tests
}

}  // namespace
}  // namespace auric::obs
