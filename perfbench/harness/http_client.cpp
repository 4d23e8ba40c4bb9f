#include "harness/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace perfbench {

namespace {

/// Closes the descriptor on every exit path.
struct Socket {
  int fd = -1;
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
};

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

HttpReply http_get(std::uint16_t port, std::string_view target) {
  HttpReply reply;
  Socket sock;
  sock.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock.fd < 0) return reply;
  const int one = 1;
  ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{10, 0};
  ::setsockopt(sock.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return reply;
  }

  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (!send_all(sock.fd, request)) return reply;

  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return reply;
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }

  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  const std::size_t space = raw.find(' ');
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (space == std::string::npos || head_end == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + space + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

}  // namespace perfbench
