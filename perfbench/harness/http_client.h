// Minimal blocking HTTP/1.1 GET over loopback, one connection per request
// (the listener answers every request with Connection: close).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 when the transport failed (refused, reset, timed out)
  std::string body;
};

/// GET `target` from 127.0.0.1:`port` and read the reply to EOF.
HttpReply http_get(std::uint16_t port, std::string_view target);

}  // namespace perfbench
