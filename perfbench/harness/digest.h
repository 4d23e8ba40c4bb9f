// 64-bit FNV-1a digest over a workload's outputs. Each add() also folds in
// a record separator, so ("ab","c") and ("a","bc") digest differently.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }

  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  void mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace perfbench
