#pragma once

/// \file fingerprint.hpp
/// The order-sensitive 64-bit hash behind the fingerprint tables
/// (test_sharded_fingerprints.cpp, test_graph_fingerprints.cpp), plus
/// the table-check loop they share: a case whose hash differs from its
/// recorded line fails and prints the replacement line.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace plurality {

/// Order-sensitive 64-bit hash over a word stream (SplitMix64's
/// finalizer applied to the running state xor each word).
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    std::uint64_t z = (state_ ^ word) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    state_ = z ^ (z >> 31);
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

struct Golden {
  const char* name;
  std::uint64_t hash;
};

/// Checks one case against `table`. Returns true when the case has a
/// line (matching or not), so callers can count that every line ran.
template <std::size_t N>
bool check_fingerprint(const Golden (&table)[N], const std::string& name,
                       std::uint64_t hash, const std::string& context = "") {
  char line[128];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016" PRIx64 "ULL},",
                name.c_str(), hash);
  for (const Golden& g : table) {
    if (name != g.name) continue;
    EXPECT_EQ(hash, g.hash)
        << name << " changed" << context
        << "; if intended, replace its line with:\n    " << line;
    return true;
  }
  ADD_FAILURE() << "no table entry; add:\n    " << line;
  return false;
}

}  // namespace plurality
