// IPv4 address and prefix value types.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace yardstick::packet {

/// Render a host-order IPv4 address in dotted-quad form.
inline std::string ipv4_to_string(uint32_t addr) {
  return std::to_string((addr >> 24) & 0xff) + "." + std::to_string((addr >> 16) & 0xff) +
         "." + std::to_string((addr >> 8) & 0xff) + "." + std::to_string(addr & 0xff);
}

/// Parse a dotted-quad IPv4 address; returns nullopt on malformed input.
inline std::optional<uint32_t> parse_ipv4(std::string_view s) {
  uint32_t addr = 0;
  int octets = 0;
  uint32_t current = 0;
  bool have_digit = false;
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<uint32_t>(c - '0');
      if (current > 255) return std::nullopt;
      have_digit = true;
    } else if (c == '.') {
      if (!have_digit || octets == 3) return std::nullopt;
      addr = (addr << 8) | current;
      current = 0;
      have_digit = false;
      ++octets;
    } else {
      return std::nullopt;
    }
  }
  if (!have_digit || octets != 3) return std::nullopt;
  return (addr << 8) | current;
}

/// An inclusive range [lo, hi] of host-order IPv4 addresses; the default is
/// every address.
struct Ipv4Range {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;

  [[nodiscard]] bool contains(uint32_t addr) const { return lo <= addr && addr <= hi; }
  [[nodiscard]] bool overlaps(const Ipv4Range& o) const { return lo <= o.hi && o.lo <= hi; }

  friend bool operator==(const Ipv4Range&, const Ipv4Range&) = default;
};

/// An IPv4 prefix in CIDR form (address is stored masked to the length).
class Ipv4Prefix {
 public:
  Ipv4Prefix() = default;

  /// @param addr host-order address; bits past `len` are cleared.
  Ipv4Prefix(uint32_t addr, uint8_t len) : len_(len) {
    if (len > 32) throw ys::InvalidInputError("prefix length > 32");
    addr_ = addr & mask();
  }

  /// Parse "a.b.c.d/len" (or bare "a.b.c.d" as a /32).
  static Ipv4Prefix parse(std::string_view s) {
    const size_t slash = s.find('/');
    uint8_t len = 32;
    std::string_view addr_part = s;
    if (slash != std::string_view::npos) {
      addr_part = s.substr(0, slash);
      int parsed = 0;
      for (const char c : s.substr(slash + 1)) {
        if (c < '0' || c > '9') throw ys::InvalidInputError("bad prefix length");
        parsed = parsed * 10 + (c - '0');
        if (parsed > 32) throw ys::InvalidInputError("prefix length > 32");
      }
      len = static_cast<uint8_t>(parsed);
    }
    const auto addr = parse_ipv4(addr_part);
    if (!addr) throw ys::InvalidInputError("bad IPv4 address: " + std::string(s));
    return {*addr, len};
  }

  [[nodiscard]] uint32_t address() const { return addr_; }
  [[nodiscard]] uint8_t length() const { return len_; }

  [[nodiscard]] uint32_t mask() const {
    return len_ == 0 ? 0 : ~uint32_t{0} << (32 - len_);
  }

  [[nodiscard]] bool contains(uint32_t addr) const { return (addr & mask()) == addr_; }

  [[nodiscard]] bool contains(const Ipv4Prefix& other) const {
    return other.len_ >= len_ && contains(other.addr_);
  }

  [[nodiscard]] bool overlaps(const Ipv4Prefix& other) const {
    return contains(other) || other.contains(*this);
  }

  /// First address of the prefix.
  [[nodiscard]] uint32_t first() const { return addr_; }
  /// Last address of the prefix.
  [[nodiscard]] uint32_t last() const { return addr_ | ~mask(); }
  /// The addresses the prefix covers, as a range.
  [[nodiscard]] Ipv4Range range() const { return {first(), last()}; }
  /// Number of addresses covered (2^(32-len)), as uint64 to allow /0.
  [[nodiscard]] uint64_t size() const { return uint64_t{1} << (32 - len_); }

  /// The i-th child prefix of length `child_len` (for carving subnets).
  [[nodiscard]] Ipv4Prefix subnet(uint8_t child_len, uint32_t index) const {
    if (child_len < len_ || child_len > 32) {
      throw ys::InvalidInputError("bad subnet length");
    }
    const uint32_t stride_bits = 32u - child_len;
    return {addr_ | (index << stride_bits), child_len};
  }

  [[nodiscard]] std::string to_string() const {
    return ipv4_to_string(addr_) + "/" + std::to_string(len_);
  }

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  uint32_t addr_ = 0;
  uint8_t len_ = 0;
};

/// The default route prefix 0.0.0.0/0.
inline Ipv4Prefix default_route_prefix() { return {0, 0}; }

}  // namespace yardstick::packet
