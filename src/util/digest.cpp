#include "eurochip/util/digest.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace eurochip::util {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3uLL;
constexpr std::uint64_t kLanePrime = 0xC2B2AE3D27D4EB4FuLL;

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

}  // namespace

std::string Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    out[static_cast<std::size_t>(2 * i)] = kHex[(word >> (shift + 4)) & 0xF];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[(word >> shift) & 0xF];
  }
  return out;
}

Hasher& Hasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    a_ = (a_ ^ p[i]) * kFnvPrime;
    b_ = (b_ ^ p[i]) * kLanePrime;
    b_ = (b_ << 31) | (b_ >> 33);
  }
  len_ += n;
  return *this;
}

Hasher& Hasher::u8(std::uint8_t v) { return bytes(&v, 1); }

Hasher& Hasher::u32(std::uint32_t v) {
  std::uint8_t buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::u64(std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::f64(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;  // collapses -0.0 onto +0.0
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}

Hasher& Hasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Digest Hasher::finalize() const {
  Digest d;
  d.hi = mix64(a_ ^ mix64(len_));
  d.lo = mix64(b_ + 0x632BE59BD9B4E019uLL * (len_ + 1));
  return d;
}

}  // namespace eurochip::util
