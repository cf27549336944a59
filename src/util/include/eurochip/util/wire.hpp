// Byte-stream wire format for cross-hub artifact exchange.
//
// WireWriter/WireReader implement the canonical little-endian encoding the
// federated RemoteCache (fed::RemoteCache) ships flow cache entries in:
// fixed-width integers, doubles by bit pattern, and length-prefixed
// strings/byte blobs. The format is deliberately dumb — no varints, no
// schema negotiation — because the payloads are content-addressed: the
// 128-bit Digest key already pins the exact producer, so the only failure
// mode a reader must survive is truncation/corruption of the byte stream
// itself.
//
// WireReader is therefore fully bounds-checked and never throws: any read
// past the end (or a length prefix larger than the remaining bytes) trips
// a sticky failure flag, subsequent reads return zero values, and the
// caller checks ok() once at the end. A remote cache handing back garbage
// degrades to a cache miss, never to undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eurochip::util {

/// Appends little-endian primitives to a growing byte buffer.
class WireWriter {
 public:
  WireWriter& u8(std::uint8_t v);
  WireWriter& u32(std::uint32_t v);
  WireWriter& u64(std::uint64_t v);
  WireWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  WireWriter& boolean(bool v) { return u8(v ? 1 : 0); }
  /// Bit-pattern encoding; NaN payloads round-trip unchanged.
  WireWriter& f64(double v);
  /// u64 length prefix + raw bytes.
  WireWriter& str(const std::string& s);
  WireWriter& blob(const std::vector<std::uint8_t>& b);
  /// Container sizes (u64 on the wire regardless of host size_t width).
  WireWriter& size(std::size_t v) { return u64(static_cast<std::uint64_t>(v)); }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }
  /// Moves the buffer out; the writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked sequential reader over a borrowed byte span. On any
/// underflow the reader fails sticky: ok() turns false and every further
/// read returns a zero value. The span must outlive the reader.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  double f64();
  std::string str();
  std::vector<std::uint8_t> blob();
  std::size_t size();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Marks the stream failed explicitly (semantic validation errors share
  /// the truncation path).
  void fail() { ok_ = false; }

 private:
  /// True (and advances) if n more bytes are available.
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace eurochip::util
