#pragma once

/// Minimal explicit-little-endian wire primitives shared by the on-disk
/// formats (event schedules, recorded runs, checkpoint rings, spool
/// bundles, campaign images). The writer is append-only; the reader is
/// bounds-checked and throws std::invalid_argument on truncation, so
/// corrupted images can never read out of range. `Frame` is the one
/// magic + version + body + trailing-hash envelope those formats share.
/// `sim/snapshot.cpp` keeps its own private copy of the primitives — its
/// wire format is frozen and golden-tested independently of this header.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.h"

namespace ulpsync::util {

/// Little-endian append-only byte sink.
class WireWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }
  void blob(std::span<const std::uint8_t> bytes) {
    u64(bytes.size());
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader (see the file comment).
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size()) {
      throw std::invalid_argument("wire: truncated image");
    }
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const auto lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const auto lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const auto lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  bool boolean() {
    const auto v = u8();
    if (v > 1) throw std::invalid_argument("wire: invalid boolean field");
    return v != 0;
  }
  std::string str() {
    const std::uint32_t size = u32();
    require(size);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return out;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint64_t size = u64();
    require(size);
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += size;
    return out;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void require(std::uint64_t size) const {
    if (size > bytes_.size() - pos_) {
      throw std::invalid_argument("wire: truncated image");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// A framed image: 8-byte magic, u32 version, body, then the FNV-1a 64 of
/// everything before the hash.
struct Frame {
  std::array<std::uint8_t, 8> magic;
  std::uint32_t version;

  /// A writer holding the magic and version, ready for the body.
  [[nodiscard]] WireWriter begin() const {
    WireWriter w;
    for (const std::uint8_t byte : magic) w.u8(byte);
    w.u32(version);
    return w;
  }

  /// Appends the trailing hash to a `begin()` writer; returns the image.
  [[nodiscard]] static std::vector<std::uint8_t> seal(WireWriter& w) {
    w.u64(fnv1a64(w.bytes()));
    return w.take();
  }

  /// Validates an image in the order size, trailing hash, magic, version
  /// (so corruption reports as corruption, not as a field error) and
  /// returns a reader over the body. Throws std::invalid_argument with a
  /// message prefixed by `what`.
  [[nodiscard]] WireReader open(std::span<const std::uint8_t> bytes,
                                const std::string& what) const {
    if (bytes.size() < magic.size() + 4 + 8) {
      throw std::invalid_argument(what + ": truncated image");
    }
    const std::span<const std::uint8_t> payload = bytes.first(bytes.size() - 8);
    if (WireReader(bytes.last(8)).u64() != fnv1a64(payload)) {
      throw std::invalid_argument(what +
                                  ": content hash mismatch (corrupt image)");
    }
    WireReader r(payload);
    for (const std::uint8_t byte : magic) {
      if (r.u8() != byte) throw std::invalid_argument(what + ": bad magic");
    }
    const std::uint32_t found = r.u32();
    if (found != version) {
      throw std::invalid_argument(what + ": unsupported version " +
                                  std::to_string(found));
    }
    return r;
  }
};

}  // namespace ulpsync::util
