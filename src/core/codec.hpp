// Byte-level wire format for every payload in the system — the
// mutable-checkpoint protocol's and all six baselines'.
//
// The paper's evaluation charges a flat 50 B per system message. In
// reality a checkpoint request carries the MR structure (one entry per
// process) and an exact binary-fraction weight, so its size grows with N
// and with propagation depth. This codec provides:
//   * a registry with encode()/decode() round-trips for every
//     rt::PayloadTag (tested by fuzz and round-trip property tests),
//   * wire_size() — the honest on-air size, used when
//     rt::TimingConfig::use_wire_sizes is enabled to re-run the message
//     overhead accounting without the 50 B idealization, and
//   * universal_codec() — the rt::WireCodec the harness installs so the
//     runtime and the transports (wire-fidelity mode) can use all of the
//     above without depending on this layer.
//
// Format: little-endian, fixed-width integers; vectors are length-prefixed
// (u16). A 1-byte tag (the rt::PayloadTag value) selects the payload type.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/payloads.hpp"
#include "rt/wire.hpp"
#include "util/small_vec.hpp"

namespace mck::core {

/// Serializes any registered payload (dispatching on its tag).
/// Returns an empty vector for unregistered payload types.
std::vector<std::uint8_t> encode(const rt::Payload& payload);

/// Parses a buffer produced by encode(). Returns nullptr on any
/// truncation, bad tag, or trailing garbage; never crashes.
std::shared_ptr<rt::Payload> decode(rt::ByteView bytes);

/// Honest on-air size of a payload: encoded bytes plus the link header
/// the paper's 50 B budget stands for. 0 for unregistered types.
inline constexpr std::uint64_t kLinkHeaderBytes = 20;
std::uint64_t wire_size(const rt::Payload& payload);

/// Encoded payload bytes only (tag byte included, no link header).
std::uint64_t payload_bytes(const rt::Payload& payload);

/// True iff the registry has a codec for `tag`.
bool codec_registered(rt::PayloadTag tag);

/// The process-wide rt::WireCodec over the registry. Installed into every
/// ProcessContext by harness::System and into the transports when
/// wire-fidelity mode is on.
const rt::WireCodec* universal_codec();

// --- low-level building blocks (exposed for tests) ---------------------

class WireWriter {
 public:
  WireWriter() = default;

  /// Measuring writer: size() accumulates but no byte is materialized.
  /// This is the payload_bytes() hot path — record_wire_bytes asks for
  /// the size of every message sent, so sizing must not allocate.
  struct Measure {};
  explicit WireWriter(Measure) : measure_(true) {}

  void u8(std::uint8_t v) {
    ++count_;
    if (!measure_) buf_.push_back(v);
  }
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
  /// LEB128 varint: 7 value bits per byte, high bit = continuation. Small
  /// values (the common case for csns, counts, and delta-encoded gaps)
  /// cost one byte instead of four or eight.
  void vu64(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  void vu32(std::uint32_t v) { vu64(v); }

  /// Zigzag-mapped signed varint: -1 (the NULL trigger's pid) costs one
  /// byte, not five.
  void zz32(std::int32_t v) {
    const std::uint32_t u = static_cast<std::uint32_t>(v);
    vu64((u << 1) ^ static_cast<std::uint32_t>(v >> 31));
  }

  std::vector<std::uint8_t> take() {
    MCK_ASSERT(!measure_);
    return std::vector<std::uint8_t>(buf_.begin(), buf_.end());
  }
  std::size_t size() const { return count_; }

 private:
  /// Inline scratch: typical payloads (a comp piggyback, a request with a
  /// handful of MR slots) encode in well under 192 bytes, so a full
  /// encode touches the heap only for the returned copy in take().
  util::SmallVec<std::uint8_t, 192> buf_;
  std::size_t count_ = 0;
  bool measure_ = false;
};

/// Reads from a non-owning view, so transports can decode straight out of
/// their in-flight buffers without copying.
class WireReader {
 public:
  explicit WireReader(rt::ByteView buf) : buf_(buf) {}

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == buf_.size(); }

  /// Marks the stream malformed; decode() then rejects the buffer. Used by
  /// payload codecs when a semantic invariant fails (non-ascending pids, an
  /// out-of-universe interval) even though the bytes themselves were
  /// readable.
  void fail() { ok_ = false; }

  std::uint8_t u8() {
    if (pos_ + 1 > buf_.size()) {
      ok_ = false;
      return 0;
    }
    return buf_[pos_++];
  }
  std::uint16_t u16() {
    std::uint16_t lo = u8(), hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  std::uint32_t u32() {
    std::uint32_t lo = u16(), hi = u16();
    return lo | (hi << 16);
  }
  std::uint64_t u64() {
    std::uint64_t lo = u32(), hi = u32();
    return lo | (hi << 32);
  }

  std::uint64_t vu64() {
    std::uint64_t out = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      std::uint8_t b = u8();
      if (!ok_) return 0;
      out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // Reject non-canonical 10th bytes that would shift past bit 63.
        if (i == 9 && b > 1) {
          ok_ = false;
          return 0;
        }
        return out;
      }
      shift += 7;
    }
    ok_ = false;  // unterminated varint
    return 0;
  }
  std::uint32_t vu32() {
    std::uint64_t v = vu64();
    if (v > UINT32_MAX) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint32_t>(v);
  }
  std::int32_t zz32() {
    std::uint32_t u = vu32();
    return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
  }

 private:
  rt::ByteView buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mck::core
