// Compact binary encoding primitives: ByteBuffer (writer) and ByteReader.
//
// The paper's §4.1 wire format is XML text — kept as the debug/interchange
// encoding — but at fleet scale every bus hop and descriptor round-trip
// pays the DOM build + escape/parse tax.  This module is the foundation of
// the binary codec (net/codec.h, DESIGN.md §15): little-endian fixed-width
// integers, LEB128 varints, zigzag signed varints, IEEE-754 doubles, and
// length-prefixed strings, plus the FNV-1a checksums the frame layer uses
// (the same discipline as the event journal's segment codec, obs/journal.cpp).
//
// ByteReader BORROWS the input (std::string_view) and never copies a byte
// it does not hand out: view() returns sub-views of the original buffer, so
// an in-process decode is zero-copy until a field is materialized into an
// owning object.  Every read is bounds-checked; a failed read latches an
// error state (ok() goes false, fail_error() says why) and all subsequent
// reads return zero values, so decoders can check once per structural
// boundary instead of per field.  Length prefixes are validated against the
// bytes actually remaining BEFORE any allocation — an adversarial or
// corrupted prefix can never trigger an oversized reserve.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.h"

namespace vmp::util {

/// FNV-1a over a byte range: journal record checksums (32-bit); explore
/// digests, warehouse action digests and derived seeds (64-bit).
std::uint32_t fnv1a32(std::string_view data) noexcept;
std::uint64_t fnv1a64(std::string_view data) noexcept;

/// Frame-layer checksum for the binary codec (net/codec.h): two interleaved
/// 32-bit FNV-1a lanes over alternating little-endian words, folded at the
/// end.  Word-at-a-time is ~8x faster than byte-serial FNV (the multiply
/// dependency chain advances 8 bytes per step instead of 1), which matters
/// because the checksum is paid on BOTH sides of every bus hop.  Each lane
/// stays bijective per absorbed block (xor + odd multiply), so any
/// corruption confined to one 32-bit word — in particular every single-bit
/// flip — is guaranteed to change the checksum; the trailing partial word
/// absorbs its length so truncated tails cannot alias padded ones.
std::uint32_t frame_checksum32(std::string_view data) noexcept;

class ByteBuffer {
 public:
  void put_u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// IEEE-754 bit pattern, little-endian (bit-exact round trip, NaNs kept).
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// LEB128: 7 bits per byte, low group first, high bit = continuation.
  void put_varint(std::uint64_t v);
  /// Zigzag-mapped varint for signed values (small magnitudes stay small).
  void put_svarint(std::int64_t v);
  /// Varint byte length, then the raw bytes.
  void put_string(std::string_view v);
  void append_raw(std::string_view v) { out_.append(v.data(), v.size()); }

  /// Pre-size the backing store (encoders that know roughly how big the
  /// payload will be avoid the append-growth reallocations).
  void reserve(std::size_t n) { out_.reserve(n); }

  std::size_t size() const { return out_.size(); }
  const std::string& bytes() const& { return out_; }
  std::string take() { return std::move(out_); }
  void clear() { out_.clear(); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  bool boolean();
  std::uint64_t varint();
  std::int64_t svarint();
  /// Borrowed sub-view of the next `n` bytes (no copy).
  std::string_view view(std::size_t n);
  /// Length-prefixed string as a borrowed view; the prefix is rejected
  /// (error latch) when it exceeds the remaining bytes.
  std::string_view string_view_field();
  /// Owning copy of a length-prefixed string.
  std::string string_field() { return std::string(string_view_field()); }

  /// A decoded count is plausible only if the stream still holds at least
  /// `min_bytes_each` bytes per element; reject it up front so corrupted
  /// counts fail fast instead of driving giant loops/allocations.
  bool check_count(std::uint64_t count, std::size_t min_bytes_each = 1);

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return ok_ && offset_ == data_.size(); }

  bool ok() const { return ok_; }
  /// First failure (kParseError with the offset); OK while ok().
  Status status() const;
  /// Latch a decoder-level failure (semantic validation, not bounds).
  void fail(const std::string& why);

 private:
  const char* take(std::size_t n);

  std::string_view data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
  std::string fail_reason_;
  std::size_t fail_offset_ = 0;
};

}  // namespace vmp::util
