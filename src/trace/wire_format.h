// On-the-wire encoding of a single LogRecord, the payload unit of the v2
// block stream (stream.h).
//
// Records are encoded field by field, little-endian, with no padding — 51
// bytes each — so files are identical across compilers and platforms.
// Decoding validates every enum field and rejects negative timestamps; a
// corrupt byte fails loudly instead of producing an out-of-range enum.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "trace/record.h"

namespace atlas::trace::wire {

inline constexpr std::size_t kRecordWireSize =
    8 + 8 + 8 + 8 + 8 + 4 + 2 + 2 + 1 + 1 + 1;  // 51 bytes

// On little-endian targets the wire layout matches memory, so load/store is
// a plain memcpy (a single unaligned mov after inlining — the byte-by-byte
// fallback is an order of magnitude slower and dominates block decode). The
// big-endian path swaps via the same byte loop as before.

template <typename T>
inline void StoreLe(unsigned char* dst, T value) {
  static_assert(std::is_integral_v<T>);
  using U = std::make_unsigned_t<T>;
  auto u = static_cast<U>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &u, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<unsigned char>(u & 0xff);
      u = static_cast<U>(u >> 8);
    }
  }
}

template <typename T>
inline T LoadLe(const unsigned char* src) {
  static_assert(std::is_integral_v<T>);
  using U = std::make_unsigned_t<T>;
  U u = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&u, src, sizeof(T));
  } else {
    for (std::size_t i = sizeof(T); i > 0; --i) {
      u = static_cast<U>(u << 8) | src[i - 1];
    }
  }
  return static_cast<T>(u);
}

// Encodes `r` into exactly kRecordWireSize bytes at `dst`.
inline void EncodeRecord(const LogRecord& r, unsigned char* dst) {
  StoreLe(dst + 0, r.timestamp_ms);
  StoreLe(dst + 8, r.url_hash);
  StoreLe(dst + 16, r.user_id);
  StoreLe(dst + 24, r.object_size);
  StoreLe(dst + 32, r.response_bytes);
  StoreLe(dst + 40, r.publisher_id);
  StoreLe(dst + 44, r.user_agent_id);
  StoreLe(dst + 46, r.response_code);
  StoreLe(dst + 48, static_cast<std::uint8_t>(r.file_type));
  StoreLe(dst + 49, static_cast<std::uint8_t>(r.cache_status));
  StoreLe(dst + 50, r.tz_offset_quarter_hours);
}

// Decodes kRecordWireSize bytes at `src`; throws std::runtime_error on any
// field a valid writer could not have produced.
inline LogRecord DecodeRecord(const unsigned char* src) {
  LogRecord r;
  r.timestamp_ms = LoadLe<std::int64_t>(src + 0);
  if (r.timestamp_ms < 0) {
    throw std::runtime_error("trace_io: negative timestamp_ms");
  }
  r.url_hash = LoadLe<std::uint64_t>(src + 8);
  r.user_id = LoadLe<std::uint64_t>(src + 16);
  r.object_size = LoadLe<std::uint64_t>(src + 24);
  r.response_bytes = LoadLe<std::uint64_t>(src + 32);
  r.publisher_id = LoadLe<std::uint32_t>(src + 40);
  r.user_agent_id = LoadLe<std::uint16_t>(src + 44);
  r.response_code = LoadLe<std::uint16_t>(src + 46);
  const auto ft = LoadLe<std::uint8_t>(src + 48);
  if (ft >= kNumFileTypes) throw std::runtime_error("trace_io: bad file type");
  r.file_type = static_cast<FileType>(ft);
  const auto cs = LoadLe<std::uint8_t>(src + 49);
  if (cs > 1) throw std::runtime_error("trace_io: bad cache status");
  r.cache_status = static_cast<CacheStatus>(cs);
  r.tz_offset_quarter_hours = LoadLe<std::int8_t>(src + 50);
  return r;
}

}  // namespace atlas::trace::wire
