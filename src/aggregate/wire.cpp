#include "aggregate/wire.h"

#include <algorithm>

namespace papirepro::aggregate {

const char* wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kNeedMore: return "need_more";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kOversized: return "oversized";
    case WireError::kMalformed: return "malformed";
  }
  return "unknown";
}

namespace {

// Worst cases: a header of 4 + 4 + 2 + 5 (rank) + 10 (stamp) + 2
// (count) bytes, entry fields of 2 (entry_len) + 5 (handle) + 2 + 10
// (pub_delta) + 2 (num_values), 10 per value.  The value cap keeps an
// entry body under 2^14, so entry_len never needs a third byte.
constexpr std::size_t kMaxHeaderBytes = 30;
constexpr std::size_t kMaxEntryFieldBytes = 2 + 5 + 2 + 10 + 2;
constexpr std::size_t kMaxEntryBytes =
    kMaxEntryFieldBytes + kMaxValuesPerEntry * 10;
static_assert(kMaxEntryBytes - 2 < (1u << 14));

inline std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v) | 0x80u;
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

inline void write_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

bool encode_frame(std::uint32_t rank, std::uint64_t frame_cycles,
                  std::span<const papi::SnapshotEntry> entries,
                  std::span<const long long> values,
                  std::vector<std::uint8_t>& out, std::uint8_t mode) {
  if (entries.size() > kMaxEntriesPerFrame || mode > kFrameModeRankRun) {
    return false;
  }
  std::size_t total_values = 0;  // validate it all before any write
  for (const papi::SnapshotEntry& e : entries) {
    const int status = static_cast<int>(e.status);
    if (e.handle < 0 || status > 0 || status < -kMaxWireStatus ||
        e.num_values > kMaxValuesPerEntry ||
        e.first_value + static_cast<std::size_t>(e.num_values) >
            values.size()) {
      return false;
    }
    total_values += e.num_values;
  }
  // One worst-case window, written through a raw cursor.  An entry only
  // starts inside kMaxFrameBytes, which bounds the window for any input.
  const std::size_t base = out.size();
  out.resize(base + std::min(kMaxHeaderBytes +
                                 entries.size() * kMaxEntryFieldBytes +
                                 total_values * 10,
                             kMaxFrameBytes + kMaxEntryBytes));
  std::uint8_t* const frame = out.data() + base;
  write_u32(frame + 4, kWireMagic);  // frame_len backpatched below
  frame[8] = kWireVersion;
  frame[9] = mode;
  std::uint8_t* p = write_varint(frame + 10, rank);
  p = write_varint(p, frame_cycles);
  p = write_varint(p, entries.size());
  for (const papi::SnapshotEntry& e : entries) {
    if (static_cast<std::size_t>(p - frame) > kMaxFrameBytes) break;
    std::uint8_t* const len_pos = p++;  // entry_len, backpatched
    p = write_varint(p, static_cast<std::uint32_t>(e.handle));
    *p++ = static_cast<std::uint8_t>(-static_cast<int>(e.status));
    *p++ = static_cast<std::uint8_t>(e.flags);
    // Publication stamps ride as wrapping zigzag deltas from
    // frame_cycles: one byte in the steady state, exact for any pair.
    p = write_varint(p, zigzag_encode(static_cast<long long>(
                            e.pub_cycles - frame_cycles)));
    p = write_varint(p, e.num_values);
    for (std::uint32_t i = 0; i < e.num_values; ++i) {
      p = write_varint(p, zigzag_encode(values[e.first_value + i]));
    }
    const auto entry_len = static_cast<std::size_t>(p - len_pos - 1);
    if (entry_len < 0x80) {
      *len_pos = static_cast<std::uint8_t>(entry_len);
    } else {  // rare: shift the body to make room for a 2-byte length
      std::memmove(len_pos + 2, len_pos + 1, entry_len);
      len_pos[0] = static_cast<std::uint8_t>(entry_len) | 0x80u;
      len_pos[1] = static_cast<std::uint8_t>(entry_len >> 7);
      ++p;
    }
  }
  const auto frame_len = static_cast<std::size_t>(p - frame);
  if (frame_len > kMaxFrameBytes) {
    out.resize(base);
    return false;
  }
  write_u32(frame, static_cast<std::uint32_t>(frame_len));
  out.resize(base + frame_len);
  return true;
}

}  // namespace papirepro::aggregate
