// Byte-for-byte pin of the wire encoder.  `reference_encode` below is
// the straightforward encoder the format was first written as: it grows
// the output with push_back one byte at a time and shifts the entry tail
// to widen a long entry_len.  encode_frame must produce exactly the
// same bytes for every input the reference accepts, refuse the same
// inputs, and leave a refused call's output buffer byte-identical —
// whatever sizing and cursor tricks the production encoder plays.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "aggregate/wire.h"
#include "common/rng.h"
#include "core/eventset.h"

namespace {

using namespace papirepro::aggregate;
namespace papi = papirepro::papi;
using papirepro::Error;
using papirepro::Xoshiro256;

using Bytes = std::vector<std::uint8_t>;

void ref_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void ref_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// The oracle: one push_back per byte, entry_len reserved as one byte
/// and widened in place by inserting into the tail.
bool reference_encode(std::uint32_t rank, std::uint64_t frame_cycles,
                      std::span<const papi::SnapshotEntry> entries,
                      std::span<const long long> values, Bytes& out,
                      std::uint8_t mode) {
  if (entries.size() > kMaxEntriesPerFrame) return false;
  if (mode > kFrameModeRankRun) return false;
  const std::size_t base = out.size();
  ref_u32(out, 0);
  ref_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(mode);
  ref_varint(out, rank);
  ref_varint(out, frame_cycles);
  ref_varint(out, entries.size());
  for (const papi::SnapshotEntry& e : entries) {
    if (e.num_values > kMaxValuesPerEntry ||
        e.first_value + static_cast<std::size_t>(e.num_values) >
            values.size()) {
      out.resize(base);
      return false;
    }
    const std::size_t len_pos = out.size();
    out.push_back(0);
    ref_varint(out, static_cast<std::uint32_t>(e.handle));
    out.push_back(static_cast<std::uint8_t>(-static_cast<int>(e.status)));
    out.push_back(static_cast<std::uint8_t>(e.flags));
    ref_varint(out, zigzag_encode(static_cast<long long>(
                        e.pub_cycles - frame_cycles)));
    ref_varint(out, e.num_values);
    for (std::uint32_t i = 0; i < e.num_values; ++i) {
      ref_varint(out, zigzag_encode(values[e.first_value + i]));
    }
    const std::size_t entry_len = out.size() - (len_pos + 1);
    Bytes len;
    ref_varint(len, entry_len);
    out[len_pos] = len[0];
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(len_pos) + 1,
               len.begin() + 1, len.end());
  }
  const std::size_t frame_len = out.size() - base;
  if (frame_len > kMaxFrameBytes) {
    out.resize(base);
    return false;
  }
  for (int i = 0; i < 4; ++i) {
    out[base + i] = static_cast<std::uint8_t>(frame_len >> (8 * i));
  }
  return true;
}

/// Encodes the same input with both encoders over copies of `prefix`
/// and requires identical verdicts and identical bytes.
void expect_same_bytes(std::uint32_t rank, std::uint64_t frame_cycles,
                       std::span<const papi::SnapshotEntry> entries,
                       std::span<const long long> values,
                       std::uint8_t mode, const Bytes& prefix = {},
                       const char* what = "") {
  Bytes want = prefix;
  Bytes got = prefix;
  const bool want_ok =
      reference_encode(rank, frame_cycles, entries, values, want, mode);
  const bool got_ok =
      encode_frame(rank, frame_cycles, entries, values, got, mode);
  ASSERT_EQ(got_ok, want_ok) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got, want) << what;
  if (!want_ok) {
    EXPECT_EQ(got, prefix) << what << ": refused call wrote";
  }
}

/// A value whose zigzag image is exactly `bytes` LEB128 bytes long,
/// negative when `negative` is set.
long long value_of_varint_length(int bytes, bool negative) {
  std::uint64_t u = bytes == 1 ? 0 : 1ull << (7 * (bytes - 1));
  if (negative) u |= 1;  // odd zigzag images are the negative values
  return zigzag_decode(u);
}

papi::SnapshotEntry entry(int handle, std::uint32_t first,
                          std::uint32_t count, std::uint64_t pub = 0) {
  papi::SnapshotEntry e;
  e.handle = handle;
  e.first_value = first;
  e.num_values = count;
  e.pub_cycles = pub;
  e.flags = papi::read_flag::kPublished;
  return e;
}

TEST(AggregationWire, EncoderMatchesReferenceBothModes) {
  const long long values[] = {0, 1, -1, 63, -64, 1'000'000};
  const papi::SnapshotEntry entries[] = {entry(1, 0, 3, 50),
                                         entry(2, 3, 3, 49)};
  for (const std::uint8_t mode : {kFrameModeSingleRank, kFrameModeRankRun}) {
    expect_same_bytes(5, 50, entries, values, mode, {}, "two entries");
    expect_same_bytes(5, 50, {}, values, mode, {}, "no entries");
  }
  expect_same_bytes(5, 50, entries, values, kFrameModeRankRun + 1, {},
                    "unknown mode");
}

TEST(AggregationWire, EncoderMatchesReferenceEveryVarintLength) {
  std::vector<long long> values;
  for (int bytes = 1; bytes <= 10; ++bytes) {
    values.push_back(value_of_varint_length(bytes, false));
    values.push_back(value_of_varint_length(bytes, true));
  }
  values.push_back(std::numeric_limits<long long>::min());
  values.push_back(std::numeric_limits<long long>::max());
  // Header varints at their widest: a 5-byte rank, a 10-byte frame
  // stamp, a 5-byte handle.
  const papi::SnapshotEntry e =
      entry(std::numeric_limits<int>::max(), 0,
            static_cast<std::uint32_t>(values.size()), 0);
  expect_same_bytes(std::numeric_limits<std::uint32_t>::max(),
                    std::numeric_limits<std::uint64_t>::max(), {&e, 1},
                    values, kFrameModeSingleRank);
  // One value per entry, so every varint length also lands as the last
  // field before an entry boundary.
  std::vector<papi::SnapshotEntry> singles;
  for (std::uint32_t i = 0; i < values.size(); ++i) {
    singles.push_back(entry(static_cast<int>(i) * 1000, i, 1, i));
  }
  expect_same_bytes(0, 0, singles, values, kFrameModeRankRun);
}

TEST(AggregationWire, EncoderMatchesReferencePublicationStamps) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const struct {
    std::uint64_t frame;
    std::uint64_t pub;
  } kStamps[] = {
      {1000, 1000},        // same instant: one-byte delta
      {1000, 999},         // just before
      {1000, 1001},        // just after
      {1000, 0},           // long before
      {0, kMax},           // wraps below zero
      {kMax, 0},           // wraps above the top
      {kMax - 5, 10},      // after, across the wrap
      {10, kMax - 5},      // before, across the wrap
      {1ull << 63, (1ull << 63) - 1},
      {0, 1ull << 63},     // delta INT64_MIN: the widest zigzag image
  };
  for (const auto& s : kStamps) {
    const papi::SnapshotEntry e = entry(3, 0, 0, s.pub);
    expect_same_bytes(1, s.frame, {&e, 1}, {}, kFrameModeSingleRank);
  }
}

TEST(AggregationWire, EncoderMatchesReferenceLongEntries) {
  // 20 ten-byte values make a ~210-byte entry: entry_len needs two
  // bytes, so the encoder must widen it after the fact.
  std::vector<long long> values(kMaxValuesPerEntry,
                                std::numeric_limits<long long>::min());
  const papi::SnapshotEntry two_byte_len[] = {
      entry(1, 0, 20), entry(2, 0, 1), entry(3, 5, 20)};
  expect_same_bytes(0, 0, two_byte_len, values, kFrameModeRankRun);
  // The boundary itself: entries whose body is 127 and 128 bytes.
  const long long ones[128] = {};  // each value encodes as one byte
  for (std::uint32_t n = 118; n <= 126; ++n) {
    const papi::SnapshotEntry e = entry(1, 0, n);
    expect_same_bytes(0, 0, {&e, 1}, ones, kFrameModeSingleRank);
  }
  // The largest entry the format allows: kMaxValuesPerEntry values of
  // ten bytes each.
  const papi::SnapshotEntry max_entry =
      entry(std::numeric_limits<int>::max(), 0, kMaxValuesPerEntry,
            std::numeric_limits<std::uint64_t>::max());
  expect_same_bytes(7, 0, {&max_entry, 1}, values, kFrameModeSingleRank);
}

TEST(AggregationWire, EncoderMatchesReferenceIntoWarmBuffer) {
  const long long values[] = {123456789, -42, 7, 0};
  const papi::SnapshotEntry entries[] = {entry(1, 0, 2, 900),
                                         entry(2, 2, 2, 1100)};
  Bytes warm;
  ASSERT_TRUE(encode_frame(3, 1000, entries, values, warm));
  ASSERT_TRUE(encode_frame(4, 1000, entries, values, warm,
                           kFrameModeRankRun));
  // Appending after frames already in the buffer.
  expect_same_bytes(5, 1000, entries, values, kFrameModeRankRun, warm);
  // A buffer cleared after an identical frame is reused in place.
  Bytes buf;
  ASSERT_TRUE(encode_frame(5, 1000, entries, values, buf));
  const Bytes first = buf;
  buf.clear();
  const std::uint8_t* data = buf.data();
  const std::size_t capacity = buf.capacity();
  ASSERT_TRUE(encode_frame(5, 1000, entries, values, buf));
  EXPECT_EQ(buf, first);
  EXPECT_EQ(buf.data(), data) << "warm re-encode reallocated";
  EXPECT_EQ(buf.capacity(), capacity);
}

TEST(AggregationWire, EncoderRefusalsLeaveBufferByteIdentical) {
  const Bytes prefix = {0xAB, 0xCD, 0xEF};
  std::vector<long long> values(kMaxValuesPerEntry,
                                std::numeric_limits<long long>::min());
  // Too many entries.
  const std::vector<papi::SnapshotEntry> too_many(kMaxEntriesPerFrame + 1,
                                                  entry(1, 0, 0));
  expect_same_bytes(0, 0, too_many, values, kFrameModeRankRun, prefix,
                    "too many entries");
  // A value window past the end of `values`, after a valid entry.
  const papi::SnapshotEntry past_end[] = {
      entry(1, 0, 2), entry(2, kMaxValuesPerEntry - 1, 2)};
  expect_same_bytes(0, 0, past_end, values, kFrameModeSingleRank, prefix,
                    "window past the values");
  // Too many values in one entry.
  const papi::SnapshotEntry too_wide[] = {
      entry(1, 0, kMaxValuesPerEntry + 1)};
  std::vector<long long> wide(kMaxValuesPerEntry + 1, 1);
  expect_same_bytes(0, 0, too_wide, wide, kFrameModeSingleRank, prefix,
                    "too many values");
  // Every entry valid, but together they exceed kMaxFrameBytes: ~10 KB
  // per entry, all sharing one value window.
  const std::size_t n = kMaxFrameBytes / (10 * kMaxValuesPerEntry) + 2;
  const std::vector<papi::SnapshotEntry> huge(
      n, entry(1, 0, kMaxValuesPerEntry));
  expect_same_bytes(0, 0, huge, values, kFrameModeRankRun, prefix,
                    "frame over kMaxFrameBytes");
  // A couple of entries fewer fit (and still match byte for byte).
  const std::size_t fits = kMaxFrameBytes / (10 * kMaxValuesPerEntry + 8);
  expect_same_bytes(0, 0, {huge.data(), fits}, values, kFrameModeRankRun,
                    prefix, "frame just under kMaxFrameBytes");
}

TEST(AggregationWire, EncoderMatchesReferenceRandomSweep) {
  static constexpr Error kStatuses[] = {
      Error::kOk, Error::kOk, Error::kNotRunning, Error::kNoEventSet,
      Error::kComponentQuarantined, Error::kSystem};
  Xoshiro256 rng(0x5EED'F00D);
  Bytes prefix;
  for (int round = 0; round < 300; ++round) {
    const std::size_t num_entries = rng.next() % 40;
    std::vector<long long> values;
    std::vector<papi::SnapshotEntry> entries;
    const std::uint64_t frame_cycles = rng.next() >> (rng.next() % 64);
    for (std::size_t i = 0; i < num_entries; ++i) {
      papi::SnapshotEntry e;
      e.handle = static_cast<int>(rng.next() >> (33 + rng.next() % 31));
      e.status = kStatuses[rng.next() % std::size(kStatuses)];
      e.flags = static_cast<std::uint32_t>(rng.next() & 0x1F);
      // Mostly near the frame stamp (the steady state), sometimes far.
      e.pub_cycles = rng.next() % 4 == 0
                         ? rng.next()
                         : frame_cycles + rng.next() % 64 - 32;
      e.first_value = static_cast<std::uint32_t>(values.size());
      // Occasionally long enough to need a two-byte entry_len.
      e.num_values = static_cast<std::uint32_t>(
          rng.next() % 16 == 0 ? 20 + rng.next() % 40 : rng.next() % 5);
      for (std::uint32_t v = 0; v < e.num_values; ++v) {
        const std::uint64_t raw = rng.next() >> (rng.next() % 64);
        values.push_back(rng.next() % 2 == 0 ? static_cast<long long>(raw)
                                             : -static_cast<long long>(raw));
      }
      entries.push_back(e);
    }
    // Now and then point one entry past the values: a refusal.
    if (!entries.empty() && rng.next() % 10 == 0) {
      papi::SnapshotEntry& bad = entries[rng.next() % entries.size()];
      bad.first_value = static_cast<std::uint32_t>(values.size());
      bad.num_values |= 1;
    }
    const std::uint8_t mode = static_cast<std::uint8_t>(rng.next() % 2);
    const auto rank = static_cast<std::uint32_t>(rng.next() >>
                                                 (32 + rng.next() % 32));
    expect_same_bytes(rank, frame_cycles, entries, values, mode, prefix,
                      "random sweep");
    if (HasFatalFailure()) return;
    // Carry a growing prefix so later rounds append to a warm buffer.
    if (prefix.size() < 4096) {
      (void)reference_encode(rank, frame_cycles, entries, values, prefix,
                             mode);
    } else {
      prefix.clear();
    }
  }
}

}  // namespace
