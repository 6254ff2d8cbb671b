#include "util/buffer.hpp"

#include <gtest/gtest.h>

#include "util/parse_result.hpp"

namespace mip6 {
namespace {

TEST(BufferWriter, IntegersAreBigEndian) {
  BufferWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  EXPECT_EQ(to_hex(w.bytes()), "0102030405060708090a0b0c0d0e0f");
}

TEST(BufferWriter, RawAppendsVerbatim) {
  BufferWriter w;
  Bytes data{0xde, 0xad, 0xbe, 0xef};
  w.raw(data);
  EXPECT_EQ(w.bytes(), data);
}

TEST(BufferWriter, ZerosAppendsPadding) {
  BufferWriter w;
  w.u8(0xff);
  w.zeros(3);
  EXPECT_EQ(to_hex(w.bytes()), "ff000000");
}

TEST(BufferWriter, PatchU16OverwritesInPlace) {
  BufferWriter w;
  w.u32(0);
  w.patch_u16(1, 0xabcd);
  EXPECT_EQ(to_hex(w.bytes()), "00abcd00");
}

TEST(BufferWriter, PatchOutOfRangeThrows) {
  BufferWriter w;
  w.u16(0);
  EXPECT_THROW(w.patch_u16(1, 1), LogicError);
  EXPECT_THROW(w.patch_u16(2, 1), LogicError);
}

TEST(BufferWriter, TakeMovesBufferOut) {
  BufferWriter w;
  w.u16(0x1234);
  Bytes b = std::move(w).take();
  EXPECT_EQ(to_hex(b), "1234");
}

TEST(WireCursor, ReadsBackWhatWriterWrote) {
  BufferWriter w;
  w.u8(7);
  w.u16(500);
  w.u32(70000);
  w.u64(1ULL << 40);
  Bytes data = std::move(w).take();
  WireCursor c(data);
  EXPECT_EQ(c.u8(), 7);
  EXPECT_EQ(c.u16(), 500);
  EXPECT_EQ(c.u32(), 70000u);
  EXPECT_EQ(c.u64(), 1ULL << 40);
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.failed());
}

TEST(WireCursor, UnderrunLatchesFailedAndClamps) {
  Bytes data{1, 2};
  WireCursor c(data);
  EXPECT_EQ(c.u32(), 0u);
  EXPECT_TRUE(c.failed());
  // The cursor clamps at the end instead of consuming part of the field.
  EXPECT_EQ(c.position(), 2u);
  EXPECT_EQ(c.remaining(), 0u);
  // Latched: every later read yields zero or an empty view.
  EXPECT_EQ(c.u8(), 0);
  EXPECT_EQ(c.u16(), 0);
  EXPECT_EQ(c.u64(), 0u);
  EXPECT_TRUE(c.view(1).empty());
  EXPECT_TRUE(c.raw(1).empty());
  EXPECT_TRUE(c.failed());
}

TEST(WireCursor, RawAndViewConsume) {
  Bytes data{1, 2, 3, 4, 5};
  WireCursor c(data);
  Bytes head = c.raw(2);
  EXPECT_EQ(to_hex(head), "0102");
  BytesView rest = c.view(3);
  EXPECT_EQ(to_hex(rest), "030405");
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.failed());
}

TEST(WireCursor, SkipAdvances) {
  Bytes data{1, 2, 3};
  WireCursor c(data);
  c.skip(2);
  EXPECT_EQ(c.position(), 2u);
  EXPECT_EQ(c.u8(), 3);
  EXPECT_FALSE(c.failed());
  c.skip(1);
  EXPECT_TRUE(c.failed());
}

TEST(WireCursor, TrailingBytesLeaveNotEmpty) {
  Bytes data{1};
  WireCursor c(data);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.remaining(), 1u);
  c.u8();
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.failed());
}

TEST(ToHex, EmptyAndValues) {
  EXPECT_EQ(to_hex({}), "");
  Bytes data{0x00, 0x0f, 0xf0, 0xff};
  EXPECT_EQ(to_hex(data), "000ff0ff");
}

}  // namespace
}  // namespace mip6
