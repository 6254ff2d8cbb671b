// HPIM-DM wire formats: every message round-trips through the real
// serializer + checksummed header, and malformed frames land in exactly the
// taxonomy bucket the decoder documents — including the cross-engine case
// where a PIM-DM (version 2) frame hits the HPIM decoder and vice versa.
#include <gtest/gtest.h>

#include "hpimdm/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

const Address kSrc = Address::parse("2001:db8:1::1");
const Address kDst = Address::parse("2001:db8:1::2");
const Address kGroup = Address::parse("ff1e::1");
const Address kSource = Address::parse("2001:db8:9::9");

Bytes hpim_frame(HpimType type, BytesView body) {
  return serialize_pim(kHpimVersion, static_cast<std::uint8_t>(type), body,
                       kSrc, kDst);
}

/// serialize + header-parse + body-parse, asserting the type survives.
template <typename M>
M round_trip(HpimType type, const M& msg) {
  Bytes wire = hpim_frame(type, msg.body());
  ParseResult<PimHeader> hdr = try_parse_pim(kHpimVersion, wire, kSrc, kDst);
  EXPECT_TRUE(hdr.ok()) << hdr.failure().str();
  EXPECT_EQ(hdr.value().type, static_cast<std::uint8_t>(type));
  ParseResult<M> body = M::try_parse(hdr.value().body);
  EXPECT_TRUE(body.ok()) << body.failure().str();
  return body.ok() ? body.value() : M{};
}

TEST(HpimMessages, HelloRoundTrip) {
  HpimHello h;
  h.holdtime = 42;
  h.generation_id = 0xdecade01;
  HpimHello back = round_trip(HpimType::kHello, h);
  EXPECT_EQ(back.holdtime, 42);
  EXPECT_EQ(back.generation_id, 0xdecade01u);
}

TEST(HpimMessages, AckRoundTrip) {
  HpimAck a;
  a.seq = 0x01020304;
  EXPECT_EQ(round_trip(HpimType::kAck, a).seq, 0x01020304u);
}

TEST(HpimMessages, InterestRoundTrip) {
  HpimInterest i;
  i.seq = 7;
  i.source = kSource;
  i.group = kGroup;
  i.interested = true;
  HpimInterest back = round_trip(HpimType::kInterest, i);
  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.source, kSource);
  EXPECT_EQ(back.group, kGroup);
  EXPECT_TRUE(back.interested);

  i.interested = false;
  EXPECT_FALSE(round_trip(HpimType::kInterest, i).interested);
}

TEST(HpimMessages, SyncRoundTripWithFragmentFlag) {
  HpimSync s;
  s.seq = 9;
  s.more = true;
  s.entries.push_back({kSource, kGroup, true});
  s.entries.push_back({Address::parse("2001:db8:9::a"),
                       Address::parse("ff1e::2"), false});
  HpimSync back = round_trip(HpimType::kSync, s);
  EXPECT_EQ(back.seq, 9u);
  EXPECT_TRUE(back.more);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].source, kSource);
  EXPECT_EQ(back.entries[0].group, kGroup);
  EXPECT_TRUE(back.entries[0].interested);
  EXPECT_FALSE(back.entries[1].interested);
}

TEST(HpimMessages, AssertRoundTrip) {
  HpimAssert a;
  a.group = kGroup;
  a.source = kSource;
  a.metric_preference = 101;
  a.metric = 3;
  HpimAssert back = round_trip(HpimType::kAssert, a);
  EXPECT_EQ(back.group, kGroup);
  EXPECT_EQ(back.source, kSource);
  EXPECT_EQ(back.metric_preference, 101u);
  EXPECT_EQ(back.metric, 3u);
}

// --- Cross-engine rejection (the coexistence contract) ---------------------

TEST(HpimMessages, PimFrameRejectedByNameAtHpimHeader) {
  Bytes pim = serialize_pim(kPimVersion,
                            static_cast<std::uint8_t>(PimType::kHello),
                            PimHello{}.body(), kSrc, kDst);
  ParseResult<PimHeader> r = try_parse_pim(kHpimVersion, pim, kSrc, kDst);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kBadType);
  EXPECT_EQ(r.failure().str(), "bad-type: HPIM version is not 3");
}

TEST(HpimMessages, HpimFrameRejectedByNameAtPimHeader) {
  HpimInterest i;
  i.seq = 3;
  i.source = kSource;
  i.group = kGroup;
  Bytes hpim = hpim_frame(HpimType::kInterest, i.body());
  ParseResult<PimHeader> r = try_parse_pim(kPimVersion, hpim, kSrc, kDst);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kBadType);
  EXPECT_EQ(r.failure().str(), "bad-type: PIM version is not 2");
}

// --- Taxonomy ---------------------------------------------------------------

TEST(HpimMessages, CorruptedChecksumRejected) {
  Bytes wire = hpim_frame(HpimType::kHello, HpimHello{}.body());
  wire.back() ^= 0xff;
  ParseResult<PimHeader> r = try_parse_pim(kHpimVersion, wire, kSrc, kDst);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kBadChecksum);
}

TEST(HpimMessages, TruncatedBodiesRejected) {
  HpimInterest i;
  i.source = kSource;
  i.group = kGroup;
  Bytes body = i.body();
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    ParseResult<HpimInterest> r =
        HpimInterest::try_parse(BytesView(body.data(), cut));
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.failure().reason, ParseReason::kTruncated) << "cut=" << cut;
  }
}

TEST(HpimMessages, SyncCountLieRejectedBeforeEntryWork) {
  HpimSync s;
  s.seq = 1;
  s.entries.push_back({kSource, kGroup, true});
  Bytes body = s.body();
  // Body layout: seq u32, more u8, count u16, entries. Promise more entries
  // than the octets carry: rejected as truncated without reading them.
  body[5] = 0;
  body[6] = 200;
  ParseResult<HpimSync> r = HpimSync::try_parse(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kTruncated);
}

TEST(HpimMessages, SyncEntryBoundEnforced) {
  HpimSync s;
  s.seq = 1;
  s.entries.push_back({kSource, kGroup, true});
  Bytes body = s.body();
  body[5] = 0xff;  // count 0xffff >> bound::kMaxHpimSyncEntries
  body[6] = 0xff;
  ParseResult<HpimSync> r = HpimSync::try_parse(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kBoundExceeded);
}

TEST(HpimMessages, TrailingGarbageAfterBodyRejected) {
  HpimAck a;
  a.seq = 5;
  Bytes body = a.body();
  body.push_back(0xaa);
  ParseResult<HpimAck> r = HpimAck::try_parse(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kOverlength);
}

TEST(HpimMessages, UnknownTypeRejectedAtHeader) {
  Bytes wire = hpim_frame(static_cast<HpimType>(9), HpimHello{}.body());
  ParseResult<PimHeader> r = try_parse_pim(kHpimVersion, wire, kSrc, kDst);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().reason, ParseReason::kBadType);
  EXPECT_EQ(r.failure().str(), "bad-type: unknown HPIM message type");
}

}  // namespace
}  // namespace mip6
