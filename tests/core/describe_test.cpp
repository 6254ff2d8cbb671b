#include "core/describe.hpp"

#include <gtest/gtest.h>

#include "core/figure1.hpp"
#include "hpimdm/messages.hpp"
#include "ipv6/tunnel.hpp"
#include "ipv6/udp.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

TEST(Describe, UdpDatagram) {
  Address src = Address::parse("2001:db8:1::99");
  Address dst = Address::parse("ff1e::1");
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{9000, 9000, Bytes(64)}.serialize(src, dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("IPv6 2001:db8:1::99 -> ff1e::1"), std::string::npos) << s;
  EXPECT_NE(s.find("UDP 9000->9000"), std::string::npos) << s;
}

TEST(Describe, MldReport) {
  Address src = Address::parse("fe80::1");
  Address dst = Address::parse("ff1e::1");
  MldMessage rep;
  rep.type = MldType::kReport;
  rep.group = dst;
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kIcmpv6;
  spec.payload = rep.to_icmpv6().serialize(src, dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("MLD Report group=ff1e::1"), std::string::npos) << s;
}

TEST(Describe, PimGraft) {
  Address src = Address::parse("fe80::2");
  Address dst = Address::parse("fe80::3");
  PimJoinPrune m = PimJoinPrune::join(dst, Address::parse("2001:db8::1"),
                                      Address::parse("ff1e::1"));
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(
      kPimVersion, static_cast<std::uint8_t>(PimType::kGraft), m.body(), src,
      dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("PIM Graft"), std::string::npos) << s;
  EXPECT_NE(s.find("J(2001:db8::1,ff1e::1)"), std::string::npos) << s;
}

std::string describe_hpim(HpimType type, BytesView body) {
  Address src = Address::parse("2001:db8:1::1");
  Address dst = Address::parse("ff02::d");
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(kHpimVersion, static_cast<std::uint8_t>(type),
                               body, src, dst);
  return describe_datagram(build_datagram(spec));
}

TEST(Describe, HpimControlMessages) {
  const Address s = Address::parse("2001:db8::1");
  const Address g = Address::parse("ff1e::1");
  HpimHello hello;
  hello.holdtime = 105;
  hello.generation_id = 7;
  EXPECT_NE(describe_hpim(HpimType::kHello, hello.body())
                .find("| HPIM Hello holdtime=105s gen=7"),
            std::string::npos);
  HpimAck ack;
  ack.seq = 4;
  EXPECT_NE(describe_hpim(HpimType::kAck, ack.body()).find("| HPIM Ack seq=4"),
            std::string::npos);
  HpimInterest interest;
  interest.seq = 5;
  interest.source = s;
  interest.group = g;
  interest.interested = true;
  std::string i = describe_hpim(HpimType::kInterest, interest.body());
  EXPECT_NE(i.find("| HPIM Interest seq=5 (2001:db8::1,ff1e::1) interested"),
            std::string::npos)
      << i;
  HpimSync sync;
  sync.seq = 6;
  sync.more = true;
  sync.entries.push_back(HpimSync::Entry{s, g, true});
  std::string y = describe_hpim(HpimType::kSync, sync.body());
  EXPECT_NE(y.find("| HPIM Sync seq=6 entries=1 more"), std::string::npos)
      << y;
  HpimAssert a;
  a.source = s;
  a.group = g;
  a.metric_preference = 101;
  a.metric = 2;
  std::string as = describe_hpim(HpimType::kAssert, a.body());
  EXPECT_NE(as.find("| HPIM Assert (2001:db8::1,ff1e::1) pref=101 metric=2"),
            std::string::npos)
      << as;
  Bytes short_body = ack.body();
  short_body.pop_back();
  EXPECT_NE(describe_hpim(HpimType::kAck, short_body).find("HPIM <malformed>"),
            std::string::npos);
}

TEST(Describe, HpimWorldControlTrafficIsNeverMalformed) {
  WorldConfig config;
  config.dense_engine = DenseEngineKind::kHpimDm;
  Figure1 f = build_figure1(1, config);
  std::size_t pim_frames = 0;
  std::size_t hellos = 0;
  std::vector<std::string> malformed;
  f.world->net().add_tx_hook(
      [&](const Link&, const Interface&, const Packet& pkt) {
        std::string s = describe_datagram(pkt.view());
        if (s.find("PIM") == std::string::npos) return;
        ++pim_frames;
        if (s.find("HPIM Hello") != std::string::npos) ++hellos;
        if (s.find("malformed") != std::string::npos) malformed.push_back(s);
      });
  f.world->run_until(Time::sec(5));
  EXPECT_GT(pim_frames, 0u);
  EXPECT_GT(hellos, 0u);
  EXPECT_TRUE(malformed.empty()) << malformed.front();
}

TEST(Describe, BindingUpdateWithGroupListAndHomeAddress) {
  BindingUpdateOption bu;
  bu.home_registration = true;
  bu.sequence = 3;
  bu.lifetime_s = 256;
  MulticastGroupListSubOption list;
  list.groups.push_back(Address::parse("ff1e::1"));
  bu.sub_options.push_back(list.encode());
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:6::99");
  spec.dst = Address::parse("2001:db8:4::4");
  spec.dest_options.push_back(bu.encode());
  spec.dest_options.push_back(
      HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
  spec.protocol = proto::kNoNext;
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("BU seq=3 life=256s groups=1"), std::string::npos) << s;
  EXPECT_NE(s.find("Home=2001:db8:4::99"), std::string::npos) << s;
}

TEST(Describe, TunneledDatagramRecurses) {
  DatagramSpec inner;
  inner.src = Address::parse("2001:db8:1::99");
  inner.dst = Address::parse("ff1e::1");
  inner.protocol = proto::kUdp;
  inner.payload =
      UdpDatagram{9000, 9000, Bytes(8)}.serialize(inner.src, inner.dst);
  Bytes outer = encapsulate(build_datagram(inner),
                            Address::parse("2001:db8:4::4"),
                            Address::parse("2001:db8:6::99"));
  std::string s = describe_datagram(outer);
  EXPECT_NE(s.find("tunnel[ IPv6 2001:db8:1::99"), std::string::npos) << s;
  EXPECT_NE(s.find("UDP 9000->9000"), std::string::npos) << s;
}

TEST(Describe, MalformedNeverThrows) {
  EXPECT_NO_THROW({
    std::string s = describe_datagram(Bytes{1, 2, 3});
    EXPECT_NE(s.find("malformed"), std::string::npos);
  });
  EXPECT_NO_THROW(describe_datagram(Bytes{}));
}

}  // namespace
}  // namespace mip6
