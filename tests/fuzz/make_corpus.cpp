// Regenerates the committed boundary-length corpus under
// tests/fuzz/corpus/. Each entry is a deterministic malformation of a
// serializer-produced frame (checksums stay honest, so the malformation
// under test — not a broken checksum — is what the decoder sees), verified
// against its expected taxonomy bucket before anything is written.
//
//   ./mip6_make_corpus <output-dir>
//
// Run it only to extend the corpus; the committed files are the regression
// baseline that corpus_replay_test replays byte-exact.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "hpimdm/messages.hpp"
#include "ipv6/datagram.hpp"
#include "ipv6/icmpv6.hpp"
#include "ipv6/ripng.hpp"
#include "ipv6/udp.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

struct Entry {
  std::string file;
  FuzzProto proto;
  std::string expected;  // "ok" or a taxonomy reason name
  Bytes octets;
};

std::string classify(FuzzProto proto, BytesView frame) {
  auto fail = drive_decoder(proto, frame);
  return fail ? parse_reason_name(fail->reason) : "ok";
}

Bytes pim_wire(PimType type, BytesView body) {
  return serialize_pim(kPimVersion, static_cast<std::uint8_t>(type), body,
                       fuzz_src(), fuzz_dst());
}

Bytes hpim_wire(HpimType type, BytesView body) {
  return serialize_pim(kHpimVersion, static_cast<std::uint8_t>(type), body,
                       fuzz_src(), fuzz_dst());
}

Bytes truncated(Bytes b, std::size_t n) {
  b.resize(n);
  return b;
}

Icmpv6Message mld_wire(MldType type, const Address& group) {
  MldMessage m;
  m.type = type;
  m.group = group;
  return m.to_icmpv6();
}

std::vector<Entry> build_entries() {
  std::vector<Entry> out;
  auto add = [&](std::string file, FuzzProto proto, std::string expected,
                 Bytes octets) {
    out.push_back(Entry{std::move(file), proto, std::move(expected),
                        std::move(octets)});
  };

  // --- MLD (via ICMPv6): truncated / overlength / zero-group ------------
  {
    // Body shorter than the 20-octet MLD layout, checksum still valid.
    Icmpv6Message short_report = mld_wire(MldType::kReport, fuzz_group());
    short_report.body.resize(10);
    add("mld-report-truncated.hex", FuzzProto::kIcmpv6, "truncated",
        short_report.serialize(fuzz_src(), fuzz_dst()));
  }
  {
    Icmpv6Message long_query = mld_wire(MldType::kQuery, Address());
    long_query.body.resize(28, 0);  // 8 trailing octets
    add("mld-query-overlength.hex", FuzzProto::kIcmpv6, "overlength",
        long_query.serialize(fuzz_src(), fuzz_dst()));
  }
  {
    // Report with the unspecified address as group: parses, semantically void.
    add("mld-report-zero-group.hex", FuzzProto::kIcmpv6, "semantic",
        mld_wire(MldType::kReport, Address())
            .serialize(fuzz_src(), fuzz_dst()));
  }

  // --- PIM Join/Prune / Graft -------------------------------------------
  PimJoinPrune jp = PimJoinPrune::join(fuzz_src(), fuzz_src(), fuzz_group());
  jp.groups[0].pruned_sources.push_back(fuzz_dst());
  Bytes jp_body = jp.body();
  {
    // Body cut mid-group-record; checksum computed over the cut body.
    add("pim-jp-truncated.hex", FuzzProto::kPim, "truncated",
        pim_wire(PimType::kJoinPrune, truncated(jp_body, 30)));
  }
  {
    // Joined-source count lies (promises 100 sources, frame holds 1). Stays
    // under bound::kMaxPimSourcesPerGroup so the truncation check, not the
    // amplification bound, is what rejects it.
    Bytes lie = jp_body;
    lie[42] = 0;    // njoined hi (18 upstream + 2 + 2 + 20 group = 42)
    lie[43] = 100;  // njoined lo
    add("pim-jp-source-count-lie.hex", FuzzProto::kPim, "truncated",
        pim_wire(PimType::kJoinPrune, lie));
  }
  {
    // Group-record count beyond the amplification bound.
    Bytes many = jp_body;
    many[19] = 0xff;  // ngroups (after 18-octet encoded unicast + reserved)
    add("pim-jp-group-bound.hex", FuzzProto::kPim, "bound-exceeded",
        pim_wire(PimType::kJoinPrune, many));
  }
  {
    add("pim-graft-truncated.hex", FuzzProto::kPim, "truncated",
        pim_wire(PimType::kGraft, truncated(jp_body, 10)));
  }
  {
    Bytes bad = pim_wire(PimType::kJoinPrune, jp_body);
    bad[2] ^= 0xff;  // checksum hi
    add("pim-bad-checksum.hex", FuzzProto::kPim, "bad-checksum",
        std::move(bad));
  }

  // --- Binding Update + Multicast Group List sub-option ------------------
  BindingUpdateOption bu;
  bu.ack_requested = true;
  bu.home_registration = true;
  bu.sequence = 11;
  bu.lifetime_s = 256;
  {
    add("bu-truncated.hex", FuzzProto::kBindingUpdate, "truncated",
        truncated(bu.encode().data, 5));
  }
  {
    BindingUpdateOption with = bu;
    MulticastGroupListSubOption mgl;
    mgl.groups = {fuzz_group(), Address::parse("ff1e::31")};
    with.sub_options.push_back(mgl.encode());
    add("bu-group-list-ok.hex", FuzzProto::kBindingUpdate, "ok",
        with.encode().data);
  }
  {
    BindingUpdateOption with = bu;
    MulticastGroupListSubOption none;
    with.sub_options.push_back(none.encode());
    add("bu-zero-groups-ok.hex", FuzzProto::kBindingUpdate, "ok",
        with.encode().data);
  }
  {
    // Group-list length not a multiple of 16.
    BindingUpdateOption with = bu;
    with.sub_options.push_back(
        BuSubOption{subopt::kMulticastGroupList, Bytes(10, 0xff)});
    add("bu-group-list-ragged.hex", FuzzProto::kBindingUpdate, "bad-length",
        with.encode().data);
  }
  {
    // Group list carrying a unicast address.
    BindingUpdateOption with = bu;
    Bytes data(16, 0);
    data[0] = 0x20;  // 2000::/3 global unicast, not ff00::/8
    with.sub_options.push_back(
        BuSubOption{subopt::kMulticastGroupList, std::move(data)});
    add("bu-group-list-unicast.hex", FuzzProto::kBindingUpdate, "semantic",
        with.encode().data);
  }
  {
    // Sub-option length octet promises more than the option holds.
    Bytes raw = bu.encode().data;
    raw.push_back(subopt::kMulticastGroupList);
    raw.push_back(200);  // length lie, no data follows
    add("bu-subopt-overrun.hex", FuzzProto::kBindingUpdate, "truncated",
        std::move(raw));
  }
  {
    // More sub-options than bound::kMaxBuSubOptions.
    Bytes raw = bu.encode().data;
    for (int i = 0; i < 20; ++i) {
      raw.push_back(1);  // unique-identifier type
      raw.push_back(0);  // empty
    }
    add("bu-subopt-bound.hex", FuzzProto::kBindingUpdate, "bound-exceeded",
        std::move(raw));
  }

  // --- HPIM-DM ------------------------------------------------------------
  HpimSync sync;
  sync.seq = 9;
  sync.entries.push_back({fuzz_src(), fuzz_group(), true});
  sync.entries.push_back({fuzz_dst(), fuzz_group(), false});
  Bytes sync_body = sync.body();
  {
    // Valid single-fragment sync: the accept side of the boundary.
    HpimHello hello;
    hello.holdtime = 105;
    hello.generation_id = 0xdecade02;
    add("hpim-hello-ok.hex", FuzzProto::kHpim, "ok",
        hpim_wire(HpimType::kHello, hello.body()));
  }
  {
    // Body cut mid-entry; checksum computed over the cut body.
    add("hpim-sync-truncated.hex", FuzzProto::kHpim, "truncated",
        hpim_wire(HpimType::kSync, truncated(sync_body, 20)));
  }
  {
    // Entry count lies (promises 200 entries, frame holds 2). Stays under
    // bound::kMaxHpimSyncEntries so the O(1) count-vs-body check, not the
    // amplification bound, is what rejects it.
    Bytes lie = sync_body;
    lie[5] = 0;    // count hi (4 seq + 1 more-flag)
    lie[6] = 200;  // count lo
    add("hpim-sync-count-lie.hex", FuzzProto::kHpim, "truncated",
        hpim_wire(HpimType::kSync, lie));
  }
  {
    // Entry count beyond the amplification bound.
    Bytes many = sync_body;
    many[5] = 0xff;
    many[6] = 0xff;
    add("hpim-sync-bound.hex", FuzzProto::kHpim, "bound-exceeded",
        hpim_wire(HpimType::kSync, many));
  }
  {
    // Cross-engine frames: the two engines share proto 103, so each decoder
    // must reject the other's version nibble by name instead of half-parsing.
    PimHello pim_hello;
    pim_hello.holdtime = 105;
    add("pim-frame-via-hpim-decoder.hex", FuzzProto::kHpim, "bad-type",
        pim_wire(PimType::kHello, pim_hello.body()));
    HpimInterest interest;
    interest.seq = 1;
    interest.source = fuzz_src();
    interest.group = fuzz_group();
    interest.interested = true;
    add("hpim-frame-via-pim-decoder.hex", FuzzProto::kPim, "bad-type",
        hpim_wire(HpimType::kInterest, interest.body()));
  }

  // --- Whole datagrams ---------------------------------------------------
  {
    DatagramSpec spec;
    spec.src = fuzz_src();
    spec.dst = fuzz_dst();
    spec.protocol = proto::kNoNext;
    Bytes d = build_datagram(spec);
    d[0] = 0x50;  // version 5
    add("datagram-bad-version.hex", FuzzProto::kDatagram, "bad-type",
        std::move(d));
  }
  {
    DatagramSpec spec;
    spec.src = fuzz_src();
    spec.dst = fuzz_dst();
    spec.protocol = proto::kUdp;
    UdpDatagram udp;
    udp.src_port = 1;
    udp.dst_port = 2;
    udp.payload = Bytes(8, 0xab);
    spec.payload = udp.serialize(spec.src, spec.dst);
    Bytes d = build_datagram(spec);
    Bytes longer = d;
    longer[5] = static_cast<std::uint8_t>(longer[5] + 40);  // payload len lie
    add("datagram-payload-lie.hex", FuzzProto::kDatagram, "truncated",
        std::move(longer));
    Bytes shorter = d;
    shorter[5] = static_cast<std::uint8_t>(shorter[5] - 4);
    add("datagram-overlength.hex", FuzzProto::kDatagram, "overlength",
        std::move(shorter));
  }

  // --- UDP ---------------------------------------------------------------
  {
    UdpDatagram udp;
    udp.src_port = 7;
    udp.dst_port = 8;
    udp.payload = Bytes(4, 0x11);
    Bytes wire = udp.serialize(fuzz_src(), fuzz_dst());
    add("udp-truncated.hex", FuzzProto::kUdp, "truncated",
        truncated(wire, 5));
    Bytes bad = udp.serialize(fuzz_src(), fuzz_dst());
    bad[6] ^= 0xff;  // checksum
    add("udp-bad-checksum.hex", FuzzProto::kUdp, "bad-checksum",
        std::move(bad));
  }

  // --- RIPng --------------------------------------------------------------
  {
    std::vector<RipngRte> rtes;
    rtes.push_back(RipngRte{Prefix::parse("2001:db8:1::/64"), 1});
    Bytes wire = ripng_response_payload(rtes);
    add("ripng-ragged.hex", FuzzProto::kRipng, "truncated",
        truncated(wire, wire.size() - 3));
    Bytes badlen = ripng_response_payload(rtes);
    badlen[22] = 200;  // prefix length > 128
    add("ripng-bad-prefix-len.hex", FuzzProto::kRipng, "semantic",
        std::move(badlen));
  }

  return out;
}

int run(const std::string& dir) {
  std::vector<Entry> entries = build_entries();
  bool ok = true;
  for (const Entry& e : entries) {
    std::string got = classify(e.proto, e.octets);
    if (got != e.expected) {
      std::cerr << e.file << ": expected " << e.expected << ", decoder says "
                << got << "\n";
      ok = false;
    }
  }
  if (!ok) return 1;

  std::ofstream manifest(dir + "/MANIFEST");
  if (!manifest) {
    std::cerr << "cannot write to " << dir << " (does it exist?)\n";
    return 1;
  }
  manifest << "# <file> <protocol> <expected classification>\n"
           << "# Regenerate with mip6_make_corpus (tests/fuzz/make_corpus.cpp);\n"
           << "# corpus_replay_test replays every entry byte-exact.\n";
  for (const Entry& e : entries) {
    std::ofstream f(dir + "/" + e.file);
    f << to_hex(e.octets) << "\n";
    manifest << e.file << " " << fuzz_proto_name(e.proto) << " " << e.expected
             << "\n";
  }
  std::cout << "wrote " << entries.size() << " corpus frames to " << dir
            << "\n";
  return 0;
}

}  // namespace
}  // namespace mip6

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: mip6_make_corpus <output-dir>\n";
    return 2;
  }
  return mip6::run(argv[1]);
}
