#include "core/describe.hpp"

#include "net/link.hpp"

#include <optional>
#include <vector>

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

std::string describe_icmpv6(const ParsedDatagram& d) {
  ParseResult<Icmpv6Message> icmp =
      Icmpv6Message::try_parse(d.payload, d.hdr.src, d.hdr.dst);
  if (!icmp.ok()) return "ICMPv6 <malformed>";
  const std::uint8_t type = icmp.value().type;
  if (type != icmpv6::kMldQuery && type != icmpv6::kMldReport &&
      type != icmpv6::kMldDone) {
    return "ICMPv6 type=" + std::to_string(type);
  }
  ParseResult<MldMessage> mld = MldMessage::try_from_icmpv6(icmp.value());
  if (!mld.ok()) return "ICMPv6 <malformed>";
  const MldMessage& m = mld.value();
  switch (m.type) {
    case MldType::kQuery:
      return m.is_general_query()
                 ? "MLD GeneralQuery maxdelay=" +
                       std::to_string(m.max_response_delay_ms) + "ms"
                 : "MLD Query group=" + m.group.str();
    case MldType::kReport:
      return "MLD Report group=" + m.group.str();
    case MldType::kDone:
      return "MLD Done group=" + m.group.str();
  }
  return "ICMPv6 type=" + std::to_string(type);
}

std::string sg_str(const Address& source, const Address& group) {
  return "(" + source.str() + "," + group.str() + ")";
}

/// The PIM-DM (version 2) message in `h`, or nullopt if its body is
/// malformed.
std::optional<std::string> describe_pim_body(const PimHeader& h) {
  const PimType type = static_cast<PimType>(h.type);
  switch (type) {
    case PimType::kHello: {
      ParseResult<PimHello> m = PimHello::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      return "PIM Hello holdtime=" + std::to_string(m.value().holdtime) + "s";
    }
    case PimType::kJoinPrune:
    case PimType::kGraft:
    case PimType::kGraftAck: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      const PimJoinPrune& jp = m.value();
      const char* kind = type == PimType::kJoinPrune ? "Join/Prune"
                         : type == PimType::kGraft   ? "Graft"
                                                     : "GraftAck";
      std::string out = std::string("PIM ") + kind +
                        " up=" + jp.upstream_neighbor.str();
      for (const auto& g : jp.groups) {
        for (const auto& s : g.joined_sources) out += " J" + sg_str(s, g.group);
        for (const auto& s : g.pruned_sources) out += " P" + sg_str(s, g.group);
      }
      return out;
    }
    case PimType::kAssert: {
      ParseResult<PimAssert> m = PimAssert::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      const PimAssert& a = m.value();
      return "PIM Assert " + sg_str(a.source, a.group) +
             " pref=" + std::to_string(a.metric_preference) +
             " metric=" + std::to_string(a.metric);
    }
    case PimType::kStateRefresh: {
      ParseResult<PimStateRefresh> m = PimStateRefresh::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      const PimStateRefresh& sr = m.value();
      return "PIM StateRefresh " + sg_str(sr.source, sr.group) +
             " ttl=" + std::to_string(sr.ttl) +
             (sr.prune_indicator ? " P" : "");
    }
  }
  return "PIM type=" + std::to_string(h.type);
}

/// The HPIM-DM (version 3) message in `h`, or nullopt if its body is
/// malformed.
std::optional<std::string> describe_hpim_body(const PimHeader& h) {
  switch (static_cast<HpimType>(h.type)) {
    case HpimType::kHello: {
      ParseResult<HpimHello> m = HpimHello::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      return "HPIM Hello holdtime=" + std::to_string(m.value().holdtime) +
             "s gen=" + std::to_string(m.value().generation_id);
    }
    case HpimType::kAck: {
      ParseResult<HpimAck> m = HpimAck::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      return "HPIM Ack seq=" + std::to_string(m.value().seq);
    }
    case HpimType::kInterest: {
      ParseResult<HpimInterest> m = HpimInterest::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      const HpimInterest& i = m.value();
      return "HPIM Interest seq=" + std::to_string(i.seq) + " " +
             sg_str(i.source, i.group) +
             (i.interested ? " interested" : " not-interested");
    }
    case HpimType::kSync: {
      ParseResult<HpimSync> m = HpimSync::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      return "HPIM Sync seq=" + std::to_string(m.value().seq) +
             " entries=" + std::to_string(m.value().entries.size()) +
             (m.value().more ? " more" : "");
    }
    case HpimType::kAssert: {
      ParseResult<HpimAssert> m = HpimAssert::try_parse(h.body);
      if (!m.ok()) return std::nullopt;
      const HpimAssert& a = m.value();
      return "HPIM Assert " + sg_str(a.source, a.group) +
             " pref=" + std::to_string(a.metric_preference) +
             " metric=" + std::to_string(a.metric);
    }
  }
  return std::nullopt;  // try_parse_pim bounds the HPIM type nibble
}

/// Both engines' frames share IP protocol 103; the version nibble picks
/// the decoder.
std::string describe_pim(const ParsedDatagram& d) {
  const bool hpim = !d.payload.empty() && (d.payload[0] >> 4) == kHpimVersion;
  ParseResult<PimHeader> h = try_parse_pim(hpim ? kHpimVersion : kPimVersion,
                                           d.payload, d.hdr.src, d.hdr.dst);
  std::optional<std::string> out;
  if (h.ok()) {
    out = hpim ? describe_hpim_body(h.value()) : describe_pim_body(h.value());
  }
  if (out) return *out;
  return hpim ? "HPIM <malformed>" : "PIM <malformed>";
}

std::string describe_udp(const ParsedDatagram& d) {
  ParseResult<UdpDatagram> u =
      UdpDatagram::try_parse(d.payload, d.hdr.src, d.hdr.dst);
  if (!u.ok()) return "UDP <malformed>";
  if (u.value().dst_port == kRipngPort) {
    ParseResult<std::vector<RipngRte>> rtes =
        try_parse_ripng_response(u.value().payload);
    if (rtes.ok()) {
      return "RIPng Response " + std::to_string(rtes.value().size()) +
             " routes";
    }
  }
  return "UDP " + std::to_string(u.value().src_port) + "->" +
         std::to_string(u.value().dst_port) + " (" +
         std::to_string(u.value().payload.size()) + " B)";
}

std::string describe_options(const ParsedDatagram& d) {
  std::string out;
  for (const auto& o : d.dest_options) {
    switch (o.type) {
      case opt::kBindingUpdate: {
        ParseResult<BindingUpdateOption> bu = BindingUpdateOption::try_decode(o);
        if (!bu.ok()) {
          out += " BU<malformed>";
          break;
        }
        out += " BU seq=" + std::to_string(bu.value().sequence) +
               " life=" + std::to_string(bu.value().lifetime_s) + "s";
        if (const BuSubOption* sub =
                bu.value().find_sub_option(subopt::kMulticastGroupList)) {
          ParseResult<MulticastGroupListSubOption> list =
              MulticastGroupListSubOption::try_decode(*sub);
          out += list.ok()
                     ? " groups=" + std::to_string(list.value().groups.size())
                     : " BU<malformed>";
        }
        break;
      }
      case opt::kBindingAck:
        out += " BAck";
        break;
      case opt::kHomeAddress: {
        ParseResult<HomeAddressOption> home = HomeAddressOption::try_decode(o);
        out += home.ok() ? " Home=" + home.value().home_address.str()
                         : " Home<malformed>";
        break;
      }
      default:
        out += " opt" + std::to_string(o.type);
    }
  }
  return out;
}

}  // namespace

std::string describe_datagram(BytesView wire) {
  ParseResult<ParsedDatagram> parsed = try_parse_datagram(wire);
  if (!parsed.ok()) {
    return "<malformed datagram: " + parsed.failure().str() + ">";
  }
  const ParsedDatagram& d = parsed.value();
  std::string out = "IPv6 " + d.hdr.src.str() + " -> " + d.hdr.dst.str() +
                    " hl=" + std::to_string(d.hdr.hop_limit);
  out += describe_options(d);
  out += " | ";
  switch (d.protocol) {
    case proto::kUdp:
      out += describe_udp(d);
      break;
    case proto::kIcmpv6:
      out += describe_icmpv6(d);
      break;
    case proto::kPim:
      out += describe_pim(d);
      break;
    case proto::kIpv6:
      out += "tunnel[ " + describe_datagram(d.payload) + " ]";
      break;
    case proto::kNoNext:
      out += "(no payload)";
      break;
    default:
      out += "proto=" + std::to_string(d.protocol) + " (" +
             std::to_string(d.payload.size()) + " B)";
  }
  return out;
}

std::string describe_link(const Link& link) {
  std::string out = link.name() + ": " + (link.up() ? "up" : "DOWN");
  const LinkImpairment& imp = link.impairment();
  if (imp.loss > 0.0) {
    out += " loss=" + std::to_string(static_cast<int>(imp.loss * 100)) + "%";
  }
  if (imp.corrupt > 0.0) {
    out +=
        " corrupt=" + std::to_string(static_cast<int>(imp.corrupt * 100)) + "%";
  }
  if (imp.jitter > Time::zero()) {
    out += " jitter=" + std::to_string(imp.jitter.to_millis()) + "ms";
  }
  out += " tx=" + std::to_string(link.tx_packets()) +
         " rx=" + std::to_string(link.rx_packets()) +
         " dropped=" + std::to_string(link.dropped_packets()) +
         " corrupted=" + std::to_string(link.corrupted_packets());
  return out;
}

}  // namespace mip6
