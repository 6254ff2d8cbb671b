#include "core/metrics.hpp"

#include "core/traffic.hpp"
#include "ipv6/datagram.hpp"

namespace mip6 {

McastMetrics::McastMetrics(Network& net, GlobalRouting& routing, Address group,
                           std::uint16_t data_port)
    : net_(&net), routing_(&routing), group_(group), data_port_(data_port) {
  net.add_tx_hook(
      [this](const Link& link, const Interface&, const Packet& pkt) {
        on_tx(link, pkt);
      });
}

void McastMetrics::update_reference_tree(
    LinkId source_link, const std::vector<LinkId>& member_links) {
  std::size_t tree =
      routing_->shortest_path_tree(source_link, member_links).size();
  std::lock_guard<std::mutex> lock(mu_);
  reference_tree_links_ = tree;
  // The tree includes the source link itself; data already exists there, so
  // the cost in *additional* transmissions excludes it — but the source's
  // own transmission onto its link is counted in actual_bytes_, so keep the
  // source link in the reference for a like-for-like comparison.
}

void McastMetrics::on_tx(const Link& link, const Packet& pkt) {
  ParseResult<ParsedDatagram> outer = try_parse_datagram(pkt.view());
  if (!outer.ok()) return;
  const bool tunneled = outer.value().protocol == proto::kIpv6;
  // Both parses view into pkt's octets.
  ParseResult<ParsedDatagram> d =
      tunneled ? try_parse_datagram(outer.value().payload) : std::move(outer);
  if (!d.ok()) return;
  const ParsedDatagram& data = d.value();
  if (!(data.hdr.dst == group_) || data.protocol != proto::kUdp) return;

  ParseResult<UdpDatagram> udp =
      UdpDatagram::try_parse(data.payload, data.hdr.src, data.hdr.dst);
  if (!udp.ok() || udp.value().dst_port != data_port_) return;
  ParseResult<CbrPayload> payload = CbrPayload::try_decode(udp.value().payload);
  if (!payload.ok()) return;

  const Time now = net_->now();
  std::lock_guard<std::mutex> lock(mu_);
  ++data_tx_;
  actual_bytes_ += pkt.size();
  if (tunneled) tunneled_bytes_ += pkt.size();

  if (seen_seqs_.insert(payload.value().seq).second) {
    // First appearance of this application datagram anywhere: charge the
    // ideal tree cost using the native (untunneled) wire size.
    std::size_t native_size = Ipv6Header::kSize + data.payload.size();
    optimal_bytes_ +=
        static_cast<std::uint64_t>(native_size) * reference_tree_links_;
  }

  LinkStats& ls = per_link_[link.id()];
  ls.tx += 1;
  ls.bytes += pkt.size();
  // Shards inside one window advance time independently; keep the maximum
  // so "last transmission" is monotone regardless of hook arrival order.
  if (ls.last_tx.is_never() || now > ls.last_tx) ls.last_tx = now;
}

Time McastMetrics::last_data_tx_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? Time::never() : it->second.last_tx;
}

std::uint64_t McastMetrics::data_tx_count_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? 0 : it->second.tx;
}

std::uint64_t McastMetrics::data_bytes_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? 0 : it->second.bytes;
}

}  // namespace mip6
