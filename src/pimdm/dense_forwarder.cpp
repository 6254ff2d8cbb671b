#include "pimdm/dense_forwarder.hpp"

#include <utility>

namespace mip6 {

namespace {

FlowKey flow_key(const Address& src, const Address& group) {
  return FlowKey{{src.high64(), src.low64(), group.high64(), group.low64()}};
}

/// Inverse of Address::high64() / low64().
Address address_of(std::uint64_t high, std::uint64_t low) {
  std::uint8_t b[Address::kBytes];
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t half = i < 8 ? high : low;
    b[i] = static_cast<std::uint8_t>(half >> (56 - 8 * (i % 8)));
  }
  return Address::from_bytes(b);
}

}  // namespace

DenseForwarder::DenseForwarder(Ipv6Stack& stack, std::string_view engine,
                               Time data_timeout,
                               LocalReceiverHook on_local_change)
    : stack_(&stack), engine_(engine), data_timeout_(data_timeout),
      on_local_change_(std::move(on_local_change)),
      c_data_fwd_(stack.network().counters().cell(engine_ + "/data-fwd")),
      c_hit_(stack.network().counters().cell(engine_ + "/mfc-hit")),
      c_miss_(stack.network().counters().cell(engine_ + "/mfc-miss")) {}

bool DenseForwarder::forward_hit(const Address& src, const Address& group,
                                 const Packet& pkt, IfaceId iface) {
  // The arrival interface's mifi selects the cache sub-table, so
  // wrong-interface arrivals miss and fall through to the engine (assert
  // and non-RPF handling are control-plane work).
  const Mifi rpf = mifs_.lookup(iface);
  MfcEntry* m = rpf != kNoMif ? cache_.find(flow_key(src, group), rpf)
                              : nullptr;
  if (m == nullptr || m->iif != iface) {
    c_miss_.add();
    if (rpf != kNoMif) c_miss_if_[rpf].add();
    return false;
  }
  c_hit_.add();
  c_hit_if_[rpf].add();
  m->data_timer->arm(data_timeout_);
  c_data_fwd_.add(stack_->forward_out_many(pkt, m->oifs, mifs_));
  return true;
}

void DenseForwarder::invalidate(const Address& source, const Address& group) {
  cache_.invalidate(flow_key(source, group));
}

void DenseForwarder::clear() {
  cache_.clear();
  local_receivers_.clear();
}

void DenseForwarder::add_local_receiver(const Address& group) {
  if (++local_receivers_[group] == 1) on_local_change_(group);
}

void DenseForwarder::remove_local_receiver(const Address& group) {
  auto it = local_receivers_.find(group);
  if (it == local_receivers_.end() || --it->second > 0) return;
  local_receivers_.erase(it);
  on_local_change_(group);
}

Mifi DenseForwarder::mif_of(IfaceId iface) {
  Mifi m = mifs_.lookup(iface);
  if (m != kNoMif) return m;
  m = mifs_.add(iface);
  // Every later index moved up by one: bitmaps built under the old
  // numbering would transmit out the wrong interfaces.
  cache_.invalidate_all();
  auto& reg = stack_->network().counters();
  const std::string suffix = ".if" + std::to_string(iface);
  c_hit_if_.insert(c_hit_if_.begin() + m,
                   reg.cell(engine_ + "/mfc-hit" + suffix));
  c_miss_if_.insert(c_miss_if_.begin() + m,
                    reg.cell(engine_ + "/mfc-miss" + suffix));
  return m;
}

MfcEntry* DenseForwarder::install(const DenseFlow& f, const IfSet& oifs,
                                  std::uint16_t n) {
  if (n == 0 && !is_local_receiver(f.group)) {
    invalidate(f);
    return nullptr;
  }
  MfcEntry& m = cache_.insert(flow_key(f.source, f.group),
                              mifs_.lookup(f.incoming));
  m.iif = f.incoming;
  m.oif_count = n;
  m.oifs = oifs;
  m.data_timer = f.entry_timer.get();
  return &m;
}

std::vector<std::string> DenseForwarder::stale_slots(
    const std::function<const DenseFlow*(const Address&, const Address&)>&
        find,
    const std::function<std::vector<IfaceId>(const DenseFlow&)>& outgoing)
    const {
  auto str = [](const std::vector<IfaceId>& v) {
    std::string s = "{";
    for (IfaceId i : v) s += " " + std::to_string(i);
    return s + " }";
  };
  std::vector<std::string> out;
  cache_.for_each_fresh([&](Mifi rpf, const MfcEntry& m) {
    const Address source = address_of(m.key.w[0], m.key.w[1]);
    const Address group = address_of(m.key.w[2], m.key.w[3]);
    const DenseFlow* e = find(source, group);
    const std::vector<IfaceId> want =
        e != nullptr ? outgoing(*e) : std::vector<IfaceId>{};
    std::vector<IfaceId> cached;
    for (Mifi i = 0; i < mifs_.size(); ++i) {
      if (m.oifs.test(i)) cached.push_back(mifs_.iface(i));
    }
    const bool own_timer = e != nullptr && m.data_timer == e->entry_timer.get();
    if (own_timer && rpf == mifs_.lookup(e->incoming) &&
        m.iif == e->incoming && cached == want &&
        m.oif_count == m.oifs.count() &&
        (!cached.empty() || is_local_receiver(group))) {
      return;
    }
    std::string slot = "(" + source.str() + "," + group.str() +
                       ") slot in mif " + std::to_string(rpf) + ": iif " +
                       std::to_string(m.iif) + " oifs " + str(cached) +
                       " count " + std::to_string(m.oif_count);
    out.push_back(e == nullptr
                      ? slot + "; no (S,G) entry"
                      : slot + "; entry iif " + std::to_string(e->incoming) +
                            " oifs " + str(want) +
                            (own_timer ? "" : "; not the entry's data timer"));
  });
  return out;
}

}  // namespace mip6
