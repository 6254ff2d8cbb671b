// The dense-mode multicast data plane: one per router, owned by the
// DenseEngineCore both control planes share.
//
// PIM-DM and HPIM-DM differ only in how they decide an (S,G) entry's
// outgoing interfaces; forwarding is the same kernel-style MFC (the mroute6
// idiom: the routing daemon fills and flushes the cache with
// MRT6_ADD_MFC / MRT6_DEL_MFC, the kernel forwards from it). The
// forwarder owns that MFC: the dense interface indices, the
// per-RPF-interface (S,G) flow cache, the hit/miss counters and the
// local-receiver refcount. It knows no control plane: the caller passes
// the oif predicate into forward() and calls invalidate() on every
// transition that can change its answer; stale_slots() checks that it
// did, by comparing every fresh slot with the caller's own oif list.
//
// Hot path: forward_hit() is one cache probe, one data-timeout re-arm and
// one bitmap fan-out, with no virtual call and no allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ipv6/stack.hpp"
#include "net/mfc.hpp"
#include "sim/timer.hpp"

namespace mip6 {

/// The part of an (S,G) entry the data plane reads. DenseEntry
/// (dense_engine_core.hpp) derives from it and adds the `downstream` map
/// (IfaceId -> owning pointer to the engine's per-interface record) whose
/// keys are the candidate outgoing interfaces.
struct DenseFlow {
  Address source;
  Address group;
  IfaceId incoming = 0;
  std::unique_ptr<Timer> entry_timer;  // data timeout
};

class DenseForwarder {
 public:
  /// Called when `group` gains its first or loses its last local-receiver
  /// pin: the engine invalidates that group's entries and re-evaluates
  /// their upstream state.
  using LocalReceiverHook = std::function<void(const Address& group)>;

  /// `engine` prefixes the counters ("pimdm" -> "pimdm/mfc-hit").
  DenseForwarder(Ipv6Stack& stack, std::string_view engine, Time data_timeout,
                 LocalReceiverHook on_local_change);

  /// Registers `iface` in the mif table. Throws LogicError past
  /// IfSet::kBits interfaces rather than truncate oif sets.
  void enable_iface(IfaceId iface) { (void)mif_of(iface); }

  /// Fast path: forwards `pkt` from a fresh cache entry for (src, group)
  /// whose RPF interface is `iface`. False on a miss (counted): the engine
  /// then runs its state machine and, for an RPF arrival, forward().
  bool forward_hit(const Address& src, const Address& group,
                   const Packet& pkt, IfaceId iface);

  /// Miss tail for a datagram that arrived on `e.incoming`: re-arms the
  /// data timeout, rebuilds the entry's cached bitmap from
  /// `active(iface, record)` and forwards. False when no interface is
  /// active and no local receiver pins the group; the engine then quenches
  /// upstream, which is why that state is never cached.
  template <typename Entry, typename Active>
  bool forward(Entry& e, const Packet& pkt, Active&& active);

  /// Read-only coherence audit, one line per fresh slot that would forward
  /// differently from a miss. `find(source, group)` gives the engine's
  /// entry (nullptr: none) and `outgoing(entry)` its ascending oif list;
  /// a slot must match both (iif, bitmap, count, data timer), and be
  /// empty only while a local receiver pins the group.
  std::vector<std::string> stale_slots(
      const std::function<const DenseFlow*(const Address&, const Address&)>&
          find,
      const std::function<std::vector<IfaceId>(const DenseFlow&)>& outgoing)
      const;

  void invalidate(const Address& source, const Address& group);
  void invalidate(const DenseFlow& f) { invalidate(f.source, f.group); }
  void invalidate_all() { cache_.invalidate_all(); }
  /// Engine shutdown: drops every cache slot (the cached timers are about
  /// to dangle) and every local-receiver pin.
  void clear();
  /// Local-receiver pins are soft state of the caller that placed them; a
  /// crashed engine forgets them and the caller re-registers.
  void drop_local_receivers() { local_receivers_.clear(); }

  /// Reference-counted per group; see DenseModeEngine.
  void add_local_receiver(const Address& group);
  void remove_local_receiver(const Address& group);
  bool is_local_receiver(const Address& group) const {
    return local_receivers_.contains(group);
  }

  /// Occupied cache slots, stale ones included.
  std::size_t cache_size() const { return cache_.size(); }

 private:
  /// Registers `iface`; an insertion renumbers later indices, so it
  /// flushes the cache and re-slots the per-interface counter cells.
  Mifi mif_of(IfaceId iface);
  /// Installs the refilled bitmap; nullptr (and the entry invalidated)
  /// when it is empty and no local receiver pins the group.
  MfcEntry* install(const DenseFlow& f, const IfSet& oifs, std::uint16_t n);

  Ipv6Stack* stack_;
  std::string engine_;
  Time data_timeout_;
  LocalReceiverHook on_local_change_;
  /// Cells resolved once, so the hot path does no string work.
  CounterCell c_data_fwd_;
  CounterCell c_hit_;
  CounterCell c_miss_;
  /// "<engine>/mfc-hit.if<id>" / "...mfc-miss.if<id>", index = mifi.
  std::vector<CounterCell> c_hit_if_;
  std::vector<CounterCell> c_miss_if_;
  MifTable mifs_;
  ShardedFlowCache cache_;
  std::map<Address, int> local_receivers_;
};

template <typename Entry, typename Active>
bool DenseForwarder::forward(Entry& e, const Packet& pkt, Active&& active) {
  e.entry_timer->arm(data_timeout_);
  // Two passes: registering an interface can renumber the mif table (and
  // flush the cache), so register every candidate and the RPF interface,
  // whose mifi selects the cache sub-table, before building the bitmap.
  for (const auto& [iface, d] : e.downstream) (void)mif_of(iface);
  (void)mif_of(e.incoming);
  IfSet oifs;
  std::uint16_t n = 0;
  for (const auto& [iface, d] : e.downstream) {
    if (!active(iface, *d)) continue;
    oifs.set(mifs_.lookup(iface));
    ++n;
  }
  MfcEntry* m = install(e, oifs, n);
  if (m == nullptr) return false;
  c_data_fwd_.add(stack_->forward_out_many(pkt, m->oifs, mifs_));
  return true;
}


}  // namespace mip6
