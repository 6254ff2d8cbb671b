// The dense-mode engine skeleton both control planes are written on.
//
// PIM-DM (soft-state flood-and-prune) and HPIM-DM (hard-state reliable
// interest sync) keep the same (S,G) entries, the same RPF check and the
// same data path; they differ in how a downstream interface's oif-list
// membership is decided and in what they tell their neighbors. This core
// owns everything they share:
//
//   * the stack, MLD and trace-component handles and the DenseForwarder;
//   * the configured-interface set, the per-interface hello timer and
//     neighbor map (start/stop/reset, enable_iface, neighbors);
//   * the (S,G) table and every read of it (introspection, in_oiflist,
//     wants_traffic, downstream-record materialization, deletion, the
//     local-receiver pins and the MLD fan-out over a group's entries);
//   * the RPF anchoring create_entry() and the data-path re-anchor share,
//     and the Assert election, emission and assert-loser timer;
//   * control-message emission: PIM-family framing (pimdm/messages.hpp)
//     with the engine's version nibble, and the <kind>/tx-bytes counter;
//   * the on_multicast_data() skeleton: source check, flow-cache hit,
//     find-or-create, RPF re-anchor, the wrong-interface split (assert
//     when the arrival interface is in the oif list, the engine's non-RPF
//     action otherwise), the miss forward, and the engine's
//     nothing-downstream action.
//
// An engine derives as `class E final : public DenseEngineCore<E, Entry,
// Neighbor>` and supplies its hooks as (private, befriended) members:
//
//   bool oif_active(const Entry&, IfaceId, const Downstream&) const;
//   void update_upstream(Entry&);           // prune/graft or re-declare
//   void on_nonrpf_data(Entry&, IfaceId);   // arrival on a non-RPF non-oif
//   void on_nothing_downstream(Entry&);     // miss with an empty oif set
//   void send_hello(IfaceId);
//   Address source_address(IfaceId) const;  // control-message source
//   static constexpr std::uint8_t kVersion;  // PIM-family version nibble
//   using AssertMessage = ...;  // and `static constexpr kAssertType`
//   void on_control_message(const ParsedDatagram&, IfaceId);
//   const Config& config() const;  // hello_period, data_timeout,
//                                  // metric_preference, assert_time,
//                                  // assert_rate_limit
//
// and optionally hides the no-op defaults on_entry_created(),
// on_rpf_changed(), on_shutdown() and on_mld_change(). Every hook is
// reached through static_cast<Derived&>: neither the flow-cache hit path
// nor the miss path makes a virtual call.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipv6/stack.hpp"
#include "mld/router.hpp"
#include "pimdm/dense_engine.hpp"
#include "pimdm/dense_forwarder.hpp"
#include "pimdm/messages.hpp"
#include "sim/timer.hpp"
#include "util/errors.hpp"

namespace mip6 {

/// Per-downstream-interface state both engines keep; each engine's record
/// derives from it.
struct DenseDownstream {
  bool assert_loser = false;
  std::unique_ptr<Timer> assert_timer;
  Time last_assert_tx = Time::never();
};

/// The engine-neutral part of an (S,G) entry: the RPF anchor, the best
/// Assert heard on the incoming interface, and the candidate oifs.
template <typename Downstream>
struct DenseEntry : DenseFlow {
  using DownstreamRecord = Downstream;
  Address rpf_neighbor;  // unspecified when we are the first-hop router
  std::uint32_t rpf_metric = 0;
  // Best assert heard on the incoming interface so far; the winner of the
  // election becomes the RPF neighbor (order-independent).
  std::uint32_t assert_winner_pref = 0;
  std::uint32_t assert_winner_metric = 0;
  Address assert_winner_addr;
  std::map<IfaceId, std::unique_ptr<Downstream>> downstream;
};

template <typename Derived, typename Entry, typename Neighbor>
class DenseEngineCore : public DenseModeEngine {
 public:
  using Downstream = typename Entry::DownstreamRecord;
  struct IfaceState {
    std::unique_ptr<Timer> hello_timer;
    std::map<Address, Neighbor> neighbors;
  };

  // --- ProtocolModule ----------------------------------------------------
  /// Re-enables the engine on every configured interface that is
  /// currently attached (cold boot after a restart).
  void start() override;
  /// Deliberate reset (and, unless the engine overrides on_crash, crash):
  /// shutdown().
  void reset() override { shutdown(); }
  /// Teardown: shutdown() plus releasing the stack and MLD hooks this
  /// engine installed.
  void stop() override;

  /// Drops every (S,G) entry, every neighbor, all timers and all
  /// local-receiver pins; the configured-interface set survives.
  void shutdown();

  // --- DenseModeEngine ----------------------------------------------------
  void enable_iface(IfaceId iface) override;
  std::vector<IfaceId> enabled_ifaces() const override;
  void add_local_receiver(const Address& group) override {
    fwd_.add_local_receiver(group);
  }
  void remove_local_receiver(const Address& group) override {
    fwd_.remove_local_receiver(group);
  }
  bool is_local_receiver(const Address& group) const override {
    return fwd_.is_local_receiver(group);
  }
  std::size_t entry_count() const override { return entries_.size(); }
  std::size_t mfc_entries() const override { return fwd_.cache_size(); }
  std::vector<SgKey> sg_keys() const override;
  bool has_entry(const Address& src, const Address& group) const override {
    return entries_.contains(SgKey{src, group});
  }
  Address rpf_neighbor_of(const Address& src,
                          const Address& group) const override {
    return existing(src, group).rpf_neighbor;
  }
  bool assert_loser(const Address& src, const Address& group,
                    IfaceId iface) const override;
  std::vector<IfaceId> outgoing(const Address& src,
                                const Address& group) const override;
  IfaceId incoming(const Address& src, const Address& group) const override {
    return existing(src, group).incoming;
  }
  std::vector<Address> neighbors(IfaceId iface) const override;

 protected:
  /// `kind` ("pimdm", "hpimdm") scopes counters and trace records; `mfc`
  /// selects the cached data plane (WorldConfig::mfc).
  DenseEngineCore(Ipv6Stack& stack, MldRouter& mld, std::string_view kind,
                  Time data_timeout, bool mfc);

  Entry* find_entry(const Address& src, const Address& group);
  const Entry* find_entry(const Address& src, const Address& group) const;
  /// New entry anchored on the RIB's route toward `src` (nullptr, counted,
  /// without one), forwarding by default onto every enabled interface but
  /// the incoming one.
  Entry* create_entry(const Address& src, const Address& group);
  void delete_entry(const SgKey& key);
  /// The record for `iface`, materialized (and the cache invalidated) if
  /// absent.
  Downstream& downstream(Entry& e, IfaceId iface);
  /// Allocation-free "is this interface in e's oif list?".
  bool in_oiflist(const Entry& e, IfaceId iface) const;
  /// True when a local receiver pins the group or any oif is active.
  bool wants_traffic(const Entry& e) const;
  bool has_neighbors(IfaceId iface) const;
  bool iface_enabled(IfaceId iface) const { return ifaces_.contains(iface); }

  /// MLD fan-out: invalidates every entry of `group` and re-evaluates its
  /// upstream state; a listener appearing materializes its interface's
  /// downstream record first.
  void on_mld_change(IfaceId iface, const Address& group, bool present);
  /// The group's first local-receiver pin appeared or its last went away.
  void on_local_receivers_changed(const Address& group);

  /// Assert election order: the lower metric preference wins, then the
  /// lower metric, then the higher address; an unspecified `addr` (no
  /// winner heard yet) loses the tie.
  template <typename Assert>
  static bool assert_beats(const Assert& a, const Address& from,
                           std::uint32_t pref, std::uint32_t metric,
                           const Address& addr) {
    if (a.metric_preference != pref) return a.metric_preference < pref;
    if (a.metric != metric) return a.metric < metric;
    return addr.is_unspecified() || from > addr;
  }
  /// Downstream observer on the incoming interface: an Assert that beats
  /// the best one heard so far makes its sender the RPF neighbor ("store
  /// the elected forwarder"), whatever the arrival order. True if it did.
  template <typename Assert>
  bool observe_assert(Entry& e, const Assert& a, const Address& from);
  /// Sends a `type` control message (the engine's PimType / HpimType) from
  /// the engine's source address on `iface`, hop limit 1.
  template <typename Type>
  void emit(IfaceId iface, Type type, BytesView body, const Address& dst);
  /// Claims the forwarder role on `iface` with an Assert carrying our
  /// preference and RPF metric, at most once per assert_rate_limit.
  void send_assert(Entry& e, IfaceId iface);
  /// We lost the Assert on `iface` to `winner`: the interface leaves the
  /// oif list for assert_time (re-armed by every loss).
  void lose_assert(Entry& e, Downstream& d, IfaceId iface,
                   const Address& winner);

  // No-op hook defaults; an engine hides the ones it needs.
  void on_entry_created(Entry&, const Route&) {}
  void on_rpf_changed(Entry&) {}
  void on_shutdown() {}

  void count(std::string_view name, std::uint64_t delta = 1) {
    stack_->network().counters().add(name, delta);
  }
  Time now() const { return stack_->network().now(); }
  Trace& trace() const { return stack_->network().trace(); }
  /// Lazy protocol-event trace; `detail_fn` only runs when a sink is
  /// installed, so this is free in benches.
  template <typename DetailFn>
  void trace_event(const char* event, DetailFn&& detail_fn) const {
    trace().emit(now(), component_, event, std::forward<DetailFn>(detail_fn));
  }

  Ipv6Stack* stack_;
  MldRouter* mld_;
  std::string component_;  // "<kind>/<node>", cached for trace records
  std::string tx_bytes_counter_;  // "<kind>/tx-bytes"
  /// The MFC data plane; the engine only decides and invalidates.
  DenseForwarder fwd_;
  /// Every interface enable_iface() was ever called for (restart wiring).
  std::set<IfaceId> configured_;
  std::map<IfaceId, IfaceState> ifaces_;
  std::map<SgKey, std::unique_ptr<Entry>> entries_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  void on_multicast_data(const ParsedDatagram& d, const Packet& pkt,
                         IfaceId iface);
  /// Points `e` at `route`: incoming interface, RPF neighbor and metric,
  /// and an Assert-winner baseline of our own preference and metric.
  void anchor(Entry& e, const Route& route);
  const Entry& existing(const Address& src, const Address& group) const;

  CounterCell c_assert_lost_;
  CounterCell c_rpf_fail_;
  CounterCell c_rpf_updated_;
  CounterCell c_rx_wrong_iface_;
  CounterCell c_sg_created_;
  CounterCell c_sg_expired_;
  CounterCell c_shutdown_;
  CounterCell c_tx_assert_;
};

// ---------------------------------------------------------------------------

template <typename D, typename E, typename N>
DenseEngineCore<D, E, N>::DenseEngineCore(Ipv6Stack& stack, MldRouter& mld,
                                          std::string_view kind,
                                          Time data_timeout, bool mfc)
    : stack_(&stack), mld_(&mld),
      component_(std::string(kind) + "/" + stack.node().name()),
      tx_bytes_counter_(std::string(kind) + "/tx-bytes"),
      fwd_(stack, kind, data_timeout, mfc,
           [this](const Address& g) { on_local_receivers_changed(g); }) {
  auto cell = [&](std::string_view name) {
    return stack.network().counters().cell(std::string(kind) + "/" +
                                           std::string(name));
  };
  c_assert_lost_ = cell("assert-lost");
  c_rpf_fail_ = cell("rpf-fail");
  c_rpf_updated_ = cell("rpf-updated");
  c_rx_wrong_iface_ = cell("rx-wrong-iface");
  c_sg_created_ = cell("sg-created");
  c_sg_expired_ = cell("sg-expired");
  c_shutdown_ = cell("shutdown");
  c_tx_assert_ = cell("tx/assert");
  stack.set_mcast_forwarder(
      [this](const ParsedDatagram& d, const Packet& pkt, IfaceId iface) {
        on_multicast_data(d, pkt, iface);
      });
  stack.set_proto_handler(
      proto::kPim,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        derived().on_control_message(d, iface);
      });
  mld.set_group_callback(
      [this](IfaceId iface, const Address& group, bool present) {
        derived().on_mld_change(iface, group, present);
      });
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::start() {
  for (const auto& ifp : stack_->node().interfaces()) {
    if (ifp->attached() && configured_.contains(ifp->id())) {
      enable_iface(ifp->id());
    }
  }
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::stop() {
  shutdown();
  stack_->clear_mcast_forwarder();
  stack_->clear_proto_handler(proto::kPim);
  mld_->set_group_callback(nullptr);
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::shutdown() {
  fwd_.clear();  // cached timer pointers are about to dangle
  // unique_ptr destruction cancels every entry, downstream, hello and
  // neighbor timer.
  entries_.clear();
  ifaces_.clear();
  derived().on_shutdown();
  c_shutdown_.add();
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::enable_iface(IfaceId iface) {
  fwd_.enable_iface(iface);  // fail-fast on width overflow
  configured_.insert(iface);
  auto [it, fresh] = ifaces_.try_emplace(iface);
  if (!fresh) return;
  it->second.hello_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface] {
        derived().send_hello(iface);
        ifaces_.at(iface).hello_timer->arm(derived().config().hello_period);
      }, stack_->node().domain());
  // First hello immediately (triggered hello on interface up).
  it->second.hello_timer->arm(Time::zero());
}

template <typename D, typename E, typename N>
std::vector<IfaceId> DenseEngineCore<D, E, N>::enabled_ifaces() const {
  std::vector<IfaceId> out;
  for (const auto& [iface, st] : ifaces_) out.push_back(iface);
  return out;
}

template <typename D, typename E, typename N>
std::vector<DenseModeEngine::SgKey> DenseEngineCore<D, E, N>::sg_keys() const {
  std::vector<SgKey> out;
  for (const auto& [key, e] : entries_) out.push_back(key);
  return out;
}

template <typename D, typename E, typename N>
bool DenseEngineCore<D, E, N>::assert_loser(const Address& src,
                                            const Address& group,
                                            IfaceId iface) const {
  const E* e = find_entry(src, group);
  if (e == nullptr) return false;
  auto it = e->downstream.find(iface);
  return it != e->downstream.end() && it->second->assert_loser;
}

template <typename D, typename E, typename N>
std::vector<IfaceId> DenseEngineCore<D, E, N>::outgoing(
    const Address& src, const Address& group) const {
  const E* e = find_entry(src, group);
  if (e == nullptr) return {};
  return DenseForwarder::oiflist(*e, [&](IfaceId i, const Downstream& d) {
    return derived().oif_active(*e, i, d);
  });
}

template <typename D, typename E, typename N>
std::vector<Address> DenseEngineCore<D, E, N>::neighbors(IfaceId iface) const {
  std::vector<Address> out;
  auto it = ifaces_.find(iface);
  if (it != ifaces_.end()) {
    for (const auto& [addr, nbr] : it->second.neighbors) out.push_back(addr);
  }
  return out;
}

template <typename D, typename E, typename N>
bool DenseEngineCore<D, E, N>::has_neighbors(IfaceId iface) const {
  auto it = ifaces_.find(iface);
  return it != ifaces_.end() && !it->second.neighbors.empty();
}

template <typename D, typename E, typename N>
E* DenseEngineCore<D, E, N>::find_entry(const Address& src,
                                        const Address& group) {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

template <typename D, typename E, typename N>
const E* DenseEngineCore<D, E, N>::find_entry(const Address& src,
                                              const Address& group) const {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

template <typename D, typename E, typename N>
const E& DenseEngineCore<D, E, N>::existing(const Address& src,
                                            const Address& group) const {
  const E* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  return *e;
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::anchor(E& e, const Route& route) {
  e.incoming = route.out_iface;
  e.rpf_neighbor = route.next_hop;  // unspecified when source is on-link
  e.rpf_metric = route.metric;
  e.assert_winner_pref = derived().config().metric_preference;
  e.assert_winner_metric = route.metric;
  e.assert_winner_addr = Address();
}

template <typename D, typename E, typename N>
E* DenseEngineCore<D, E, N>::create_entry(const Address& src,
                                          const Address& group) {
  const Route* route = stack_->rib().lookup(src);
  if (route == nullptr) {
    c_rpf_fail_.add();
    return nullptr;
  }
  auto e = std::make_unique<E>();
  e->source = src;
  e->group = group;
  anchor(*e, *route);
  SgKey key{src, group};
  e->entry_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] { delete_entry(key); },
      stack_->node().domain());
  e->entry_timer->arm(derived().config().data_timeout);
  // Dense mode: every enabled interface but the incoming one starts as a
  // candidate oif; the engine's oif_active() decides which forward.
  for (const auto& [iface, st] : ifaces_) {
    if (iface == e->incoming) continue;
    e->downstream.emplace(iface, std::make_unique<Downstream>());
  }
  derived().on_entry_created(*e, *route);
  E* raw = e.get();
  entries_.emplace(key, std::move(e));
  c_sg_created_.add();
  trace_event("sg-created", [&] {
    return "src=" + src.str() + " group=" + group.str() + " iif=" +
           std::to_string(raw->incoming);
  });
  return raw;
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::delete_entry(const SgKey& key) {
  // Before erase: the cached data-timer pointer dies here.
  fwd_.invalidate(key.source, key.group);
  if (entries_.erase(key) > 0) {
    c_sg_expired_.add();
    trace_event("sg-expired", [&] {
      return "src=" + key.source.str() + " group=" + key.group.str();
    });
  }
}

template <typename D, typename E, typename N>
typename DenseEngineCore<D, E, N>::Downstream&
DenseEngineCore<D, E, N>::downstream(E& e, IfaceId iface) {
  auto it = e.downstream.find(iface);
  if (it == e.downstream.end()) {
    it = e.downstream.emplace(iface, std::make_unique<Downstream>()).first;
    // A freshly materialized record can join the oif set (dense-mode
    // default: forwarding until told otherwise).
    fwd_.invalidate(e);
  }
  return *it->second;
}

template <typename D, typename E, typename N>
bool DenseEngineCore<D, E, N>::in_oiflist(const E& e, IfaceId iface) const {
  auto it = e.downstream.find(iface);
  return it != e.downstream.end() &&
         derived().oif_active(e, iface, *it->second);
}

template <typename D, typename E, typename N>
bool DenseEngineCore<D, E, N>::wants_traffic(const E& e) const {
  if (fwd_.is_local_receiver(e.group)) return true;
  for (const auto& [iface, d] : e.downstream) {
    if (derived().oif_active(e, iface, *d)) return true;
  }
  return false;
}

template <typename D, typename E, typename N>
template <typename Assert>
bool DenseEngineCore<D, E, N>::observe_assert(E& e, const Assert& a,
                                              const Address& from) {
  if (!assert_beats(a, from, e.assert_winner_pref, e.assert_winner_metric,
                    e.assert_winner_addr)) {
    return false;
  }
  e.assert_winner_pref = a.metric_preference;
  e.assert_winner_metric = a.metric;
  e.assert_winner_addr = from;
  e.rpf_neighbor = from;
  return true;
}

template <typename D, typename E, typename N>
template <typename Type>
void DenseEngineCore<D, E, N>::emit(IfaceId iface, Type type, BytesView body,
                                    const Address& dst) {
  DatagramSpec spec;
  spec.src = derived().source_address(iface);
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(D::kVersion, static_cast<std::uint8_t>(type),
                               body, spec.src, spec.dst);
  std::size_t wire = Ipv6Header::kSize + spec.payload.size();
  stack_->send_on_iface(iface, spec);
  count(tx_bytes_counter_, wire);
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::send_assert(E& e, IfaceId iface) {
  Downstream& d = downstream(e, iface);
  if (!d.last_assert_tx.is_never() &&
      now() - d.last_assert_tx < derived().config().assert_rate_limit) {
    return;
  }
  d.last_assert_tx = now();
  typename D::AssertMessage a;
  a.group = e.group;
  a.source = e.source;
  a.metric_preference = derived().config().metric_preference;
  a.metric = e.rpf_metric;
  emit(iface, D::kAssertType, a.body(), Address::all_pim_routers());
  c_tx_assert_.add();
  trace_event("tx-assert", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() + " iface=" +
           std::to_string(iface);
  });
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::lose_assert(E& e, Downstream& d, IfaceId iface,
                                           const Address& winner) {
  d.assert_loser = true;
  fwd_.invalidate(e);
  c_assert_lost_.add();
  trace_event("assert-lost", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " iface=" + std::to_string(iface) + " winner=" + winner.str();
  });
  if (!d.assert_timer) {
    const SgKey key{e.source, e.group};
    d.assert_timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, key, iface] {
          E* en = find_entry(key.source, key.group);
          if (en == nullptr) return;
          auto dit = en->downstream.find(iface);
          if (dit != en->downstream.end()) {
            dit->second->assert_loser = false;
            fwd_.invalidate(key.source, key.group);
          }
        }, stack_->node().domain());
  }
  d.assert_timer->arm(derived().config().assert_time);
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::on_mld_change(IfaceId iface,
                                             const Address& group,
                                             bool present) {
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    if (present && iface != e->incoming) downstream(*e, iface);
    fwd_.invalidate(*e);
    derived().update_upstream(*e);
  }
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::on_local_receivers_changed(
    const Address& group) {
  // Existing entries of the group re-evaluate upstream: a pruned or
  // not-interested entry asks for traffic again, and the last pin's
  // removal may let it go.
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    fwd_.invalidate(*e);
    derived().update_upstream(*e);
  }
}

template <typename D, typename E, typename N>
void DenseEngineCore<D, E, N>::on_multicast_data(const ParsedDatagram& d,
                                                 const Packet& pkt,
                                                 IfaceId iface) {
  // Control traffic to link-scope groups is filtered before the forwarder
  // hook; only routable group data reaches this point.
  const Address& src = d.hdr.src;
  const Address& group = d.hdr.dst;
  if (src.is_multicast() || src.is_unspecified()) return;

  // Fast path: a fresh flow-cache entry holds the whole forwarding
  // decision; the state machines below are only consulted on a miss.
  if (fwd_.forward_hit(src, group, pkt, iface)) return;

  E* e = find_entry(src, group);
  if (e == nullptr) {
    e = create_entry(src, group);
    if (e == nullptr) return;
  }

  if (iface != e->incoming) {
    // RPF re-anchor: the unicast route toward S can move after the entry
    // was created (link repair, mobility, a post-restart RIB rebuild). If
    // the RIB now names this interface, follow it instead of treating good
    // data as misrouted.
    const Route* route = stack_->rib().lookup(src);
    if (route != nullptr && route->out_iface == iface) {
      anchor(*e, *route);
      e->downstream.erase(iface);  // the new incoming iface is not an oif
      fwd_.invalidate(*e);          // cached iif/bitmap are both stale now
      c_rpf_updated_.add();
      derived().on_rpf_changed(*e);
    }
  }

  if (iface != e->incoming) {
    // Arrived on an interface we forward onto: a duplicate forwarder on
    // this LAN (or, in the paper's mobile-sender case, a moved sender
    // emitting with a stale source onto a tree link), resolved by Assert.
    // Otherwise we are a non-RPF bystander and the engine asks the
    // forwarders on the link to stop.
    if (in_oiflist(*e, iface)) {
      send_assert(*e, iface);
    } else {
      derived().on_nonrpf_data(*e, iface);
    }
    c_rx_wrong_iface_.add();
    return;
  }

  // Miss path: rebuild and install the bitmap, forward. The next packet of
  // this flow hits the cache until a control-plane transition invalidates
  // it.
  if (fwd_.forward(*e, pkt, [&](IfaceId i, const Downstream& ds) {
        return derived().oif_active(*e, i, ds);
      })) {
    return;
  }
  derived().on_nothing_downstream(*e);
}

}  // namespace mip6
