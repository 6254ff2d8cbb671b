// PIM Dense Mode router engine (draft-ietf-pim-v2-dm-03 semantics).
//
// Broadcast-and-prune: the first datagram of a source creates an (S,G)
// entry whose outgoing list is every PIM interface with neighbors plus every
// interface with MLD listeners; routers with nothing downstream prune
// upstream (after which the upstream interface stays pruned for the prune
// holdtime, subject to a 3 s LAN prune delay during which another downstream
// router can send an overriding Join); new listeners trigger Grafts (reliable
// via Graft-Ack); duplicate forwarders on a LAN are resolved by Asserts; an
// (S,G) entry for a silent source expires after the 210 s data timeout.
//
// The paper's mobile-sender pathologies fall out of these rules: a moved
// sender's new care-of address creates a brand-new flooded tree, its stale
// packets on the new link hit forwarding outgoing interfaces and trigger
// Asserts, and the old tree lingers until the data timeout.
#pragma once

#include <memory>

#include "pimdm/config.hpp"
#include "pimdm/dense_engine_core.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {

enum class PimDmDownstreamState { kForwarding, kPrunePending, kPruned };

struct PimDmDownstream : DenseDownstream {
  PimDmDownstreamState state = PimDmDownstreamState::kForwarding;
  std::unique_ptr<Timer> prune_pending_timer;  // LAN prune delay
  std::unique_ptr<Timer> prune_expiry_timer;   // prune holdtime
  /// Rate limiter for prunes sent in response to non-RPF data arrivals.
  Time last_nonrpf_prune_tx = Time::never();
};

struct PimDmEntry : DenseEntry<PimDmDownstream> {
  bool upstream_pruned = false;  // we pruned ourselves off upstream
  Time last_prune_tx = Time::never();
  bool graft_pending = false;
  std::unique_ptr<Timer> graft_retry_timer;
  std::unique_ptr<Timer> join_override_timer;
  /// The upstream neighbor named by the prune we are overriding (may
  /// differ from rpf_neighbor when our RPF information is stale).
  Address join_override_target;
  /// Periodic State Refresh origination (first-hop routers only).
  std::unique_ptr<Timer> state_refresh_timer;
};

/// The core's per-interface neighbor map holds each PIM neighbor's
/// liveness timer.
class PimDmRouter final
    : public DenseEngineCore<PimDmRouter, PimDmEntry, std::unique_ptr<Timer>> {
 public:
  using DownstreamState = PimDmDownstreamState;

  PimDmRouter(Ipv6Stack& stack, MldRouter& mld, PimDmConfig config);

  const char* module_kind() const override { return "pimdm"; }

  /// True if this router pruned itself off the (S,G) tree upstream.
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  DownstreamState downstream_state(const Address& src, const Address& group,
                                   IfaceId iface) const;
  /// Engine-neutral form of downstream_state(): true iff kPruned.
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  const PimDmConfig& config() const { return config_; }

 private:
  using Core =
      DenseEngineCore<PimDmRouter, PimDmEntry, std::unique_ptr<Timer>>;
  friend Core;
  using SgEntry = PimDmEntry;
  using AssertMessage = PimAssert;
  static constexpr PimType kAssertType = PimType::kAssert;
  static constexpr std::uint8_t kVersion = kPimVersion;

  // Core hooks (dense_engine_core.hpp).
  void on_control_message(const PimHeader& h, const Address& from,
                          IfaceId iface);
  bool oif_active(const SgEntry& e, IfaceId iface, const Downstream& d) const;
  void update_upstream(SgEntry& e);
  void on_entry_created(SgEntry& e, const Route& route);
  void on_nonrpf_data(SgEntry& e, IfaceId iface);
  void on_nothing_downstream(SgEntry& e);

  // Control plane.
  void on_hello(const PimHello& hello, const Address& from, IfaceId iface);
  void on_join_prune(const PimJoinPrune& jp, const Address& from,
                     IfaceId iface);
  void on_graft(const PimJoinPrune& graft, const Address& from,
                IfaceId iface);
  void on_graft_ack(const PimJoinPrune& ack, IfaceId iface);
  void on_assert(const PimAssert& a, const Address& from, IfaceId iface);
  void on_state_refresh(const PimStateRefresh& sr, IfaceId iface);

  // Message emission.
  void send_hello(IfaceId iface);
  void send_prune_upstream(SgEntry& e);
  void send_graft_upstream(SgEntry& e);
  void send_join_override(SgEntry& e, const Address& upstream);
  /// Prunes (S,G) toward every neighbor on a non-RPF `iface` we do not
  /// forward onto.
  void send_nonrpf_prune(SgEntry& e, IfaceId iface, Downstream& d);
  void send_graft_ack(const PimJoinPrune& graft, const Address& to,
                      IfaceId iface);
  void originate_state_refresh(SgEntry& e);
  void forward_state_refresh(SgEntry& e, const PimStateRefresh& sr);
  /// A received prune's holdtime, capped at our own (which 0 also means).
  Time prune_hold(std::uint16_t holdtime) const {
    const Time hold = Time::sec(holdtime);
    return holdtime == 0 || hold > config_.prune_hold_time
               ? config_.prune_hold_time
               : hold;
  }
  /// Control source address: the interface's link-local address.
  Address source_address(IfaceId iface) const {
    return stack_->link_local_address(iface);
  }

  PimDmConfig config_;
};

extern template class DenseEngineCore<PimDmRouter, PimDmEntry,
                                      std::unique_ptr<Timer>>;

}  // namespace mip6
