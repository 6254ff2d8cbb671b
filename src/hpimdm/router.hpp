// HPIM-DM router engine (arXiv 2002.06635 semantics, adapted to this
// simulator): a hard-state redesign of dense-mode multicast.
//
// Where PIM-DM periodically re-floods and re-prunes (soft state that decays
// and must be refreshed), HPIM-DM keeps explicit per-neighbor interest
// state and synchronizes it reliably:
//
//   * Every Interest ("I do/don't want (S,G) through you") and Sync message
//     is sequence-numbered per neighbor, acknowledged, and retransmitted
//     with exponential backoff until acked — control state cannot be lost
//     to a dropped frame.
//   * When a neighbor (re)appears — first hello, or a hello carrying a new
//     generation id after a reboot — the full relevant tree state is
//     re-synchronized immediately in one acknowledged Sync exchange instead
//     of waiting out a flood-and-prune cycle. Sync transmissions are storm
//     damped (at most one per neighbor per sync_min_interval).
//   * A neighbor silent past holdtime (or whose retransmit queue overflows)
//     is declared failed: its interest state is dropped and interest is
//     recomputed, degrading gracefully instead of blackholing.
//
// Crash semantics differ deliberately from PIM-DM: on_crash() keeps the
// (S,G) entries, the recorded downstream interest and the leaf (MLD)
// groups — that is the hard state — and only discards the live channel
// machinery (timers, sequence numbers, unacked queues). After on_restart()
// the router forwards again on the first arriving datagram, while its new
// generation id makes every neighbor re-sync so residual divergence heals.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "hpimdm/config.hpp"
#include "hpimdm/messages.hpp"
#include "pimdm/dense_engine_core.hpp"

namespace mip6 {

/// Reliable control channel to one HPIM neighbor on one interface.
struct HpimDmNeighbor {
  /// One sequenced, unacked message awaiting its cumulative ack.
  struct Pending {
    std::uint32_t seq = 0;
    HpimType type = HpimType::kInterest;
    Bytes body;  // serialized body, seq included — retransmitted verbatim
  };
  std::uint32_t generation_id = 0;
  /// False for channels adopted from a sequenced message before any
  /// hello: the first hello then just records the generation id instead
  /// of being mistaken for a reboot.
  bool generation_known = false;
  std::unique_ptr<Timer> liveness;
  // Sender side.
  std::uint32_t tx_seq = 0;  // last assigned
  std::deque<Pending> pending;
  std::unique_ptr<Timer> retx_timer;
  Time rto = Time::zero();
  // Receiver side.
  std::uint32_t rx_expected = 1;
  // Sync storm damping.
  Time last_sync_tx = Time::never();
  std::unique_ptr<Timer> sync_timer;
  bool sync_pending = false;
};

struct HpimDmDownstream : DenseDownstream {
  /// Per-neighbor declared interest. A neighbor with no record is
  /// *unknown* and keeps the interface forwarding (dense-mode default).
  std::map<Address, bool> declared;
  /// Rate limiter for not-interested declarations triggered by data
  /// arriving on a non-RPF interface.
  Time last_nonrpf_tx = Time::never();
};

struct HpimDmEntry : DenseEntry<HpimDmDownstream> {
  /// Last interest declared to the upstream neighbor; absent until the
  /// first declaration (and again after crash/upstream loss, forcing a
  /// re-declaration once a channel exists).
  std::optional<bool> my_interest;
};

class HpimDmRouter final
    : public DenseEngineCore<HpimDmRouter, HpimDmEntry, HpimDmNeighbor> {
 public:
  HpimDmRouter(Ipv6Stack& stack, MldRouter& mld, HpimDmConfig config);

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "hpimdm"; }
  /// Crash: drop channels, timers and local-receiver pins but KEEP (S,G)
  /// entries, downstream interest and leaf groups (the hard state).
  void on_crash() override;
  /// Restart: new generation id, cold-start the interfaces, re-arm entry
  /// lifetimes, and reconcile surviving leaf state against MLD after a
  /// grace period.
  void on_restart() override;

  // --- DenseModeEngine ----------------------------------------------------
  /// Unacked control messages queued across every neighbor channel. A
  /// healthy channel drains to zero after convergence; the chaos-search
  /// retx-backlog watchdog samples this.
  std::size_t retransmit_backlog() const;
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  const HpimDmConfig& config() const { return config_; }

 private:
  using Core = DenseEngineCore<HpimDmRouter, HpimDmEntry, HpimDmNeighbor>;
  friend Core;
  using SgEntry = HpimDmEntry;
  using AssertMessage = HpimAssert;
  static constexpr HpimType kAssertType = HpimType::kAssert;
  static constexpr std::uint8_t kVersion = kHpimVersion;
  using NeighborChannel = HpimDmNeighbor;
  using Pending = HpimDmNeighbor::Pending;

  // Core hooks (dense_engine_core.hpp).
  void on_control_message(const PimHeader& h, const Address& from,
                          IfaceId iface);
  bool oif_active(const SgEntry& e, IfaceId iface, const Downstream& d) const;
  /// Declares interest upstream iff the wanted state flipped (or was never
  /// declared). The hard-state replacement for prune/graft/join-override.
  void update_upstream(SgEntry& e);
  /// Variant taking the already-computed wants_traffic() result so the
  /// data path never evaluates the oif set twice for one packet.
  void update_upstream(SgEntry& e, bool wants);
  /// Re-declares interest to the new upstream.
  void on_rpf_changed(SgEntry& e);
  /// Non-RPF bystander: declares no-interest to the forwarders on this
  /// link so they drop it from their oif lists. Reliable, so once acked
  /// this self-quenches; the rate limit only spaces the initial burst.
  void on_nonrpf_data(SgEntry& e, IfaceId iface);
  /// Nothing downstream: tell the upstream once, reliably.
  void on_nothing_downstream(SgEntry& e) { update_upstream(e, false); }
  /// Keeps the hard-state leaf mirror of MLD, then the core's fan-out.
  void on_mld_change(IfaceId iface, const Address& group, bool present);
  /// shutdown() drops the hard state too: leaf groups and reconciliation.
  void on_shutdown();

  // Control plane.
  void on_hello(const HpimHello& hello, const Address& from, IfaceId iface);
  void on_ack(const HpimAck& ack, const Address& from, IfaceId iface);
  void on_interest(const HpimInterest& m, const Address& from, IfaceId iface);
  void on_sync(const HpimSync& m, const Address& from, IfaceId iface);
  void on_assert(const HpimAssert& a, const Address& from, IfaceId iface);
  void apply_interest(const Address& from, IfaceId iface, const Address& src,
                      const Address& group, bool interested);

  // Neighbor channel machinery.
  NeighborChannel* channel(IfaceId iface, const Address& nbr);
  NeighborChannel& ensure_channel(IfaceId iface, const Address& nbr,
                                  std::uint16_t holdtime_s,
                                  std::uint32_t generation_id,
                                  bool generation_known);
  /// The channel Interest for `e` travels on; exact rpf_neighbor match,
  /// falling back to a lone neighbor on the incoming interface.
  NeighborChannel* upstream_channel(SgEntry& e, Address* nbr_out);
  void neighbor_failed(IfaceId iface, const Address& nbr, const char* why);
  /// True when the sequenced message is in order (advances rx_expected and
  /// acks); duplicates/gaps are re-acked at the last in-order point.
  bool accept_sequenced(IfaceId iface, const Address& from, std::uint32_t seq);
  void send_reliable(IfaceId iface, const Address& nbr, HpimType type,
                     Bytes body_with_seq, std::uint32_t seq);
  std::uint32_t next_seq(IfaceId iface, const Address& nbr);
  void schedule_sync(IfaceId iface, const Address& nbr);
  void send_sync(IfaceId iface, const Address& nbr);

  // Message emission.
  void send_hello(IfaceId iface);
  void send_ack(IfaceId iface, const Address& to, std::uint32_t seq);
  void send_interest(SgEntry& e, bool interested);
  /// Control source address: global preferred (it is what unicast routes —
  /// and therefore rpf_neighbor — name), link-local fallback.
  Address source_address(IfaceId iface) const;

  std::uint32_t fresh_generation_id();
  void reconcile_leaf_groups();

  HpimDmConfig config_;
  std::uint32_t generation_id_ = 0;
  /// Hard-state mirror of MLD listener state; survives crashes where the
  /// MLD module's own soft state is lost, and is reconciled against live
  /// MLD reports leaf_reconcile_delay after a restart.
  std::map<IfaceId, std::set<Address>> leaf_groups_;
  std::unique_ptr<Timer> leaf_reconcile_timer_;
};

extern template class DenseEngineCore<HpimDmRouter, HpimDmEntry,
                                      HpimDmNeighbor>;

}  // namespace mip6
