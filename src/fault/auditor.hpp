// Whole-world invariant checker.
//
// The Auditor walks every protocol engine in a World and cross-checks state
// *between* nodes — properties no single engine can verify about itself.
// It speaks to routers through the engine-neutral DenseModeEngine interface,
// so the same checks audit PIM-DM and HPIM-DM worlds alike:
//
//  structural (safe at any instant, even mid-transient):
//   * an (S,G) entry never forwards onto its own incoming interface
//   * the union of all routers' (S,G) oif sets forms no forwarding loop
//   * a home-agent binding for an acknowledged, away-from-home mobile node
//     names that node's actual care-of address
//   * every fresh flow-cache slot forwards what a miss would (always on:
//     engines invalidate in the event that changes an oif set)
//
//  quiesced-only (valid once the protocols have converged — duplicate
//  forwarders and pruned-but-wanted links are *expected* transients of
//  dense-mode flood-and-prune):
//   * at most one forwarder per (S,G) per link (assert coherence)
//   * a downstream router that wants (S,G) traffic is not stuck behind an
//     upstream neighbor that holds the shared link pruned
//   * some MLD router tracks every live local subscription (listener state
//     is a superset of what up hosts are actually joined to)
//   * every acknowledged away binding exists in its home agent's cache
//
// Violations are returned (and counted under "audit/violations"), never
// thrown — tests assert on the report, chaos runs collect them.
//
// Window metrics: beyond point-in-time violations, the Auditor can
// time-integrate two user-visible failure modes per (S,G) —
//   * blackhole window: some up, at-home, subscribed-and-joined host sits on
//     a link the source's traffic cannot currently reach through the union
//     of all up routers' forwarding state
//   * duplication window: more than one up router forwards onto one link
// Call sample_windows() at interesting instants, or arm_window_sampler()
// for a periodic sweep; each sample charges the time since the previous one
// to every (S,G) whose predicate currently holds. run() snapshots the
// accumulated windows into the report.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "sim/timer.hpp"

namespace mip6 {

struct AuditorConfig {
  bool check_oif_iif = true;
  bool check_forwarding_loops = true;
  bool check_binding_coherence = true;
  /// Enables the quiesced-only checks below.
  bool quiesced = false;
  bool check_duplicate_forwarders = true;
  bool check_prune_coherence = true;
  bool check_mld_coverage = true;
};

struct AuditViolation {
  std::string check;   // e.g. "forwarding-loop"
  std::string detail;  // human-readable; names nodes/links/(S,G)
};

/// Time-integrated failure windows for one (S,G), in seconds.
struct SgWindows {
  double blackhole_s = 0.0;
  double duplication_s = 0.0;
};

struct AuditReport {
  Time at;
  std::vector<AuditViolation> violations;
  /// Accumulated windows per (S,G) — empty unless sample_windows() ran.
  std::map<DenseModeEngine::SgKey, SgWindows> windows;
  bool ok() const { return violations.empty(); }
  std::string str() const;
};

class Auditor {
 public:
  explicit Auditor(World& world, AuditorConfig config = {});

  /// Runs every enabled check and returns the findings. Also bumps the
  /// "audit/runs" and "audit/violations" counters on the world's network.
  AuditReport run();

  /// Charges (now - previous sample) to every (S,G) currently blackholed
  /// or duplicated. The first call after construction charges from the
  /// construction instant.
  void sample_windows();
  /// Samples every `period` from now on (re-arming replaces the period).
  void arm_window_sampler(Time period);
  /// Accumulated windows so far (also copied into each run() report).
  const std::map<DenseModeEngine::SgKey, SgWindows>& windows() const {
    return windows_;
  }

 private:
  void check_oif_iif(AuditReport& r) const;
  void check_forwarding_loops(AuditReport& r) const;
  void check_flow_cache(AuditReport& r) const;
  void check_binding_coherence(AuditReport& r) const;
  void check_duplicate_forwarders(AuditReport& r) const;
  void check_prune_coherence(AuditReport& r) const;
  void check_mld_coverage(AuditReport& r) const;

  /// Instantaneous predicates behind the window metrics.
  bool group_blackholed(const DenseModeEngine::SgKey& key) const;
  bool group_duplicating(const DenseModeEngine::SgKey& key) const;

  /// Every (S,G) key present on any up router, deduplicated.
  std::vector<DenseModeEngine::SgKey> all_sg_keys() const;
  /// Link the interface is attached to, or nullptr.
  static const Link* link_of(const Node& node, IfaceId iface);
  /// True if `addr` is one of `router`'s addresses on `link`.
  static bool is_router_address_on(const NodeRuntime& router,
                                   const Link& link, const Address& addr);

  World* world_;
  AuditorConfig config_;
  std::map<DenseModeEngine::SgKey, SgWindows> windows_;
  Time last_sample_;
  std::unique_ptr<Timer> sampler_;
};

}  // namespace mip6
