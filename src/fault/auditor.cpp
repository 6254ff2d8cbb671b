#include "fault/auditor.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace mip6 {

namespace {

std::string sg_str(const DenseModeEngine::SgKey& key) {
  return "(" + key.source.str() + "," + key.group.str() + ")";
}

/// True for an up router whose engine holds an entry for `key`.
bool holds(const NodeRuntime& env, const DenseModeEngine::SgKey& key) {
  return env.node->up() && env.dense != nullptr &&
         env.dense->has_entry(key.source, key.group);
}

}  // namespace

std::string AuditReport::str() const {
  std::string out = "audit @" + at.str() + ": ";
  if (ok()) return out + "OK";
  out += std::to_string(violations.size()) + " violation(s)\n";
  for (const auto& v : violations) {
    out += "  [" + v.check + "] " + v.detail + "\n";
  }
  return out;
}

Auditor::Auditor(World& world, AuditorConfig config)
    : world_(&world), config_(config), last_sample_(world.now()) {}

AuditReport Auditor::run() {
  AuditReport r;
  r.at = world_->now();
  if (config_.check_oif_iif) check_oif_iif(r);
  if (config_.check_forwarding_loops) check_forwarding_loops(r);
  if (config_.check_binding_coherence) check_binding_coherence(r);
  check_flow_cache(r);
  if (config_.quiesced) {
    if (config_.check_duplicate_forwarders) check_duplicate_forwarders(r);
    if (config_.check_prune_coherence) check_prune_coherence(r);
    if (config_.check_mld_coverage) check_mld_coverage(r);
  }
  r.windows = windows_;
  world_->net().counters().add("audit/runs");
  world_->net().counters().add("audit/violations", r.violations.size());
  return r;
}

void Auditor::sample_windows() {
  Time now = world_->now();
  double dt = (now - last_sample_).to_seconds();
  last_sample_ = now;
  if (dt <= 0.0) return;
  for (const auto& key : all_sg_keys()) {
    if (group_blackholed(key)) windows_[key].blackhole_s += dt;
    if (group_duplicating(key)) windows_[key].duplication_s += dt;
  }
}

void Auditor::arm_window_sampler(Time period) {
  // The callback is fixed at Timer construction, so a new period means a
  // fresh timer.
  sampler_ = std::make_unique<Timer>(world_->scheduler(), [this, period] {
    sample_windows();
    sampler_->arm(period);
  }, kWorldDomain);
  sampler_->arm(period);
}

const Link* Auditor::link_of(const Node& node, IfaceId iface) {
  const Interface& i = node.iface_by_id(iface);
  return i.attached() ? i.link() : nullptr;
}

bool Auditor::is_router_address_on(const NodeRuntime& router,
                                   const Link& link, const Address& addr) {
  for (const auto& iface : router.node->interfaces()) {
    if (!iface->attached() || iface->link() != &link) continue;
    if (router.stack->has_global_address(iface->id()) &&
        router.stack->global_address(iface->id()) == addr) {
      return true;
    }
    if (router.stack->has_link_local(iface->id()) &&
        router.stack->link_local_address(iface->id()) == addr) {
      return true;
    }
  }
  return false;
}

std::vector<DenseModeEngine::SgKey> Auditor::all_sg_keys() const {
  std::set<DenseModeEngine::SgKey> keys;
  for (const auto& r : world_->routers()) {
    if (!r->node->up() || r->dense == nullptr) continue;
    for (const auto& key : r->dense->sg_keys()) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

bool Auditor::group_blackholed(const DenseModeEngine::SgKey& key) const {
  // Which links can (S,G) traffic currently reach? Seed with the first-hop
  // links (an up router holding the entry with no RPF neighbor is directly
  // attached to the source), then propagate through each up router's
  // incoming -> outgoing interfaces until a fixpoint.
  std::set<LinkId> reachable;
  for (const auto& env : world_->routers()) {
    if (!holds(*env, key)) continue;
    if (!env->dense->rpf_neighbor_of(key.source, key.group).is_unspecified()) {
      continue;
    }
    const Link* l =
        link_of(*env->node, env->dense->incoming(key.source, key.group));
    if (l != nullptr && l->up()) reachable.insert(l->id());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& env : world_->routers()) {
      if (!holds(*env, key)) continue;
      const Link* in =
          link_of(*env->node, env->dense->incoming(key.source, key.group));
      if (in == nullptr || !in->up() || !reachable.contains(in->id())) {
        continue;
      }
      for (IfaceId oif : env->dense->outgoing(key.source, key.group)) {
        const Link* l = link_of(*env->node, oif);
        if (l != nullptr && l->up() && reachable.insert(l->id()).second) {
          changed = true;
        }
      }
    }
  }
  // A subscribed-and-joined, up, at-home host on an up link outside the
  // reachable set is starved. (Away hosts receive through the HA tunnel,
  // which link reachability does not model — skipped.)
  for (const auto& h : world_->hosts()) {
    if (!h->node->up() || h->mn->away_from_home()) continue;
    if (!h->mn->subscriptions().contains(key.group)) continue;
    IfaceId iface = h->iface();
    if (!h->mld_host->joined(iface, key.group)) continue;
    const Link* l = link_of(*h->node, iface);
    if (l == nullptr || !l->up()) continue;
    if (!reachable.contains(l->id())) return true;
  }
  return false;
}

bool Auditor::group_duplicating(const DenseModeEngine::SgKey& key) const {
  std::map<LinkId, int> forwarders;
  for (const auto& env : world_->routers()) {
    if (!holds(*env, key)) continue;
    for (IfaceId oif : env->dense->outgoing(key.source, key.group)) {
      if (const Link* l = link_of(*env->node, oif)) {
        if (l->up() && ++forwarders[l->id()] > 1) return true;
      }
    }
  }
  return false;
}

void Auditor::check_oif_iif(AuditReport& r) const {
  for (const auto& env : world_->routers()) {
    if (!env->node->up() || env->dense == nullptr) continue;
    for (const auto& key : env->dense->sg_keys()) {
      IfaceId iif = env->dense->incoming(key.source, key.group);
      auto oifs = env->dense->outgoing(key.source, key.group);
      if (std::find(oifs.begin(), oifs.end(), iif) != oifs.end()) {
        r.violations.push_back(
            {"oif-contains-iif",
             env->node->name() + " " + sg_str(key) + " forwards onto its own "
             "incoming interface " + std::to_string(iif)});
      }
    }
  }
}

void Auditor::check_flow_cache(AuditReport& r) const {
  for (const auto& env : world_->routers()) {
    if (env->dense == nullptr) continue;
    for (std::string& v : env->dense->flow_cache_violations()) {
      r.violations.push_back(
          {"flow-cache-stale", env->node->name() + " " + std::move(v)});
    }
  }
}

void Auditor::check_forwarding_loops(AuditReport& r) const {
  // Per (S,G): router X reaches router Y if X forwards onto a link Y's
  // incoming interface sits on. A cycle in that graph means a datagram
  // could circulate until its hop limit expires.
  const auto& routers = world_->routers();
  for (const auto& key : all_sg_keys()) {
    std::vector<std::set<LinkId>> out_links(routers.size());
    std::vector<const Link*> in_link(routers.size(), nullptr);
    for (std::size_t i = 0; i < routers.size(); ++i) {
      const NodeRuntime& env = *routers[i];
      if (!holds(env, key)) continue;
      in_link[i] =
          link_of(*env.node, env.dense->incoming(key.source, key.group));
      for (IfaceId oif : env.dense->outgoing(key.source, key.group)) {
        if (const Link* l = link_of(*env.node, oif)) {
          if (l->up()) out_links[i].insert(l->id());
        }
      }
    }
    std::vector<std::vector<std::size_t>> adj(routers.size());
    for (std::size_t i = 0; i < routers.size(); ++i) {
      for (std::size_t j = 0; j < routers.size(); ++j) {
        if (i == j || in_link[j] == nullptr) continue;
        if (out_links[i].contains(in_link[j]->id())) adj[i].push_back(j);
      }
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<int> color(routers.size(), 0);
    auto dfs = [&](auto&& self, std::size_t v) -> bool {
      color[v] = 1;
      for (std::size_t w : adj[v]) {
        if (color[w] == 1) return true;
        if (color[w] == 0 && self(self, w)) return true;
      }
      color[v] = 2;
      return false;
    };
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (color[i] == 0 && dfs(dfs, i)) {
        r.violations.push_back(
            {"forwarding-loop",
             sg_str(key) + " oif sets form a cycle through " +
                 routers[i]->node->name()});
        break;
      }
    }
  }
}

void Auditor::check_binding_coherence(AuditReport& r) const {
  for (const auto& env : world_->routers()) {
    if (!env->node->up() || env->ha == nullptr) continue;
    for (const BindingCache::Entry* e : env->ha->cache().entries()) {
      for (const auto& h : world_->hosts()) {
        if (!(h->mn->home_address() == e->home)) continue;
        if (h->node->up() && h->mn->binding_acked() &&
            h->mn->away_from_home() && !(e->care_of == h->mn->care_of())) {
          r.violations.push_back(
              {"binding-care-of-mismatch",
               env->node->name() + " binds " + e->home.str() + " -> " +
                   e->care_of.str() + " but " + h->node->name() +
                   " is at " + h->mn->care_of().str()});
        }
      }
    }
  }
  if (!config_.quiesced) return;
  // Inverse direction: an MN that believes it is registered must actually
  // have a binding at its home agent. (Quiesced-only: an HA outage leaves
  // the MN convinced until its next refresh — that window is the expected
  // transient the recovery metrics measure.)
  for (const auto& h : world_->hosts()) {
    if (!h->node->up() || !h->mn->binding_acked() ||
        !h->mn->away_from_home()) {
      continue;
    }
    bool found = false;
    for (const auto& env : world_->routers()) {
      if (env->ha != nullptr &&
          env->ha->cache().find(h->mn->home_address()) != nullptr) {
        found = true;
        break;
      }
    }
    if (!found) {
      r.violations.push_back(
          {"binding-missing",
           h->node->name() + " believes it is registered for " +
               h->mn->home_address().str() + " but no home agent has a "
               "binding"});
    }
  }
}

void Auditor::check_duplicate_forwarders(AuditReport& r) const {
  for (const auto& key : all_sg_keys()) {
    std::map<LinkId, std::vector<std::string>> forwarders;
    for (const auto& env : world_->routers()) {
      if (!holds(*env, key)) continue;
      for (IfaceId oif : env->dense->outgoing(key.source, key.group)) {
        if (const Link* l = link_of(*env->node, oif)) {
          forwarders[l->id()].push_back(env->node->name());
        }
      }
    }
    for (const auto& [link_id, names] : forwarders) {
      if (names.size() <= 1) continue;
      std::string who = names[0];
      for (std::size_t i = 1; i < names.size(); ++i) who += "+" + names[i];
      r.violations.push_back(
          {"duplicate-forwarders",
           sg_str(key) + " on " + world_->net().link(link_id).name() +
               " forwarded by " + who + " (assert unresolved)"});
    }
  }
}

void Auditor::check_prune_coherence(AuditReport& r) const {
  for (const auto& up : world_->routers()) {
    if (!up->node->up() || up->dense == nullptr) continue;
    for (const auto& key : up->dense->sg_keys()) {
      for (IfaceId oif_iface : up->dense->enabled_ifaces()) {
        if (!up->dense->downstream_pruned(key.source, key.group, oif_iface)) {
          continue;
        }
        const Link* l = link_of(*up->node, oif_iface);
        if (l == nullptr || !l->up()) continue;
        for (const auto& down : world_->routers()) {
          if (down.get() == up.get() || !holds(*down, key)) continue;
          const Link* in = link_of(
              *down->node, down->dense->incoming(key.source, key.group));
          if (in != l) continue;
          Address rpf = down->dense->rpf_neighbor_of(key.source, key.group);
          if (!is_router_address_on(*up, *l, rpf)) continue;
          bool wants = !down->dense->outgoing(key.source, key.group).empty() ||
                       down->dense->is_local_receiver(key.group);
          if (wants && !down->dense->upstream_pruned(key.source, key.group)) {
            r.violations.push_back(
                {"prune-starvation",
                 down->node->name() + " wants " + sg_str(key) + " via " +
                     up->node->name() + " on " + l->name() +
                     " but that link is pruned"});
          }
        }
      }
    }
  }
}

void Auditor::check_mld_coverage(AuditReport& r) const {
  for (const auto& h : world_->hosts()) {
    if (!h->node->up()) continue;
    IfaceId iface = h->iface();
    const Link* l = link_of(*h->node, iface);
    if (l == nullptr || !l->up()) continue;
    for (const Address& g : h->mn->subscriptions()) {
      if (!h->mld_host->joined(iface, g)) continue;  // strategy reports elsewhere
      bool covered = false;
      for (const auto& env : world_->routers()) {
        if (!env->node->up() || env->mld == nullptr) continue;
        for (const auto& ri : env->node->interfaces()) {
          if (ri->attached() && ri->link() == l &&
              env->mld->has_listeners(ri->id(), g)) {
            covered = true;
            break;
          }
        }
        if (covered) break;
      }
      if (!covered) {
        r.violations.push_back(
            {"mld-listener-missing",
             h->node->name() + " is joined to " + g.str() + " on " +
                 l->name() + " but no up router tracks a listener there"});
      }
    }
  }
}

}  // namespace mip6
