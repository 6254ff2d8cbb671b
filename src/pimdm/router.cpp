#include "pimdm/router.hpp"

namespace mip6 {

PimDmRouter::PimDmRouter(Ipv6Stack& stack, MldRouter& mld, PimDmConfig config)
    : Core(stack, mld, "pimdm", config.data_timeout), config_(config) {}

// ---------------------------------------------------------------------------
// Introspection

bool PimDmRouter::upstream_pruned(const Address& src,
                                  const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  return e != nullptr && e->upstream_pruned;
}

PimDmRouter::DownstreamState PimDmRouter::downstream_state(
    const Address& src, const Address& group, IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return DownstreamState::kForwarding;
  return it->second->state;
}

bool PimDmRouter::downstream_pruned(const Address& src, const Address& group,
                                    IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return false;
  auto it = e->downstream.find(iface);
  return it != e->downstream.end() &&
         it->second->state == DownstreamState::kPruned;
}

// ---------------------------------------------------------------------------
// Core hooks

void PimDmRouter::on_entry_created(SgEntry& e, const Route& route) {
  const SgKey key{e.source, e.group};
  e.graft_retry_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && entry->graft_pending) {
          count("pimdm/graft-retry");
          send_graft_upstream(*entry);
        }
      }, stack_->node().domain());
  e.join_override_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && wants_traffic(*entry)) {
          // Name the router the observed prune was addressed to: a Join
          // only overrides a prune if it targets the same upstream.
          const Address& target = entry->join_override_target.is_unspecified()
                                      ? entry->rpf_neighbor
                                      : entry->join_override_target;
          send_join_override(*entry, target);
        }
      }, stack_->node().domain());
  if (config_.state_refresh && route.on_link()) {
    // We are a first-hop router for this source: originate refresh waves.
    e.state_refresh_timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, key] {
          SgEntry* entry = find_entry(key.source, key.group);
          if (entry == nullptr) return;
          originate_state_refresh(*entry);
          entry->state_refresh_timer->arm(config_.state_refresh_interval);
        }, stack_->node().domain());
    e.state_refresh_timer->arm(config_.state_refresh_interval);
  }
}

bool PimDmRouter::oif_active(const SgEntry& e, IfaceId iface,
                             const Downstream& d) const {
  if (iface == e.incoming) return false;
  if (d.assert_loser) return false;
  // Members always get traffic; otherwise forward only where PIM
  // neighbors exist and have not pruned. Interfaces without neighbors
  // contribute only via MLD listeners.
  return mld_->has_listeners(iface, e.group) ||
         ((d.state != DownstreamState::kPruned) && has_neighbors(iface));
}

void PimDmRouter::update_upstream(SgEntry& e) {
  if (e.rpf_neighbor.is_unspecified()) return;  // we are the first hop
  if (wants_traffic(e)) {
    if (e.upstream_pruned) send_graft_upstream(e);
  } else {
    if (!e.upstream_pruned) send_prune_upstream(e);
  }
}

void PimDmRouter::on_nonrpf_data(SgEntry& e, IfaceId iface) {
  // Tell the forwarder(s) on this link to prune: without this, loops in
  // the topology keep branches alive forever (any router that still
  // legitimately needs the link overrides with a Join, and MLD members
  // keep it in the forwarder's oif list anyway). Assert losers stay
  // silent: the elected forwarder serves this LAN and pruning it would
  // fight the election outcome.
  Downstream& ds = downstream(e, iface);
  if (!ds.assert_loser &&
      (ds.last_nonrpf_prune_tx.is_never() ||
       now() - ds.last_nonrpf_prune_tx >= config_.assert_rate_limit)) {
    send_nonrpf_prune(e, iface, ds);
  }
}

void PimDmRouter::on_nothing_downstream(SgEntry& e) {
  // Prune ourselves off the tree (rate-limited; on a LAN the upstream may
  // keep transmitting because a sibling overrode). Deliberately uncached
  // so the rate limiter keeps seeing every packet.
  if (!e.rpf_neighbor.is_unspecified() &&
      (e.last_prune_tx.is_never() ||
       now() - e.last_prune_tx >= config_.prune_hold_time)) {
    send_prune_upstream(e);
  }
}

// ---------------------------------------------------------------------------
// Control plane

void PimDmRouter::on_control_message(const PimHeader& h, const Address& from,
                                     IfaceId iface) {
  switch (static_cast<PimType>(h.type)) {
    case PimType::kHello: {
      ParseResult<PimHello> m = PimHello::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_hello(m.value(), from, iface);
      break;
    }
    case PimType::kJoinPrune: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_join_prune(m.value(), from, iface);
      break;
    }
    case PimType::kGraft: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_graft(m.value(), from, iface);
      break;
    }
    case PimType::kGraftAck: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_graft_ack(m.value(), iface);
      break;
    }
    case PimType::kAssert: {
      ParseResult<PimAssert> m = PimAssert::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_assert(m.value(), from, iface);
      break;
    }
    case PimType::kStateRefresh: {
      ParseResult<PimStateRefresh> m = PimStateRefresh::try_parse(h.body);
      if (!m.ok()) return reject_control(m.failure());
      on_state_refresh(m.value(), iface);
      break;
    }
    default:
      // Unknown PIM message type: taxonomy says bad-type, not a crash.
      reject_control(
          ParseFailure{ParseReason::kBadType, "unknown PIM message type"});
      break;
  }
}

void PimDmRouter::on_hello(const PimHello& hello, const Address& from,
                           IfaceId iface) {
  IfaceState& st = ifaces_.at(iface);
  auto it = st.neighbors.find(from);
  if (it == st.neighbors.end()) {
    auto timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, iface, from] {
          ifaces_.at(iface).neighbors.erase(from);
          // has_neighbors() feeds every entry's oif set on this iface.
          fwd_.invalidate_all();
          count("pimdm/neighbor-expired");
          trace_event("neighbor-expired", [&] {
            return "iface=" + std::to_string(iface) + " nbr=" + from.str();
          });
        }, stack_->node().domain());
    timer->arm(Time::sec(hello.holdtime));
    st.neighbors.emplace(from, std::move(timer));
    fwd_.invalidate_all();  // a new neighbor turns interfaces forwarding
    count("pimdm/neighbor-up");
    trace_event("neighbor-up", [&] {
      return "iface=" + std::to_string(iface) + " nbr=" + from.str();
    });
    // Triggered hello so the new neighbor learns us quickly.
    send_hello(iface);
  } else {
    it->second->arm(Time::sec(hello.holdtime));
  }
}

void PimDmRouter::on_join_prune(const PimJoinPrune& jp, const Address& from,
                                IfaceId iface) {
  (void)from;  // the message's upstream_neighbor field drives everything
  bool to_me = stack_->owns_address(jp.upstream_neighbor);
  for (const auto& g : jp.groups) {
    for (const auto& src : g.pruned_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // We are the upstream: begin the LAN prune delay; an overriding
        // Join within T_PruneDel cancels it.
        Downstream& d = downstream(*e, iface);
        if (d.state == DownstreamState::kPruned) {
          // Refreshed prune (e.g. triggered by a State Refresh wave):
          // re-arm the holdtime in place, no re-flood in between.
          if (d.prune_expiry_timer) {
            d.prune_expiry_timer->arm(prune_hold(jp.holdtime));
            count("pimdm/prune-refreshed");
          }
        } else if (d.state == DownstreamState::kForwarding) {
          d.state = DownstreamState::kPrunePending;
          SgKey key{src, g.group};
          std::uint16_t holdtime = jp.holdtime;
          if (!d.prune_pending_timer) {
            d.prune_pending_timer = std::make_unique<Timer>(
                stack_->scheduler(), [this, key, iface, holdtime] {
                  SgEntry* entry = find_entry(key.source, key.group);
                  if (entry == nullptr) return;
                  Downstream& dd = downstream(*entry, iface);
                  if (dd.state != DownstreamState::kPrunePending) return;
                  dd.state = DownstreamState::kPruned;
                  fwd_.invalidate(key.source, key.group);
                  count("pimdm/iface-pruned");
                  trace_event("iface-pruned", [&] {
                    return "src=" + key.source.str() + " group=" +
                           key.group.str() + " iface=" + std::to_string(iface);
                  });
                  // Prune Echo (RFC 3973 §4.4.2): on a LAN with several
                  // neighbors, repeat the prune naming ourselves so a
                  // downstream router whose overriding Join was lost gets
                  // a second chance to object.
                  if (neighbors(iface).size() > 1) {
                    std::uint16_t echo_hold = holdtime;
                    PimJoinPrune echo = PimJoinPrune::prune(
                        stack_->link_local_address(iface), key.source,
                        key.group, echo_hold);
                    emit(iface, PimType::kJoinPrune, echo.body(),
                         Address::all_pim_routers());
                    count("pimdm/tx/prune-echo");
                  }
                  if (!dd.prune_expiry_timer) {
                    dd.prune_expiry_timer = std::make_unique<Timer>(
                        stack_->scheduler(), [this, key, iface] {
                          SgEntry* en = find_entry(key.source, key.group);
                          if (en == nullptr) return;
                          Downstream& x = downstream(*en, iface);
                          if (x.state == DownstreamState::kPruned) {
                            x.state = DownstreamState::kForwarding;
                            fwd_.invalidate(key.source, key.group);
                            count("pimdm/prune-expired");
                            // Downstream interest is presumed again; if we
                            // had pruned ourselves upstream meanwhile, we
                            // must graft back or the branch stays dark.
                            update_upstream(*en);
                          }
                        }, stack_->node().domain());
                  }
                  dd.prune_expiry_timer->arm(prune_hold(holdtime));
                  update_upstream(*entry);
                }, stack_->node().domain());
          }
          d.prune_pending_timer->arm(config_.prune_delay);
        }
      } else if (iface == e->incoming && wants_traffic(*e)) {
        // A prune crossed our upstream LAN — from a sibling, or a Prune
        // Echo from the forwarder itself; either way, if we still need the
        // traffic, override with a Join after a random delay below the
        // prune delay. The Join must name the pruned upstream.
        e->join_override_target = jp.upstream_neighbor;
        if (!e->join_override_timer->running()) {
          Time delay = Time::ns(static_cast<std::int64_t>(
              stack_->network().rng().uniform() *
              static_cast<double>(config_.join_override_window.nanos())));
          e->join_override_timer->arm(delay);
        }
      }
    }
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // Join override received: cancel a pending prune on that iface.
        Downstream& d = downstream(*e, iface);
        if (d.state == DownstreamState::kPrunePending) {
          d.prune_pending_timer->cancel();
          d.state = DownstreamState::kForwarding;
          fwd_.invalidate(*e);
          count("pimdm/prune-overridden");
          trace_event("prune-overridden", [&] {
            return "src=" + src.str() + " group=" + g.group.str() +
                   " iface=" + std::to_string(iface);
          });
        } else if (d.state == DownstreamState::kPruned) {
          if (d.prune_expiry_timer) d.prune_expiry_timer->cancel();
          d.state = DownstreamState::kForwarding;
          fwd_.invalidate(*e);
        }
      } else if (iface == e->incoming) {
        // Someone else already sent the override; suppress ours.
        e->join_override_timer->cancel();
      }
    }
  }
}

void PimDmRouter::on_graft(const PimJoinPrune& graft, const Address& from,
                           IfaceId iface) {
  if (!stack_->owns_address(graft.upstream_neighbor)) return;
  for (const auto& g : graft.groups) {
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) {
        // Graft for an entry we never created (e.g. it already timed out):
        // recreate state so forwarding resumes with the next datagram.
        e = create_entry(src, g.group);
        if (e == nullptr) continue;
      }
      Downstream& d = downstream(*e, iface);
      if (d.prune_pending_timer) d.prune_pending_timer->cancel();
      if (d.prune_expiry_timer) d.prune_expiry_timer->cancel();
      d.state = DownstreamState::kForwarding;
      fwd_.invalidate(*e);
      count("pimdm/graft-processed");
      update_upstream(*e);  // cascade the graft upstream if we had pruned
    }
  }
  send_graft_ack(graft, from, iface);
}

void PimDmRouter::on_graft_ack(const PimJoinPrune& ack, IfaceId iface) {
  (void)iface;
  for (const auto& g : ack.groups) {
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      e->graft_pending = false;
      e->graft_retry_timer->cancel();
    }
  }
}

void PimDmRouter::on_assert(const PimAssert& a, const Address& from,
                            IfaceId iface) {
  SgEntry* e = find_entry(a.source, a.group);
  if (e == nullptr) return;
  count("pimdm/rx-assert");

  if (iface == e->incoming) {
    // Downstream observer: the assert *winner* becomes our RPF neighbor
    // (draft: "downstream routers ... store the elected forwarder for
    // later protocol actions").
    observe_assert(*e, a, from);
    return;
  }

  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return;
  Downstream& d = *it->second;
  if (d.state != DownstreamState::kForwarding || d.assert_loser) return;

  if (assert_beats(a, from, config_.metric_preference, e->rpf_metric,
                   stack_->link_local_address(iface))) {
    lose_assert(*e, d, iface, from);
    // A loser that doesn't consume from this LAN itself (it is not its RPF
    // interface) prunes toward the winner; routers that do depend on the
    // LAN answer with an overriding Join, so this only clears truly
    // unneeded branches (RFC 3973 assert-loser prune behaviour).
    if (!mld_->has_listeners(iface, e->group)) {
      auto holdtime =
          static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
      PimJoinPrune m = PimJoinPrune::prune(from, e->source, e->group,
                                           holdtime);
      emit(iface, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
      count("pimdm/tx/assert-loser-prune");
    }
    update_upstream(*e);
  } else {
    send_assert(*e, iface);  // defend our role as forwarder
  }
}

void PimDmRouter::on_state_refresh(const PimStateRefresh& sr, IfaceId iface) {
  if (!config_.state_refresh) return;
  count("pimdm/rx/state-refresh");
  SgEntry* e = find_entry(sr.source, sr.group);
  if (e == nullptr) {
    e = create_entry(sr.source, sr.group);
    if (e == nullptr) return;
  }
  if (iface != e->incoming) {
    // Refresh wave on a non-RPF interface: we are a bystander that pruned
    // this link earlier (or should). Re-advertise the prune so the
    // forwarder's prune state is refreshed in place instead of expiring
    // into a re-flood (RFC 3973 Prune-Indicator handling).
    if (!in_oiflist(*e, iface)) {
      Downstream& d = downstream(*e, iface);
      if (!d.assert_loser) send_nonrpf_prune(*e, iface, d);
    }
    return;
  }
  // The wave attests that the source is alive: refresh the (S,G) entry.
  e->entry_timer->arm(config_.data_timeout);
  // A router that pruned itself off re-advertises its prune so the
  // upstream holdtime is refreshed instead of expiring into a re-flood.
  if (e->upstream_pruned && !e->rpf_neighbor.is_unspecified()) {
    send_prune_upstream(*e);
  }
  forward_state_refresh(*e, sr);
}

void PimDmRouter::originate_state_refresh(SgEntry& e) {
  PimStateRefresh sr;
  sr.group = e.group;
  sr.source = e.source;
  sr.metric_preference = config_.metric_preference;
  sr.metric = e.rpf_metric;
  sr.ttl = 16;
  sr.interval_s = static_cast<std::uint8_t>(
      config_.state_refresh_interval.to_seconds());
  // Originators need a global address for the originator field; fall back
  // to link-local if the incoming interface has no global.
  sr.originator = stack_->has_global_address(e.incoming)
                      ? stack_->global_address(e.incoming)
                      : stack_->link_local_address(e.incoming);
  count("pimdm/tx/state-refresh-originated");
  trace_event("tx-state-refresh", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " originator=" + sr.originator.str();
  });
  forward_state_refresh(e, sr);
}

void PimDmRouter::forward_state_refresh(SgEntry& e,
                                        const PimStateRefresh& sr) {
  if (sr.ttl <= 1) return;
  for (auto& [iface, d] : e.downstream) {
    if (iface == e.incoming) continue;
    if (!has_neighbors(iface)) continue;
    PimStateRefresh out = sr;
    out.ttl = static_cast<std::uint8_t>(sr.ttl - 1);
    out.prune_indicator = (d->state == DownstreamState::kPruned);
    emit(iface, PimType::kStateRefresh, out.body(),
         Address::all_pim_routers());
    count("pimdm/tx/state-refresh");
  }
}

// ---------------------------------------------------------------------------
// Emission

void PimDmRouter::send_hello(IfaceId iface) {
  PimHello hello;
  hello.holdtime =
      static_cast<std::uint16_t>(config_.hello_holdtime.to_seconds());
  emit(iface, PimType::kHello, hello.body(), Address::all_pim_routers());
  count("pimdm/tx/hello");
  trace_event("tx-hello",
              [&] { return "iface=" + std::to_string(iface); });
}

void PimDmRouter::send_prune_upstream(SgEntry& e) {
  if (e.rpf_neighbor.is_unspecified()) return;
  auto holdtime =
      static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
  PimJoinPrune m =
      PimJoinPrune::prune(e.rpf_neighbor, e.source, e.group, holdtime);
  emit(e.incoming, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  e.upstream_pruned = true;
  e.last_prune_tx = now();
  count("pimdm/tx/prune");
  trace_event("tx-prune", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + e.rpf_neighbor.str();
  });
}

void PimDmRouter::send_graft_upstream(SgEntry& e) {
  if (e.rpf_neighbor.is_unspecified()) return;
  PimJoinPrune m = PimJoinPrune::join(e.rpf_neighbor, e.source, e.group);
  // Grafts are unicast to the upstream neighbor.
  emit(e.incoming, PimType::kGraft, m.body(), e.rpf_neighbor);
  e.upstream_pruned = false;
  e.graft_pending = true;
  e.graft_retry_timer->arm(config_.graft_retry_period);
  count("pimdm/tx/graft");
  trace_event("tx-graft", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + e.rpf_neighbor.str();
  });
}

void PimDmRouter::send_join_override(SgEntry& e, const Address& upstream) {
  PimJoinPrune m = PimJoinPrune::join(upstream, e.source, e.group);
  emit(e.incoming, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  count("pimdm/tx/join-override");
  trace_event("tx-join-override", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + upstream.str();
  });
}

void PimDmRouter::send_nonrpf_prune(SgEntry& e, IfaceId iface,
                                    Downstream& d) {
  d.last_nonrpf_prune_tx = now();
  auto holdtime =
      static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
  for (const Address& nbr : neighbors(iface)) {
    PimJoinPrune m = PimJoinPrune::prune(nbr, e.source, e.group, holdtime);
    emit(iface, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
    count("pimdm/tx/nonrpf-prune");
  }
}

void PimDmRouter::send_graft_ack(const PimJoinPrune& graft, const Address& to,
                                 IfaceId iface) {
  PimJoinPrune ack = graft;
  emit(iface, PimType::kGraftAck, ack.body(), to);
  count("pimdm/tx/graft-ack");
  trace_event("tx-graft-ack", [&] {
    return "to=" + to.str() + " iface=" + std::to_string(iface);
  });
}

template class DenseEngineCore<PimDmRouter, PimDmEntry,
                               std::unique_ptr<Timer>>;

}  // namespace mip6
