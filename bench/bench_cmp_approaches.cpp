// CMP43 — the paper's Section 4.3 comparison, quantified, extended to the
// six delivery approaches. The mobile host (Receiver 3's node) both
// receives group G1 (streamed by Sender S) and sends group G2 (heard by
// Receiver 2) while roaming the Figure 1 network with Poisson moves; each
// approach runs the identical replicated workload. Columns = the paper's
// criteria plus the ISSUE-10 handoff trio: handoff latency (gap until the
// first post-move datagram), handoff loss (datagrams missed per move),
// tree-state cost ((S,G) entries + MLD listeners created), datagram loss
// in both directions, bandwidth consumption (wasted bytes + routing
// stretch), tunnel bytes, protocol overhead, and system load on home
// agents / the mobile host. Rows 5-6 are the post-paper approaches: the
// hierarchical domain proxy (Schmidt/Waehlisch) and Helmy's
// multicast-based mobility. Replications run in parallel on the
// thread-pool runner; the results land in BENCH_cmp_approaches.json.
#include <cmath>

#include "common.hpp"
#include "report.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

ReplicationResult run_replication(std::uint64_t seed, StrategyOptions opts,
                                  Time horizon) {
  Figure1 f = build_figure1(seed, {}, opts);
  World& world = *f.world;
  const Address g1 = Address::parse("ff1e::1");
  const Address g2 = Address::parse("ff1e::2");

  GroupReceiverApp mh_app(*f.recv3->stack, kPort);
  GroupReceiverApp r2_app(*f.recv2->stack, kPort);
  f.recv3->service->subscribe(g1);
  f.recv1->service->subscribe(g1);
  f.recv2->service->subscribe(g2);

  McastMetrics metrics_g1(world.net(), world.routing(), g1, kPort);
  McastMetrics metrics_g2(world.net(), world.routing(), g2, kPort);
  metrics_g1.update_reference_tree(
      f.link1->id(), {f.link1->id(), f.link4->id()});
  metrics_g2.update_reference_tree(f.link4->id(), {f.link2->id()});

  const Time cbr_interval = Time::ms(100);
  CbrSource s_source(
      world.scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(g1, kPort, kPort, std::move(p));
      },
      cbr_interval, 64);
  CbrSource mh_source(
      world.scheduler(),
      [&](Bytes p) {
        f.recv3->service->send_multicast(g2, kPort, kPort, std::move(p));
      },
      cbr_interval, 64);
  s_source.start(Time::sec(1));
  mh_source.start(Time::sec(1));

  std::vector<Link*> links;
  for (int n = 1; n <= 6; ++n) links.push_back(&f.link(n));
  RandomMover mover(*f.recv3->mn, world.net().rng(), links, Time::sec(60));
  std::vector<Time> move_times;
  mover.set_on_move([&](Link& to) {
    move_times.push_back(world.now());
    metrics_g1.update_reference_tree(f.link1->id(),
                                     {f.link1->id(), to.id()});
    metrics_g2.update_reference_tree(to.id(), {f.link2->id()});
  });
  mover.start(Time::sec(20));

  WallTimer timer;
  world.run_until(horizon);
  double wall = timer.elapsed_s();

  // Handoff latency = gap between a move and the first G1 datagram heard
  // on the new link; handoff loss = the CBR datagrams that gap swallowed.
  Summary latency;
  Summary gap_loss;
  for (Time t : move_times) {
    if (auto first = mh_app.first_rx_at_or_after(t)) {
      double gap_s = (*first - t).to_seconds();
      latency.add(gap_s);
      gap_loss.add(std::floor(gap_s / cbr_interval.to_seconds()));
    }
  }
  auto& c = world.net().counters();
  ReplicationResult r;
  r["moves"] = static_cast<double>(mover.moves());
  r["handoff_latency_s"] = latency.mean();
  r["handoff_loss_pkts"] = gap_loss.mean();
  // Tree-state cost: multicast forwarding state churned into the routers —
  // (S,G) entries flooded into existence plus MLD listener records.
  r["tree_state"] = static_cast<double>(c.get("pimdm/sg-created") +
                                        c.get("hpimdm/sg-created") +
                                        c.get("mld/listener-added"));
  double sent1 = static_cast<double>(s_source.sent());
  double sent2 = static_cast<double>(mh_source.sent());
  r["recv_loss_pct"] =
      100.0 * (sent1 - static_cast<double>(mh_app.unique_received())) / sent1;
  r["send_loss_pct"] =
      100.0 * (sent2 - static_cast<double>(r2_app.unique_received())) / sent2;
  r["wasted_kib"] = static_cast<double>(metrics_g1.wasted_bytes() +
                                        metrics_g2.wasted_bytes()) /
                    1024.0;
  r["stretch"] = (metrics_g1.stretch() + metrics_g2.stretch()) / 2.0;
  r["tunneled_kib"] = static_cast<double>(metrics_g1.tunneled_bytes() +
                                          metrics_g2.tunneled_bytes()) /
                      1024.0;
  r["ctrl_kib"] =
      static_cast<double>(c.get("pimdm/tx-bytes") + c.get("mld/tx-bytes") +
                          c.get("mn/bu-bytes")) /
      1024.0;
  r["ha_load_ops"] = static_cast<double>(
      c.get("ha/encap-multicast") + c.get("ha/encap-unicast") +
      c.get("ha/encap-mcast-coa") + c.get("ha/decap"));
  r["mn_load_ops"] =
      static_cast<double>(c.get("mn/encap") + c.get("mn/decap"));
  r["proxy_ops"] = static_cast<double>(c.get("proxy/encap-multicast"));
  r["asserts"] = static_cast<double>(c.get("pimdm/tx/assert"));
  r["wall_s"] = wall;
  r["events"] = static_cast<double>(world.scheduler().executed_events());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode();
  std::size_t reps = parse_reps(argc, argv, smoke ? 2 : 8);
  const Time horizon = smoke ? Time::sec(300) : Time::sec(900);
  header("CMP43: the six delivery approaches compared",
         "mobile host sends G2 + receives G1 while roaming (Poisson, mean "
         "dwell 60 s); paper's four approaches + hier-proxy + "
         "mcast-mobility, replicated");

  struct Case {
    const char* label;
    StrategyOptions opts;
  };
  const Case cases[] = {
      {"1 local membership",
       {McastStrategy::kLocalMembership, HaRegistration::kGroupListBu}},
      {"2 bidir tunnel",
       {McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu}},
      {"3 tunnel MH->HA",
       {McastStrategy::kTunnelMhToHa, HaRegistration::kGroupListBu}},
      {"4 tunnel HA->MH",
       {McastStrategy::kTunnelHaToMh, HaRegistration::kGroupListBu}},
      {"5 hier proxy",
       {McastStrategy::kHierProxy, HaRegistration::kGroupListBu}},
      {"6 mcast mobility",
       {McastStrategy::kMcastMobility, HaRegistration::kGroupListBu}},
  };

  BenchReport report("cmp_approaches");
  double total_wall = 0.0;
  double total_events = 0.0;

  Table t({"approach", "handoff lat", "handoff loss", "tree state",
           "recv loss", "send loss", "wasted bw", "stretch", "tunnel bytes",
           "ctrl bytes", "HA load", "MH load", "asserts"});
  for (const Case& c : cases) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 31337;
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run_replication(seed, c.opts, horizon);
    });
    t.add_row({c.label,
               fmt_double(m.at("handoff_latency_s").mean(), 3) + " s",
               fmt_double(m.at("handoff_loss_pkts").mean(), 1) + " pkt",
               fmt_double(m.at("tree_state").mean(), 0),
               fmt_double(m.at("recv_loss_pct").mean(), 2) + " %",
               fmt_double(m.at("send_loss_pct").mean(), 2) + " %",
               fmt_double(m.at("wasted_kib").mean(), 0) + " KiB",
               fmt_double(m.at("stretch").mean(), 2),
               fmt_double(m.at("tunneled_kib").mean(), 0) + " KiB",
               fmt_double(m.at("ctrl_kib").mean(), 1) + " KiB",
               fmt_double(m.at("ha_load_ops").mean(), 0) + " ops",
               fmt_double(m.at("mn_load_ops").mean(), 0) + " ops",
               fmt_double(m.at("asserts").mean(), 1)});

    Json row = Json::object();
    row.set("approach", strategy_name(c.opts.strategy));
    row.set("handoff_latency_s", m.at("handoff_latency_s").mean());
    row.set("handoff_loss_pkts", m.at("handoff_loss_pkts").mean());
    row.set("tree_state", m.at("tree_state").mean());
    row.set("recv_loss_pct", m.at("recv_loss_pct").mean());
    row.set("send_loss_pct", m.at("send_loss_pct").mean());
    row.set("wasted_kib", m.at("wasted_kib").mean());
    row.set("stretch", m.at("stretch").mean());
    row.set("tunneled_kib", m.at("tunneled_kib").mean());
    row.set("ctrl_kib", m.at("ctrl_kib").mean());
    row.set("ha_load_ops", m.at("ha_load_ops").mean());
    row.set("mn_load_ops", m.at("mn_load_ops").mean());
    row.set("proxy_ops", m.at("proxy_ops").mean());
    row.set("asserts", m.at("asserts").mean());
    row.set("moves", m.at("moves").mean());
    report.add_row(std::move(row));
    total_wall += m.at("wall_s").sum();
    total_events += m.at("events").sum();
  }
  std::printf("%s\n", t.str().c_str());

  report.record_run(total_wall, total_events);
  report.metric("replications", static_cast<double>(reps));
  report.metric("horizon_s", horizon.to_seconds());
  report.write();

  paper_note(
      "Section 4.3's qualitative ranking, quantified (with unsolicited "
      "Reports active, so the MLD join delay is already mitigated): local "
      "membership is routing-optimal with zero HA/MH load but churns tree "
      "state and triggers asserts on every sender move; the bidirectional "
      "tunnel keeps one tree and no asserts at the cost of per-packet "
      "HA/MH processing, tunnel bytes and suboptimal routing; the "
      "unidirectional tunnels mix those costs per direction. The two "
      "post-paper rows: the hierarchical proxy confines handoff signalling "
      "to the domain (tunnel costs move from the HA to the proxy), and "
      "multicast-based mobility trades HA tunnels for native forwarding "
      "into the MN's reachability group at the price of per-move AR "
      "join/prune churn.");
  return 0;
}
