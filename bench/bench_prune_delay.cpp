// ABL1 — ablation on the PIM-DM Prune Delay Time T_PruneDel (default 3 s,
// Section 4.3.1). The paper names it as one of the factors in the
// bandwidth wasted while a mobile sender's new flood is pruned back; this
// sweep varies it on a 12-router backbone with a roaming local sender.
// The final row demonstrates the correctness edge: if the Join-override
// window does not fit inside the prune delay, a downstream router that
// still needs traffic is cut off on shared LANs until it grafts back.
#include "common.hpp"
#include "core/random_topology.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

const Address kGroup = Address::parse("ff1e::21");

ReplicationResult run(std::uint64_t seed, Time prune_delay,
                      Time override_window) {
  RandomTopologyParams params;
  params.routers = 12;
  params.extra_links = 2;
  params.seed = seed;
  WorldConfig config;
  config.pim.prune_delay = prune_delay;
  config.pim.join_override_window = override_window;
  RandomTopology topo = build_random_topology(params, config);
  World& world = *topo.world;

  NodeRuntime& sender = world.add_host(
      "S", *topo.stub_links[0],
      {McastStrategy::kLocalMembership, HaRegistration::kGroupListBu});
  NodeRuntime& m1 = world.add_host("M1", *topo.stub_links[3]);
  NodeRuntime& m2 = world.add_host("M2", *topo.stub_links[7]);
  world.finalize();

  GroupReceiverApp app1(*m1.stack, kPort);
  GroupReceiverApp app2(*m2.stack, kPort);
  m1.service->subscribe(kGroup);
  m2.service->subscribe(kGroup);

  McastMetrics metrics(world.net(), world.routing(), kGroup, kPort);
  const std::vector<LinkId> members{topo.stub_links[3]->id(),
                                    topo.stub_links[7]->id()};
  metrics.update_reference_tree(topo.stub_links[0]->id(), members);

  CbrSource source(
      world.scheduler(),
      [&](Bytes p) {
        sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(50), 200);
  source.start(Time::sec(1));

  std::vector<Link*> roam(topo.stub_links.begin(), topo.stub_links.end());
  RandomMover mover(*sender.mn, world.net().rng(), roam, Time::sec(60));
  mover.set_on_move(
      [&](Link& to) { metrics.update_reference_tree(to.id(), members); });
  mover.start(Time::sec(30));
  world.run_until(Time::sec(400));

  double sent = static_cast<double>(source.sent());
  auto& c = world.net().counters();
  ReplicationResult r;
  r["wasted_kib"] = static_cast<double>(metrics.wasted_bytes()) / 1024.0;
  r["overrides"] = static_cast<double>(c.get("pimdm/prune-overridden"));
  r["grafts"] = static_cast<double>(c.get("pimdm/tx/graft"));
  r["m1_loss_pct"] =
      100.0 * (sent - static_cast<double>(app1.unique_received())) / sent;
  r["m2_loss_pct"] =
      100.0 * (sent - static_cast<double>(app2.unique_received())) / sent;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = parse_reps(argc, argv, 6);
  header("ABL1: Prune Delay Time sweep (T_PruneDel)",
         "12-router backbone, roaming local sender (dwell 60 s), 20 "
         "dgram/s, 400 s horizon");

  Table t({"T_PruneDel", "override window", "wasted bw", "overrides",
           "grafts", "M1 loss", "M2 loss"});
  for (int ms : {300, 1000, 3000, 10000}) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 99;
    Time window = Time::ns(Time::ms(ms).nanos() * 8 / 10);
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run(seed, Time::ms(ms), window);
    });
    t.add_row({fmt_double(ms / 1000.0, 1) + " s",
               fmt_double(window.to_seconds(), 2) + " s",
               fmt_double(m.at("wasted_kib").mean(), 0) + " KiB",
               fmt_double(m.at("overrides").mean(), 1),
               fmt_double(m.at("grafts").mean(), 1),
               fmt_double(m.at("m1_loss_pct").mean(), 1) + " %",
               fmt_double(m.at("m2_loss_pct").mean(), 1) + " %"});
  }
  std::printf("%s\n", t.str().c_str());

  // Correctness edge on a shared LAN (source--U--LB--{D1,D2}, member behind
  // D2, nothing behind D1): D1's prune must be overridden by D2's Join
  // within T_PruneDel, or U cuts the LAN off and the member starves until
  // dense mode re-floods.
  std::printf("--- Join-override window vs prune delay (shared-LAN "
              "correctness) ---\n");
  Table t2({"T_PruneDel", "override window", "overrides", "member loss"});
  auto shared_lan = [&](Time prune_delay, Time window) {
    WorldConfig config;
    config.pim.prune_delay = prune_delay;
    config.pim.join_override_window = window;
    World world(1, config);
    Link& la = world.add_link("LA");
    Link& lb = world.add_link("LB");
    Link& lc = world.add_link("LC");
    Link& ld = world.add_link("LD");
    world.add_router("U", {&la, &lb});
    world.add_router("D1", {&lb, &lc});
    world.add_router("D2", {&lb, &ld});
    NodeRuntime& src = world.add_host("S", la);
    NodeRuntime& member = world.add_host("M", ld);
    world.finalize();
    GroupReceiverApp app(*member.stack, kPort);
    member.service->subscribe(kGroup);
    CbrSource source(
        world.scheduler(),
        [&](Bytes p) {
          src.service->send_multicast(kGroup, kPort, kPort, std::move(p));
        },
        Time::ms(50), 200);
    source.start(Time::sec(1));
    world.run_until(Time::sec(120));
    double sent = static_cast<double>(source.sent());
    double loss =
        100.0 * (sent - static_cast<double>(app.unique_received())) / sent;
    t2.add_row({fmt_double(prune_delay.to_seconds(), 1) + " s",
                fmt_double(window.to_seconds(), 2) + " s",
                std::to_string(
                    world.net().counters().get("pimdm/prune-overridden")),
                fmt_double(loss, 1) + " %"});
  };
  shared_lan(Time::ms(3000), Time::ms(2500));  // spec-conformant
  shared_lan(Time::ms(300), Time::ms(2500));   // window > delay: broken
  std::printf("%s\n", t2.str().c_str());

  paper_note(
      "Section 4.3.1: \"the wasted capacity depends mainly on the bit rate "
      "of the sender, the PIM-DM Prune Delay Time (default 3 s), the "
      "number of links to be pruned, and the mobility rate\" — a longer "
      "T_PruneDel keeps flooded branches alive longer (more waste); the "
      "shared-LAN rows show why the Join-override window must fit inside "
      "it — a late override leaves a repeating outage window (losses "
      "instead of a clean override).");
  return 0;
}
