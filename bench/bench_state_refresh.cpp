// ABL3 — State Refresh ablation (extension beyond the paper's draft-03).
// Dense mode's prune holdtime makes every (S,G) tree re-flood the whole
// network every 210 s; the SEND43/TMR44 waste numbers carry that floor.
// The State Refresh extension (adopted by later PIM-DM drafts / RFC 3973)
// replaces the re-flood with a periodic control wave. This bench measures
// what that buys on the 12-router backbone — data waste vs added control
// bytes — for both a static and a roaming local sender, connecting the
// paper's analysis to the protocol's eventual evolution.
#include "common.hpp"
#include "core/random_topology.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

const Address kGroup = Address::parse("ff1e::30");

ReplicationResult run(std::uint64_t seed, bool state_refresh, bool roaming) {
  RandomTopologyParams params;
  params.routers = 12;
  params.extra_links = 2;
  params.seed = seed;
  WorldConfig config;
  config.pim.state_refresh = state_refresh;
  RandomTopology topo = build_random_topology(params, config);
  World& world = *topo.world;

  NodeRuntime& sender = world.add_host("S", *topo.stub_links[0]);
  NodeRuntime& m1 = world.add_host("M1", *topo.stub_links[3]);
  NodeRuntime& m2 = world.add_host("M2", *topo.stub_links[7]);
  world.finalize();

  GroupReceiverApp app1(*m1.stack, kPort);
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

  std::unique_ptr<RandomMover> mover;
  if (roaming) {
    std::vector<Link*> roam(topo.stub_links.begin(), topo.stub_links.end());
    mover = std::make_unique<RandomMover>(*sender.mn, world.net().rng(),
                                          roam, Time::sec(120));
    mover->set_on_move([&](Link& to) {
      metrics.update_reference_tree(to.id(), members);
    });
    mover->start(Time::sec(30));
  }
  world.run_until(Time::sec(900));

  auto& c = world.net().counters();
  double sent = static_cast<double>(source.sent());
  ReplicationResult r;
  r["wasted_kib"] = static_cast<double>(metrics.wasted_bytes()) / 1024.0;
  r["refloods"] = static_cast<double>(c.get("pimdm/prune-expired"));
  r["pim_ctrl_kib"] = static_cast<double>(c.get("pimdm/tx-bytes")) / 1024.0;
  r["sr_msgs"] = static_cast<double>(c.get("pimdm/tx/state-refresh"));
  r["loss_pct"] =
      100.0 * (sent - static_cast<double>(app1.unique_received())) / sent;
  return r;
}

void sweep(const char* label, bool roaming, std::size_t reps) {
  std::printf("--- %s ---\n", label);
  Table t({"state refresh", "prune expiries (refloods)", "wasted bw",
           "PIM control", "SR messages", "M1 loss"});
  for (bool sr : {false, true}) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 555;
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run(seed, sr, roaming);
    });
    t.add_row({sr ? "on (60 s waves)" : "off (draft-03 baseline)",
               fmt_double(m.at("refloods").mean(), 1),
               fmt_double(m.at("wasted_kib").mean(), 0) + " KiB",
               fmt_double(m.at("pim_ctrl_kib").mean(), 1) + " KiB",
               fmt_double(m.at("sr_msgs").mean(), 0),
               fmt_double(m.at("loss_pct").mean(), 1) + " %"});
  }
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = parse_reps(argc, argv, 6);
  header("ABL3: PIM-DM State Refresh extension",
         "12-router backbone, 20 dgram/s * 200 B, 900 s horizon");

  sweep("static sender", /*roaming=*/false, reps);
  sweep("roaming local sender (mean dwell 120 s)", /*roaming=*/true, reps);

  paper_note(
      "extension beyond the paper: draft-03 dense mode re-floods every "
      "(S,G) tree each prune holdtime (210 s) — a bandwidth floor visible "
      "in every waste number of this reproduction. A 60 s State Refresh "
      "wave (a few hundred bytes per tree per minute) removes the re-flood "
      "entirely while keeping graft behaviour intact; the mobile-sender "
      "flood cost of Section 4.3.1 then stands out cleanly.");
  return 0;
}
