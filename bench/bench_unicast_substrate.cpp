// ABL5 — "Protocol Independent": the same PIM-DM/MLD/MIPv6 stack over two
// unicast substrates — the instantly-converged global-routing oracle and a
// real RIPng distance-vector protocol with periodic updates and
// convergence transients. The paper's conclusions must not depend on the
// substrate; the residual differences (startup convergence, routing
// control bytes) are quantified here.
#include "common.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

ReplicationResult run(std::uint64_t seed, UnicastRouting unicast) {
  WorldConfig config;
  config.unicast = unicast;
  Fig1Harness h({McastStrategy::kLocalMembership, HaRegistration::kGroupListBu},
                seed, config);
  World& world = h.world();
  h.subscribe_all();
  h.metrics->update_reference_tree(
      h.f.link1->id(),
      {h.f.link1->id(), h.f.link2->id(), h.f.link4->id()});
  // Start traffic immediately: with RIPng this exercises the convergence
  // window (RPF failures until routes exist).
  h.source->start(Time::ms(500));

  std::vector<Link*> links;
  for (int n = 1; n <= 6; ++n) links.push_back(&h.f.link(n));
  RandomMover mover(*h.f.recv3->mn, world.net().rng(), links,
                    Time::sec(120));
  std::vector<Time> move_times;
  mover.set_on_move([&](Link& to) {
    move_times.push_back(world.now());
    h.metrics->update_reference_tree(
        h.f.link1->id(),
        {h.f.link1->id(), h.f.link2->id(), to.id()});
  });
  mover.start(Time::sec(30));
  const Time horizon = Time::sec(900);
  world.run_until(horizon);

  Summary join;
  for (Time t : move_times) {
    if (auto first = h.app3->first_rx_at_or_after(t)) {
      join.add((*first - t).to_seconds());
    }
  }
  auto& c = world.net().counters();
  double sent = static_cast<double>(h.source->sent());
  ReplicationResult r;
  r["join_delay_s"] = join.mean();
  r["loss_pct"] =
      100.0 * (sent - static_cast<double>(h.app3->unique_received())) / sent;
  r["first_delivery_s"] = [&] {
    auto first = h.app3->first_rx_at_or_after(Time::zero());
    return first ? first->to_seconds() : 900.0;
  }();
  r["rpf_failures"] = static_cast<double>(c.get("pimdm/rpf-fail"));
  r["routing_ctrl_kib"] =
      static_cast<double>(c.get("ripng/tx-bytes")) / 1024.0;
  r["stretch"] = h.metrics->stretch();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = parse_reps(argc, argv, 6);
  header("ABL5: unicast substrate — oracle vs RIPng distance vector",
         "Fig. 1, roaming receiver (dwell 120 s), traffic from t=0.5 s, "
         "900 s horizon");

  Table t({"substrate", "first delivery", "join delay", "loss",
           "RPF failures", "routing ctrl", "stretch"});
  struct Case {
    const char* label;
    UnicastRouting unicast;
  };
  for (Case c : {Case{"global oracle (instant routes)",
                      UnicastRouting::kGlobalOracle},
                 Case{"RIPng (30 s updates)", UnicastRouting::kRipng}}) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 64;
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run(seed, c.unicast);
    });
    t.add_row({c.label,
               fmt_double(m.at("first_delivery_s").mean(), 2) + " s",
               fmt_double(m.at("join_delay_s").mean(), 3) + " s",
               fmt_double(m.at("loss_pct").mean(), 2) + " %",
               fmt_double(m.at("rpf_failures").mean(), 0),
               fmt_double(m.at("routing_ctrl_kib").mean(), 1) + " KiB",
               fmt_double(m.at("stretch").mean(), 2)});
  }
  std::printf("%s\n", t.str().c_str());

  paper_note(
      "PIM-DM consumes whatever unicast RIB exists — after RIPng's initial "
      "convergence (one flooded update round; visible as RPF failures and "
      "a delayed first delivery) the multicast behaviour is identical to "
      "the oracle substrate, at the cost of periodic routing updates. The "
      "paper's qualitative conclusions are substrate-independent.");
  return 0;
}
