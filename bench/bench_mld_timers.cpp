// TMR44 — Section 4.4: MLD timer optimization for mobile receivers. Sweeps
// the Query Interval T_Query (bounded below by the 10 s Maximum Response
// Delay, per the paper's footnote 5) for a roaming receiver that does NOT
// send unsolicited Reports, measuring join delay, leave delay (wasted
// bandwidth on deserted links) and the Query/Report signalling cost —
// the exact trade-off the paper asks administrators to tune.
#include "common.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

ReplicationResult run(std::uint64_t seed, Time query_interval,
                      bool unsolicited, bool adaptive = false,
                      Time dwell = Time::sec(200)) {
  WorldConfig config;
  config.mld = MldConfig::with_query_interval(query_interval);
  config.mld.adaptive_querier = adaptive;
  config.mld.adaptive_window = Time::sec(400);
  config.mld_host.unsolicited_reports = unsolicited;
  Fig1Harness h({McastStrategy::kLocalMembership, HaRegistration::kGroupListBu},
                seed, config);
  World& world = h.world();
  h.subscribe_all();
  h.metrics->update_reference_tree(
      h.f.link1->id(),
      {h.f.link1->id(), h.f.link2->id(), h.f.link4->id()});
  h.source->start(Time::sec(1));

  std::vector<Link*> links;
  for (int n = 1; n <= 6; ++n) links.push_back(&h.f.link(n));
  RandomMover mover(*h.f.recv3->mn, world.net().rng(), links, dwell);
  std::vector<Time> move_times;
  mover.set_on_move([&](Link& to) {
    move_times.push_back(world.now());
    h.metrics->update_reference_tree(
        h.f.link1->id(),
        {h.f.link1->id(), h.f.link2->id(), to.id()});
  });
  mover.start(Time::sec(30));

  const Time horizon = Time::sec(1800);
  world.run_until(horizon);

  Summary join;
  for (Time t : move_times) {
    if (auto first = h.app3->first_rx_at_or_after(t)) {
      join.add((*first - t).to_seconds());
    }
  }
  auto& c = world.net().counters();
  ReplicationResult r;
  r["join_delay_s"] = join.mean();
  r["join_delay_max_s"] = join.max();
  r["wasted_kib"] = static_cast<double>(h.metrics->wasted_bytes()) / 1024.0;
  r["mld_kib"] = static_cast<double>(c.get("mld/tx-bytes")) / 1024.0;
  r["queries"] = static_cast<double>(c.get("mld/tx/query"));
  double sent = static_cast<double>(h.source->sent());
  r["loss_pct"] =
      100.0 * (sent - static_cast<double>(h.app3->unique_received())) / sent;
  return r;
}

void sweep(bool unsolicited, std::size_t reps) {
  std::printf("--- %s ---\n",
              unsolicited ? "with unsolicited Reports (paper's added fix)"
                          : "receiver waits for Queries (timer tuning only)");
  Table t({"T_Query", "T_MLI", "join delay (mean/max)", "loss",
           "leave-delay waste", "MLD signalling", "queries sent"});
  for (int tq : {125, 60, 30, 10}) {
    MldConfig mc = MldConfig::with_query_interval(Time::sec(tq));
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 4242;
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run(seed, Time::sec(tq), unsolicited);
    });
    t.add_row(
        {std::to_string(tq) + " s",
         fmt_double(mc.multicast_listener_interval().to_seconds(), 0) + " s",
         fmt_double(m.at("join_delay_s").mean(), 1) + " / " +
             fmt_double(m.at("join_delay_max_s").mean(), 1) + " s",
         fmt_double(m.at("loss_pct").mean(), 1) + " %",
         fmt_double(m.at("wasted_kib").mean(), 0) + " KiB",
         fmt_double(m.at("mld_kib").mean(), 1) + " KiB",
         fmt_double(m.at("queries").mean(), 0)});
  }
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = parse_reps(argc, argv, 6);
  header("TMR44: MLD Query Interval tuning for mobile receivers",
         "roaming receiver (mean dwell 200 s), 10 dgram/s stream, 1800 s "
         "horizon; T_Query swept 125 -> 10 s");

  sweep(/*unsolicited=*/false, reps);
  sweep(/*unsolicited=*/true, reps);

  // Extension: the adaptive querier (default 125 s, accelerating to 10 s
  // on churn) against the two fixed extremes. Faster roaming (mean dwell
  // 60 s) so per-link churn actually recurs within the adaptation window.
  std::printf("--- adaptive querier (extension; default 125 s, min 10 s; "
              "mean dwell 60 s) ---\n");
  {
    Table t({"querier", "join delay (mean/max)", "loss", "MLD signalling"});
    struct Row { const char* label; Time tq; bool adaptive; };
    for (Row row : {Row{"fixed 125 s", Time::sec(125), false},
                    Row{"adaptive 125->10 s", Time::sec(125), true},
                    Row{"fixed 10 s", Time::sec(10), false}}) {
      ReplicationOptions opts;
      opts.replications = reps;
      opts.base_seed = 4242;
      auto m = run_replications(opts, [&](std::uint64_t seed) {
        return run(seed, row.tq, /*unsolicited=*/false, row.adaptive,
                   Time::sec(60));
      });
      t.add_row({row.label,
                 fmt_double(m.at("join_delay_s").mean(), 1) + " / " +
                     fmt_double(m.at("join_delay_max_s").mean(), 1) + " s",
                 fmt_double(m.at("loss_pct").mean(), 1) + " %",
                 fmt_double(m.at("mld_kib").mean(), 1) + " KiB"});
    }
    std::printf("%s\n", t.str().c_str());
  }

  paper_note(
      "Section 4.4: decreasing T_Query lowers both the join delay (bounded "
      "by T_Query + response delay when waiting for Queries) and the leave "
      "delay / wasted bandwidth (T_MLI = 2*T_Query + 10 s), at the price "
      "of more Query/Report signalling — which stays small next to the "
      "bandwidth saved; T_Query must not drop below T_RespDel = 10 s "
      "(footnote 5). Unsolicited Reports remove the join delay entirely, "
      "leaving timer tuning to fix only the leave delay.");
  return 0;
}
