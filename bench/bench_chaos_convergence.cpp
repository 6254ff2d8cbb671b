// ABL6 — chaos convergence. The paper analyses the PIM-DM / MLD / MIPv6
// interoperation on a healthy topology; this bench measures how fast the
// same machinery repairs multicast delivery after injected faults. Part 1
// anatomises single faults (link cut, forwarder crash, receiver crash,
// home-agent outage) with a fixed 5 s outage; part 2 sweeps seeded random
// fault schedules of growing intensity. Every run is driven by a FaultPlan
// through the ChaosEngine, audited after each event, and recovery is
// fault-to-first-redelivered-datagram at the Receiver3 application.
//
// Part 3 is the engine A/B: the same seeded FaultPlans through PIM-DM
// (soft state) and HPIM-DM (hard state + reliable control sync), comparing
// recovery time, control-message overhead, and the Auditor's time-
// integrated blackhole/duplication windows. Writes
// BENCH_chaos_convergence.json (schema mip6-bench-v1).
#include "common.hpp"
#include "fault/auditor.hpp"
#include "fault/chaos.hpp"
#include "report.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

constexpr double kHorizonS = 90.0;

struct Scenario {
  const char* name;
  FaultPlan (*plan)();
  McastStrategy strategy;
  HaRegistration registration;
  bool roam;  // Receiver3 moves to Link6 at t=5 s
};

ReplicationResult run_scenario(const Scenario& sc, std::uint64_t seed) {
  WorldConfig config;
  // Short refresh so home-agent recovery is visible inside the horizon.
  config.mipv6.bu_refresh_interval = Time::sec(5);
  StrategyOptions strategy;
  strategy.strategy = sc.strategy;
  strategy.registration = sc.registration;
  Figure1 f = build_figure1(seed, config, strategy);
  Address group = Figure1::group();
  GroupReceiverApp app(*f.recv3->stack, kPort);
  f.recv3->service->subscribe(group);
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));
  if (sc.roam) {
    f.world->scheduler().schedule_at(Time::sec(5), [&f] {
      f.recv3->mn->move_to(*f.link6);
    });
  }
  ChaosEngine chaos(*f.world, sc.plan());
  chaos.arm();
  f.world->run_until(Time::sec(static_cast<std::int64_t>(kHorizonS)));

  ReplicationResult r;
  double total = 0;
  int disruptions = 0, recovered = 0;
  for (const auto& rec : chaos.recoveries(app)) {
    ++disruptions;
    if (auto rt = rec.recovery_time()) {
      ++recovered;
      total += rt->to_seconds();
    }
  }
  r["recovery_s"] = recovered > 0 ? total / recovered : kHorizonS;
  r["recovered_pct"] =
      disruptions > 0 ? 100.0 * recovered / disruptions : 100.0;
  r["audits_ok"] = chaos.all_audits_ok() ? 1.0 : 0.0;
  r["delivered_pct"] = 100.0 * static_cast<double>(app.unique_received()) /
                       static_cast<double>(source.sent());
  return r;
}

ReplicationResult run_random(int disruptions, std::uint64_t seed) {
  Figure1 f = build_figure1(seed);
  Address group = Figure1::group();
  GroupReceiverApp app(*f.recv3->stack, kPort);
  f.recv3->service->subscribe(group);
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));

  RandomPlanSpec spec;
  spec.start = Time::sec(10);
  spec.end = Time::sec(100);
  spec.disruptions = disruptions;
  spec.min_outage = Time::sec(2);
  spec.max_outage = Time::sec(8);
  spec.links = {"Link2", "Link3", "Link4"};
  spec.routers = {"RouterB", "RouterC", "RouterD"};
  spec.hosts = {"Receiver3"};
  // The plan is derived from the replication seed, so the whole run —
  // schedule, world and recoveries — is reproducible from one number.
  ChaosEngine chaos(*f.world, FaultPlan::random(spec, seed));
  chaos.arm();
  f.world->run_until(Time::sec(150));
  chaos.record_recoveries(app);

  ReplicationResult r;
  auto& c = f.world->net().counters();
  double rec = static_cast<double>(c.get("chaos/recovered"));
  double unrec = static_cast<double>(c.get("chaos/unrecovered"));
  r["recovery_s"] =
      rec > 0
          ? static_cast<double>(c.get("chaos/recovery-total-ns")) / rec / 1e9
          : 0.0;
  r["recovered_pct"] = 100.0 * rec / (rec + unrec);
  r["audits_ok"] = chaos.all_audits_ok() ? 1.0 : 0.0;
  r["delivered_pct"] = 100.0 * static_cast<double>(app.unique_received()) /
                       static_cast<double>(source.sent());
  return r;
}

/// Sum of every counter under `prefix` (e.g. "hpimdm/tx/").
double prefix_sum(CounterRegistry& c, const std::string& prefix) {
  double total = 0;
  for (const auto& [k, v] : c.snapshot()) {
    if (k.rfind(prefix, 0) == 0) total += static_cast<double>(v);
  }
  return total;
}

const char* engine_name(DenseEngineKind e) {
  return e == DenseEngineKind::kPimDm ? "pimdm" : "hpimdm";
}

/// One A/B replication: the given plan on Figure 1 under one engine, with
/// the Auditor integrating blackhole/duplication windows every 50 ms.
ReplicationResult run_ab(DenseEngineKind engine, const FaultPlan& plan,
                         std::uint64_t seed) {
  WorldConfig config;
  config.dense_engine = engine;
  Figure1 f = build_figure1(seed, config);
  Address group = Figure1::group();
  GroupReceiverApp app(*f.recv3->stack, kPort);
  f.recv3->service->subscribe(group);
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));

  Auditor auditor(*f.world);
  auditor.arm_window_sampler(Time::ms(50));
  ChaosEngine chaos(*f.world, plan);
  chaos.arm();
  f.world->run_until(Time::sec(60));
  auditor.sample_windows();  // charge the final partial interval

  ReplicationResult r;
  double total = 0;
  int disruptions = 0, recovered = 0;
  for (const auto& rec : chaos.recoveries(app)) {
    ++disruptions;
    if (auto rt = rec.recovery_time()) {
      ++recovered;
      total += rt->to_seconds();
    }
  }
  r["recovery_s"] = recovered > 0 ? total / recovered : 60.0;
  r["recovered_pct"] =
      disruptions > 0 ? 100.0 * recovered / disruptions : 100.0;
  double blackhole = 0, duplication = 0;
  for (const auto& [key, w] : auditor.windows()) {
    blackhole += w.blackhole_s;
    duplication += w.duplication_s;
  }
  r["blackhole_s"] = blackhole;
  r["duplication_s"] = duplication;
  r["control_msgs"] =
      prefix_sum(f.world->net().counters(),
                 std::string(engine_name(engine)) + "/tx/");
  r["audits_ok"] = chaos.all_audits_ok() ? 1.0 : 0.0;
  r["delivered_pct"] = 100.0 * static_cast<double>(app.unique_received()) /
                       static_cast<double>(source.sent());
  r["events"] = static_cast<double>(f.world->scheduler().executed_events());
  return r;
}

FaultPlan link_cut() {
  return FaultPlan()
      .link_down(Time::sec(30), "Link3")
      .link_up(Time::sec(35), "Link3");
}
FaultPlan degrade_l4() {
  return FaultPlan()
      .degrade(Time::sec(30), "Link4", LinkImpairment{0.3, 0.1, Time::ms(2)})
      .restore(Time::sec(35), "Link4");
}
FaultPlan crash_d() {
  return FaultPlan()
      .router_crash(Time::sec(30), "RouterD")
      .router_restart(Time::sec(35), "RouterD");
}
FaultPlan crash_b() {
  return FaultPlan()
      .router_crash(Time::sec(30), "RouterB")
      .router_restart(Time::sec(35), "RouterB");
}
FaultPlan crash_recv3() {
  return FaultPlan()
      .host_crash(Time::sec(30), "Receiver3")
      .host_restart(Time::sec(35), "Receiver3");
}
FaultPlan ha_out() {
  return FaultPlan()
      .ha_outage(Time::sec(30), "RouterD")
      .ha_restore(Time::sec(35), "RouterD");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = parse_reps(argc, argv, 4);
  if (smoke_mode()) reps = 1;
  header("ABL6: multicast re-convergence under injected faults",
         "Figure 1 topology, 10 dgram/s stream to Receiver3; every fault "
         "lasts 5 s (t=30..35 s), recovery = fault to first re-delivered "
         "datagram");

  const Scenario scenarios[] = {
      {"link cut (Link3)", link_cut, McastStrategy::kLocalMembership,
       HaRegistration::kTunnelMld, false},
      {"degrade 30%/10% (Link4)", degrade_l4, McastStrategy::kLocalMembership,
       HaRegistration::kTunnelMld, false},
      {"forwarder crash (RouterD)", crash_d, McastStrategy::kLocalMembership,
       HaRegistration::kTunnelMld, false},
      {"redundant crash (RouterB)", crash_b, McastStrategy::kLocalMembership,
       HaRegistration::kTunnelMld, false},
      {"receiver crash (Receiver3)", crash_recv3,
       McastStrategy::kLocalMembership, HaRegistration::kTunnelMld, false},
      {"HA outage, tunneled MN", ha_out, McastStrategy::kTunnelHaToMh,
       HaRegistration::kGroupListBu, true},
  };

  Table t1({"fault", "recovery mean", "recovery max", "recovered",
            "delivered", "audits"});
  for (const Scenario& sc : scenarios) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 61;
    auto m = run_replications(
        opts, [&](std::uint64_t seed) { return run_scenario(sc, seed); });
    t1.add_row({sc.name, fmt_double(m.at("recovery_s").mean(), 2) + " s",
                fmt_double(m.at("recovery_s").max(), 2) + " s",
                fmt_double(m.at("recovered_pct").mean(), 0) + " %",
                fmt_double(m.at("delivered_pct").mean(), 1) + " %",
                m.at("audits_ok").min() > 0 ? "ok" : "VIOLATED"});
  }
  std::printf("%s\n", t1.str().c_str());

  Table t2({"disruptions", "recovery mean", "recovered", "delivered",
            "audits"});
  for (int n : {2, 4, 8}) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 71;
    auto m = run_replications(
        opts, [&](std::uint64_t seed) { return run_random(n, seed); });
    t2.add_row({std::to_string(n),
                fmt_double(m.at("recovery_s").mean(), 2) + " s",
                fmt_double(m.at("recovered_pct").mean(), 0) + " %",
                fmt_double(m.at("delivered_pct").mean(), 1) + " %",
                m.at("audits_ok").min() > 0 ? "ok" : "VIOLATED"});
  }
  std::printf("%s\n", t2.str().c_str());

  // Part 3: the engine A/B. Identical seeded FaultPlans through both
  // dense-mode engines; blackhole/duplication are Auditor-integrated
  // windows (seconds of user-visible failure), control is the engine's
  // total tx message count over the 60 s run.
  struct AbCase {
    const char* name;
    const char* key;  // row key in the JSON report
    FaultPlan (*plan)();
  };
  const AbCase ab_cases[] = {
      {"forwarder crash (RouterD)", "crash_d", crash_d},
      {"link cut (Link3)", "link_cut", link_cut},
      {"redundant crash (RouterB)", "crash_b", crash_b},
  };
  BenchReport report("chaos_convergence");
  Table t3({"fault", "engine", "recovery mean", "blackhole", "duplication",
            "control msgs", "delivered", "audits"});
  WallTimer ab_timer;
  double ab_events = 0;
  for (const AbCase& ab : ab_cases) {
    for (DenseEngineKind engine :
         {DenseEngineKind::kPimDm, DenseEngineKind::kHpimDm}) {
      ReplicationOptions opts;
      opts.replications = reps;
      opts.base_seed = 81;
      auto m = run_replications(opts, [&](std::uint64_t seed) {
        return run_ab(engine, ab.plan(), seed);
      });
      ab_events += m.at("events").mean() * static_cast<double>(reps);
      t3.add_row({ab.name, engine_name(engine),
                  fmt_double(m.at("recovery_s").mean(), 2) + " s",
                  fmt_double(m.at("blackhole_s").mean(), 2) + " s",
                  fmt_double(m.at("duplication_s").mean(), 2) + " s",
                  fmt_double(m.at("control_msgs").mean(), 0),
                  fmt_double(m.at("delivered_pct").mean(), 1) + " %",
                  m.at("audits_ok").min() > 0 ? "ok" : "VIOLATED"});
      Json row = Json::object();
      row.set("fault", std::string(ab.key));
      row.set("engine", std::string(engine_name(engine)));
      row.set("recovery_s", m.at("recovery_s").mean());
      row.set("blackhole_s", m.at("blackhole_s").mean());
      row.set("duplication_s", m.at("duplication_s").mean());
      row.set("control_msgs", m.at("control_msgs").mean());
      row.set("delivered_pct", m.at("delivered_pct").mean());
      row.set("audits_ok", m.at("audits_ok").min() > 0);
      report.add_row(std::move(row));
      if (std::string(ab.key) == "crash_d") {
        std::string suffix = std::string("_") + engine_name(engine);
        report.metric("crash_recovery_s" + suffix,
                      m.at("recovery_s").mean());
        report.metric("crash_blackhole_s" + suffix,
                      m.at("blackhole_s").mean());
        report.metric("crash_control_msgs" + suffix,
                      m.at("control_msgs").mean());
      }
    }
  }
  std::printf("%s\n", t3.str().c_str());
  paper_note(
      "engine A/B under identical chaos: HPIM-DM's hard state survives the "
      "forwarder crash, so the post-restart blackhole window collapses from "
      "the MLD-relearn bound to the first forwarded datagram; its reliable "
      "acknowledged control replaces periodic re-flooding.");
  report.record_run(ab_timer.elapsed_s(), ab_events);
  report.metric("reps", static_cast<double>(reps));
  report.write();

  paper_note(
      "beyond the paper: its interoperation analysis assumes a healthy "
      "topology. Under injected faults the same machinery self-repairs — "
      "dense-mode flood plus MLD startup queries bound repair after a "
      "forwarder crash at roughly the query response interval, a cut "
      "branch heals as soon as the link returns, and the tunnel approaches "
      "(3/4) add a dependency the membership approach (2) does not have: "
      "after a home-agent outage, delivery returns only with the next "
      "Binding Update refresh carrying the group list.");
  return 0;
}
