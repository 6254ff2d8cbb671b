// Flow-cache invalidation regression: the (S,G) MFC layer must be
// invisible. One seeded Figure 1 run exercises every oif-changing
// transition — MLD join/leave (prune + graft), asserts on the looped
// links, router crash/restart, and neighbor expiry (shortened hello
// holdtime, outage longer than it) — and at every step of at most 1 ms of
// simulated time, every fresh flow-cache slot on every router must agree
// with its engine's state machine (DenseModeEngine::flow_cache_violations:
// right entry, right incoming interface, exactly the outgoing() list).
// Coherent slots at every step mean a hit forwards exactly what the miss
// path would, so a missed invalidation shows up here at the first step
// after the transition it missed, even for a slot no datagram ever hits.
// Figure 1 offers no second path toward the sender, so RPF re-anchoring
// is checked the same way on the ring of tests/pimdm/rpf_reanchor_test.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/figure1.hpp"
#include "core/traffic.hpp"
#include "fault/chaos.hpp"

namespace mip6 {
namespace {

constexpr std::uint16_t kPort = Figure1::kDataPort;

struct RunOutput {
  /// The first step's violations ("@<time> <router> <detail>"), if any.
  std::vector<std::string> violations;
  std::uint64_t delivered = 0;
  std::uint64_t mfc_hits = 0;
  bool audits_ok = false;
};

RunOutput run_scenario(DenseEngineKind engine, std::uint64_t seed) {
  WorldConfig config;
  config.dense_engine = engine;
  // Fast hellos + a holdtime shorter than the outage below, so the crash
  // also exercises the neighbor-expiry invalidation path on RouterD's
  // peers (default holdtime would outlive the test).
  config.pim.hello_period = Time::sec(5);
  config.pim.hello_holdtime = Time::sec(16);
  config.hpim.hello_period = Time::sec(5);
  config.hpim.hello_holdtime_s = 16;

  Figure1 f = build_figure1(seed, config);

  Address group = Figure1::group();
  GroupReceiverApp app3(*f.recv3->stack, kPort);
  GroupReceiverApp app1(*f.recv1->stack, kPort);
  f.recv3->service->subscribe(group);
  auto* sender = f.sender;
  CbrSource source(
      f.world->scheduler(),
      [sender, group](Bytes p) {
        sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));

  // Mid-run membership churn: a join (graft / interest flip toward the
  // sender) and a late leave (prune) while data keeps flowing.
  NodeRuntime* recv1 = f.recv1;
  f.world->scheduler().schedule_at(Time::sec(12), [recv1, group] {
    recv1->service->subscribe(group);
  });
  f.world->scheduler().schedule_at(Time::sec(48), [recv1, group] {
    recv1->service->unsubscribe(group);
  });
  // Receiver1 shares the sender's link, so its churn never changes an oif
  // set. Receiver3 is RouterD's only member, on its stub Link4: its leave
  // empties the oif set under a cached slot, its return grafts back.
  NodeRuntime* recv3 = f.recv3;
  f.world->scheduler().schedule_at(Time::sec(50), [recv3, group] {
    recv3->service->unsubscribe(group);
  });
  f.world->scheduler().schedule_at(Time::sec(54), [recv3, group] {
    recv3->service->subscribe(group);
  });

  // Crash RouterD long enough for its neighbors' holdtimes to expire,
  // then bring it back (entry/cache rebuild + resync).
  FaultPlan plan;
  plan.router_crash(Time::sec(20), "RouterD")
      .router_restart(Time::sec(40), "RouterD");
  ChaosEngine chaos(*f.world, plan);
  chaos.arm();

  RunOutput out;
  for (Time t = Time::ms(1); t <= Time::sec(60); t = t + Time::ms(1)) {
    f.world->run_until(t);
    for (const auto& r : f.world->routers()) {
      if (r->dense == nullptr) continue;
      for (const std::string& v : r->dense->flow_cache_violations()) {
        out.violations.push_back("@" + t.str() + " " + r->node->name() +
                                 " " + v);
      }
    }
    if (!out.violations.empty()) break;
  }

  auto& counters = f.world->net().counters();
  out.mfc_hits = counters.get("pimdm/mfc-hit") + counters.get("hpimdm/mfc-hit");
  out.delivered = app3.unique_received() + app1.unique_received();
  out.audits_ok = chaos.all_audits_ok();
  return out;
}

class MfcInvalidation : public ::testing::TestWithParam<DenseEngineKind> {};

TEST_P(MfcInvalidation, CacheAgreesWithEngine) {
  RunOutput run = run_scenario(GetParam(), 71);

  EXPECT_EQ(run.violations, std::vector<std::string>{});
  // The cache actually engaged — otherwise this proves nothing.
  EXPECT_GT(run.mfc_hits, 0u);
  EXPECT_GT(run.delivered, 0u);
  EXPECT_TRUE(run.audits_ok);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, MfcInvalidation,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         [](const auto& param_info) {
                           return param_info.param == DenseEngineKind::kPimDm
                                      ? "pimdm"
                                      : "hpimdm";
                         });

}  // namespace
}  // namespace mip6
