// Flow-cache invalidation regression: the (S,G) MFC layer must be
// invisible. One seeded Figure 1 run exercises every oif-changing
// transition — MLD join/leave (prune + graft), asserts on the looped
// links, router crash/restart, and neighbor expiry (shortened hello
// holdtime, outage longer than it) — and the run with the flow cache on
// must produce a byte-identical trace, identical delivery and identical
// counters (cache hit/miss aside) to the run with it off. A missed
// invalidation shows up here as a stale-cache blackhole: the Auditor's
// delivery checks fail and the traces diverge at the first wrong
// forwarding decision.
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
  std::string trace;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t delivered = 0;
  std::uint64_t mfc_hits = 0;
  bool audits_ok = false;
};

RunOutput run_scenario(DenseEngineKind engine, bool mfc, std::uint64_t seed) {
  WorldConfig config;
  config.dense_engine = engine;
  config.mfc = mfc;
  // Fast hellos + a holdtime shorter than the outage below, so the crash
  // also exercises the neighbor-expiry invalidation path on RouterD's
  // peers (default holdtime would outlive the test).
  config.pim.hello_period = Time::sec(5);
  config.pim.hello_holdtime = Time::sec(16);
  config.hpim.hello_period = Time::sec(5);
  config.hpim.hello_holdtime_s = 16;

  Figure1 f = build_figure1(seed, config);
  std::vector<TraceRecord> records;
  f.world->net().trace().set_sink(Trace::recorder(records));

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

  // Crash RouterD long enough for its neighbors' holdtimes to expire,
  // then bring it back (entry/cache rebuild + resync).
  FaultPlan plan;
  plan.router_crash(Time::sec(20), "RouterD")
      .router_restart(Time::sec(40), "RouterD");
  ChaosEngine chaos(*f.world, plan);
  chaos.arm();

  f.world->run_until(Time::sec(60));

  RunOutput out;
  for (const TraceRecord& r : records) out.trace += r.str() + "\n";
  auto& counters = f.world->net().counters();
  out.mfc_hits = counters.get("pimdm/mfc-hit") + counters.get("hpimdm/mfc-hit");
  for (auto& [name, value] : counters.snapshot()) {
    // The hit/miss tallies are the one legitimate difference between the
    // cached and uncached data planes.
    if (name.find("mfc") != std::string::npos) continue;
    out.counters.emplace_back(name, value);
  }
  out.delivered = app3.unique_received() + app1.unique_received();
  out.audits_ok = chaos.all_audits_ok();
  return out;
}

class MfcInvalidation : public ::testing::TestWithParam<DenseEngineKind> {};

TEST_P(MfcInvalidation, CachedDataPlaneIsByteIdenticalToUncached) {
  RunOutput cached = run_scenario(GetParam(), /*mfc=*/true, 71);
  RunOutput uncached = run_scenario(GetParam(), /*mfc=*/false, 71);

  // The cache actually engaged — otherwise this proves nothing.
  EXPECT_GT(cached.mfc_hits, 0u);
  EXPECT_EQ(uncached.mfc_hits, 0u);

  EXPECT_GT(cached.delivered, 0u);
  EXPECT_EQ(cached.delivered, uncached.delivered);
  EXPECT_GT(cached.trace.size(), 0u);
  EXPECT_EQ(cached.trace, uncached.trace);
  EXPECT_EQ(cached.counters, uncached.counters);
  EXPECT_TRUE(cached.audits_ok);
  EXPECT_TRUE(uncached.audits_ok);
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
