// The DenseModeEngine contract, checked for both engines through the
// engine-neutral interface only: what an unknown (S,G) answers, key/count
// agreement, the enabled-interface set across a crash and restart,
// neighbor state after reset(), and local-receiver reference counting.
#include <gtest/gtest.h>

#include <string>

#include "core/traffic.hpp"
#include "core/world.hpp"
#include "util/errors.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::b");
const Address kOtherGroup = Address::parse("ff1e::c");
const Address kUnknownSource = Address::parse("2001:db8:77::1");
constexpr std::uint16_t kPort = 9000;

/// sender -- L0 -- R0 -- L1 -- R1 -- L2 -- host, a CBR stream from 1 s.
struct Chain {
  World world;
  Link& l0;
  Link& l1;
  Link& l2;
  NodeRuntime& r0;
  NodeRuntime& r1;
  NodeRuntime& sender;
  NodeRuntime& host;
  CbrSource source;

  explicit Chain(DenseEngineKind kind)
      : world(5, config_for(kind)), l0(world.add_link("L0")),
        l1(world.add_link("L1")), l2(world.add_link("L2")),
        r0(world.add_router("R0", {&l0, &l1})),
        r1(world.add_router("R1", {&l1, &l2})),
        sender(world.add_host("S", l0)), host(world.add_host("H", l2)),
        source(
            world.scheduler(),
            [this](Bytes p) {
              sender.service->send_multicast(kGroup, kPort, kPort,
                                             std::move(p));
            },
            Time::ms(100), 32) {
    world.finalize();
    host.mld_host->join(host.iface(), kGroup);
    source.start(Time::sec(1));
  }

  static WorldConfig config_for(DenseEngineKind kind) {
    WorldConfig config;
    config.dense_engine = kind;
    return config;
  }
};

class DenseEngineContract : public ::testing::TestWithParam<DenseEngineKind> {};

TEST_P(DenseEngineContract, UnknownEntryAnswersNeutrallyOrThrows) {
  Chain t(GetParam());
  t.world.run_until(Time::sec(5));
  DenseModeEngine& e = *t.r1.dense;
  const IfaceId i = t.r1.iface_on(t.l2);
  EXPECT_FALSE(e.has_entry(kUnknownSource, kGroup));
  EXPECT_TRUE(e.outgoing(kUnknownSource, kGroup).empty());
  EXPECT_FALSE(e.upstream_pruned(kUnknownSource, kGroup));
  EXPECT_FALSE(e.assert_loser(kUnknownSource, kGroup, i));
  EXPECT_FALSE(e.downstream_pruned(kUnknownSource, kGroup, i));
  EXPECT_THROW((void)e.incoming(kUnknownSource, kGroup), LogicError);
  EXPECT_THROW((void)e.rpf_neighbor_of(kUnknownSource, kGroup), LogicError);
}

TEST_P(DenseEngineContract, KeysMatchEntryCount) {
  Chain t(GetParam());
  t.world.run_until(Time::sec(5));
  for (NodeRuntime* r : {&t.r0, &t.r1}) {
    const DenseModeEngine& e = *r->dense;
    EXPECT_GT(e.entry_count(), 0u) << r->node->name();
    EXPECT_EQ(e.sg_keys().size(), e.entry_count()) << r->node->name();
    for (const DenseModeEngine::SgKey& k : e.sg_keys()) {
      EXPECT_TRUE(e.has_entry(k.source, k.group));
    }
  }
}

TEST_P(DenseEngineContract, EnabledInterfacesSurviveCrashAndRestart) {
  Chain t(GetParam());
  t.world.run_until(Time::sec(5));
  DenseModeEngine& e = *t.r1.dense;
  const std::vector<IfaceId> before = e.enabled_ifaces();
  ASSERT_EQ(before.size(), 2u);
  t.r1.node->crash();
  t.world.run_until(Time::sec(8));
  t.r1.node->restart();
  EXPECT_EQ(e.enabled_ifaces(), before);
  t.world.run_until(Time::sec(12));
  EXPECT_EQ(e.enabled_ifaces(), before);
}

TEST_P(DenseEngineContract, ResetForgetsNeighbors) {
  Chain t(GetParam());
  t.world.run_until(Time::sec(5));
  DenseModeEngine& e = *t.r1.dense;
  const IfaceId i = t.r1.iface_on(t.l1);
  ASSERT_FALSE(e.neighbors(i).empty());
  e.reset();
  EXPECT_TRUE(e.neighbors(i).empty());
}

TEST_P(DenseEngineContract, LocalReceiverPinsAreReferenceCounted) {
  Chain t(GetParam());
  t.world.run_until(Time::sec(2));
  DenseModeEngine& e = *t.r0.dense;
  ASSERT_FALSE(e.is_local_receiver(kOtherGroup));
  e.add_local_receiver(kOtherGroup);
  e.add_local_receiver(kOtherGroup);
  e.remove_local_receiver(kOtherGroup);
  EXPECT_TRUE(e.is_local_receiver(kOtherGroup));
  e.remove_local_receiver(kOtherGroup);
  EXPECT_FALSE(e.is_local_receiver(kOtherGroup));
}

std::string engine_label(
    const ::testing::TestParamInfo<DenseEngineKind>& param) {
  return param.param == DenseEngineKind::kPimDm ? "PimDm" : "HpimDm";
}

INSTANTIATE_TEST_SUITE_P(DenseEngines, DenseEngineContract,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         engine_label);

}  // namespace
}  // namespace mip6
