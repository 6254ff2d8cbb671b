// RPF re-anchoring, run for both dense-mode engines: when the unicast route
// toward a source moves while its stream is flowing, the (S,G) entry
// follows the RIB onto the new incoming interface on the first datagram
// that arrives there, drops that interface from its oif list, makes the
// old incoming interface a candidate oif, and keeps delivering to the
// receivers behind both.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/world.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::9");
constexpr std::uint16_t kPort = 9000;

WorldConfig engine_world(DenseEngineKind kind) {
  WorldConfig config;
  config.dense_engine = kind;
  return config;
}

/// A ring of four routers around the source's link:
///
///   S --L0-- R0 --Lx-- R1 --La-- R3 --L3-- H
///            |         |         |
///            |         L1-- H1   |
///            |                   |
///            +--Lb-- R2 --Ld-----+
///                         |
///                         H2
///
/// R3 reaches S in two router hops either way; the routing BFS expands
/// R0's interfaces in attach order, so R3's RPF interface starts on La.
/// H2 is a member on the Ld LAN: R2 (two hops from S) wins the Assert
/// there against R3 (three hops) and keeps forwarding onto Ld for it, so
/// data keeps arriving on R3's Ld interface throughout. Taking Lx down
/// moves R3's route toward S onto Ld, and R1's (for its member H1) onto
/// La, R3's old incoming interface.
struct Ring {
  World world;
  Link& l0;
  Link& lx;
  Link& lb;
  Link& la;
  Link& ld;
  Link& l3;
  Link& l1;
  NodeRuntime& r0;
  NodeRuntime& r1;
  NodeRuntime& r2;
  NodeRuntime& r3;
  NodeRuntime& sender;
  NodeRuntime& host;
  NodeRuntime& host2;
  NodeRuntime& host1;
  GroupReceiverApp app;
  GroupReceiverApp app2;
  GroupReceiverApp app1;
  CbrSource source;

  explicit Ring(DenseEngineKind kind)
      : world(3, engine_world(kind)), l0(world.add_link("L0")),
        lx(world.add_link("Lx")), lb(world.add_link("Lb")),
        la(world.add_link("La")), ld(world.add_link("Ld")),
        l3(world.add_link("L3")), l1(world.add_link("L1")),
        r0(world.add_router("R0", {&l0, &lx, &lb})),
        r1(world.add_router("R1", {&lx, &la, &l1})),
        r2(world.add_router("R2", {&lb, &ld})),
        r3(world.add_router("R3", {&la, &ld, &l3})),
        sender(world.add_host("S", l0)), host(world.add_host("H", l3)),
        host2(world.add_host("H2", ld)), host1(world.add_host("H1", l1)),
        app(*host.stack, kPort), app2(*host2.stack, kPort),
        app1(*host1.stack, kPort),
        source(
            world.scheduler(),
            [this](Bytes p) {
              sender.service->send_multicast(kGroup, kPort, kPort,
                                             std::move(p));
            },
            Time::ms(100), 32) {
    world.finalize();
    host.mld_host->join(host.iface(), kGroup);
    host2.mld_host->join(host2.iface(), kGroup);
    host1.mld_host->join(host1.iface(), kGroup);
    source.start(Time::sec(1));
  }

  Address src() const { return sender.mn->home_address(); }
  std::uint64_t counter(const std::string& name) {
    return world.net().counters().get(name);
  }
};

class RpfReanchor : public ::testing::TestWithParam<DenseEngineKind> {
 protected:
  static std::string engine_name() {
    return GetParam() == DenseEngineKind::kPimDm ? "pimdm" : "hpimdm";
  }
  /// No router holds a flow-cache slot its engine disagrees with (a slot
  /// left in the old incoming interface's sub-table would show here).
  static void expect_coherent_caches(const Ring& t) {
    for (const NodeRuntime* r : {&t.r0, &t.r1, &t.r2, &t.r3}) {
      EXPECT_EQ(r->dense->flow_cache_violations(), std::vector<std::string>{})
          << r->node->name();
    }
  }
};

TEST_P(RpfReanchor, EntryFollowsTheRibOntoTheNewInterface) {
  Ring t(GetParam());
  DenseModeEngine& r3 = *t.r3.dense;
  const IfaceId la = t.r3.iface_on(t.la);
  const IfaceId ld = t.r3.iface_on(t.ld);

  t.world.run_until(Time::sec(20));
  // Premise: R3 is anchored on La, lost the Ld Assert to R2, and both
  // members receive.
  ASSERT_TRUE(r3.has_entry(t.src(), kGroup));
  ASSERT_EQ(r3.incoming(t.src(), kGroup), la);
  ASSERT_TRUE(r3.assert_loser(t.src(), kGroup, ld));
  ASSERT_EQ(t.counter(engine_name() + "/rpf-updated"), 0u);
  ASSERT_GT(t.app.received_in(Time::sec(10), Time::sec(20)), 90u);
  ASSERT_GT(t.app2.received_in(Time::sec(10), Time::sec(20)), 90u);

  // Link fault plus routing recompute: R3's route toward S moves to Ld.
  t.lx.set_up(false);
  t.world.routing().recompute();
  const Route* route = t.r3.stack->rib().lookup(t.src());
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->out_iface, ld);

  t.world.run_until(Time::sec(40));
  EXPECT_GT(t.counter(engine_name() + "/rpf-updated"), 0u);
  EXPECT_EQ(r3.incoming(t.src(), kGroup), route->out_iface);
  EXPECT_EQ(r3.rpf_neighbor_of(t.src(), kGroup), route->next_hop);
  const std::vector<IfaceId> oifs = r3.outgoing(t.src(), kGroup);
  EXPECT_EQ(std::count(oifs.begin(), oifs.end(), ld), 0);
  EXPECT_EQ(std::count(oifs.begin(), oifs.end(), t.r3.iface_on(t.l3)), 1);
  // The receiver behind R3 keeps receiving over the new path, and so does
  // the member on the new upstream LAN.
  EXPECT_GT(t.app.received_in(Time::sec(30), Time::sec(40)), 90u);
  EXPECT_GT(t.app2.received_in(Time::sec(30), Time::sec(40)), 90u);
  expect_coherent_caches(t);
}

TEST_P(RpfReanchor, OldIncomingInterfaceBecomesACandidateOif) {
  Ring t(GetParam());
  DenseModeEngine& r3 = *t.r3.dense;
  const IfaceId la = t.r3.iface_on(t.la);

  t.world.run_until(Time::sec(20));
  ASSERT_EQ(r3.incoming(t.src(), kGroup), la);
  ASSERT_GT(t.app1.received_in(Time::sec(10), Time::sec(20)), 90u);

  // R3 re-anchors onto Ld; R1's route toward S now runs back through La,
  // so only R3 can feed H1, and only if La rejoins its oif list.
  t.lx.set_up(false);
  t.world.routing().recompute();
  const Route* route = t.r1.stack->rib().lookup(t.src());
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->out_iface, t.r1.iface_on(t.la));

  t.world.run_until(Time::sec(400));
  EXPECT_EQ(r3.incoming(t.src(), kGroup), t.r3.iface_on(t.ld));
  const std::vector<IfaceId> oifs = r3.outgoing(t.src(), kGroup);
  EXPECT_EQ(std::count(oifs.begin(), oifs.end(), la), 1);
  // 3800 datagrams, long past every soft-state timer (data timeout
  // 210 s): without the old iif as an oif, H1 gets none of them.
  EXPECT_GE(t.app1.received_in(Time::sec(20), Time::sec(400)), 3700u);
  EXPECT_GE(t.app.received_in(Time::sec(20), Time::sec(400)), 3700u);
  expect_coherent_caches(t);
}

std::string engine_label(
    const ::testing::TestParamInfo<DenseEngineKind>& param) {
  return param.param == DenseEngineKind::kPimDm ? "PimDm" : "HpimDm";
}

INSTANTIATE_TEST_SUITE_P(DenseEngines, RpfReanchor,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         engine_label);

}  // namespace
}  // namespace mip6
