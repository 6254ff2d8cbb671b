// DenseForwarder, the MFC data plane both dense-mode engines compose:
// renumbering flushes and per-interface counter cells, the fail-fast
// interface width, the never-cached "nothing downstream" state, and the
// stale-slot audit against the caller's oif list.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "pimdm/dense_forwarder.hpp"
#include "util/errors.hpp"

namespace mip6 {
namespace {

const Address kSource = Address::parse("2001:db8:99::1");
const Address kGroup = Address::parse("ff1e::7");

/// A minimal engine entry: one on/off switch per downstream interface.
struct Record {
  bool active = true;
};
struct Flow : DenseFlow {
  std::map<IfaceId, std::unique_ptr<Record>> downstream;
};

bool active(IfaceId, const Record& r) { return r.active; }

/// One bare router (no dense engine) on links A, B, C, plus a forwarder.
struct Harness {
  World world;
  Link& a;
  Link& b;
  Link& c;
  NodeRuntime& router;
  IfaceId ia, ib, ic;
  int hook_calls = 0;
  DenseForwarder fwd;
  Flow flow;

  Harness()
      : a(world.add_link("A")), b(world.add_link("B")), c(world.add_link("C")),
        router(world.add_router("R", {&a, &b, &c}, bare())),
        ia(router.node->interfaces()[0]->id()),
        ib(router.node->interfaces()[1]->id()),
        ic(router.node->interfaces()[2]->id()),
        fwd(*router.stack, "fwdtest", Time::sec(210),
            [this](const Address&) { ++hook_calls; }) {
    flow.source = kSource;
    flow.group = kGroup;
    flow.entry_timer = std::make_unique<Timer>(world.scheduler(), [] {});
  }

  static RouterOptions bare() {
    RouterOptions o;
    o.with_pim = o.with_ha = o.with_proxy = o.with_ar_agent = false;
    return o;
  }

  Packet datagram() {
    DatagramSpec spec;
    spec.src = kSource;
    spec.dst = kGroup;
    spec.payload = Bytes(16, 0xab);
    return world.net().make_packet(build_datagram(spec));
  }

  std::uint64_t counter(const std::string& name) {
    return world.net().counters().get("fwdtest/" + name);
  }

  /// stale_slots() with `flow` as the only entry the engine holds.
  std::vector<std::string> stale() const {
    return fwd.stale_slots(
        [this](const Address& s, const Address& g) -> const Flow* {
          return s == flow.source && g == flow.group ? &flow : nullptr;
        },
        [](const DenseFlow& f) {
          std::vector<IfaceId> out;
          const Flow& entry = static_cast<const Flow&>(f);
          for (const auto& [iface, r] : entry.downstream) {
            if (active(iface, *r)) out.push_back(iface);
          }
          return out;
        });
  }
};

TEST(DenseForwarder, LowerIfaceRegistrationFlushesAndKeepsPerIfaceCells) {
  Harness h;
  ASSERT_LT(h.ia, h.ib);
  ASSERT_LT(h.ib, h.ic);
  // Two flows crossing the router between A and C; B is not registered.
  h.fwd.enable_iface(h.ia);
  h.fwd.enable_iface(h.ic);
  h.flow.incoming = h.ia;
  h.flow.downstream.emplace(h.ic, std::make_unique<Record>());
  Flow back;
  back.source = Address::parse("2001:db8:99::2");
  back.group = kGroup;
  back.incoming = h.ic;
  back.downstream.emplace(h.ia, std::make_unique<Record>());
  back.entry_timer = std::make_unique<Timer>(h.world.scheduler(), [] {});

  Packet pkt = h.datagram();
  auto hit = [&](const Flow& f) {
    return h.fwd.forward_hit(f.source, f.group, pkt, f.incoming);
  };
  EXPECT_FALSE(hit(h.flow));
  EXPECT_FALSE(hit(back));
  EXPECT_TRUE(h.fwd.forward(h.flow, pkt, active));
  EXPECT_TRUE(h.fwd.forward(back, pkt, active));
  EXPECT_TRUE(hit(h.flow));
  EXPECT_TRUE(hit(back));

  // B sorts between A and C: C's index moves up, so the cached bitmap
  // (whose bit for C now names B) must be gone and refilled.
  h.fwd.enable_iface(h.ib);
  EXPECT_FALSE(hit(h.flow));
  EXPECT_FALSE(hit(back));
  EXPECT_TRUE(h.fwd.forward(h.flow, pkt, active));
  EXPECT_TRUE(h.fwd.forward(back, pkt, active));
  EXPECT_TRUE(hit(h.flow));
  EXPECT_TRUE(hit(back));

  // The per-interface cells followed the renumbering.
  auto cell = [&](const char* name, IfaceId i) {
    return h.counter(std::string(name) + ".if" + std::to_string(i));
  };
  EXPECT_EQ(cell("mfc-hit", h.ia), 2u);
  EXPECT_EQ(cell("mfc-hit", h.ic), 2u);
  EXPECT_EQ(cell("mfc-hit", h.ib), 0u);
  EXPECT_EQ(cell("mfc-miss", h.ia), 2u);
  EXPECT_EQ(cell("mfc-miss", h.ic), 2u);
  EXPECT_EQ(h.counter("mfc-hit"), 4u);
  EXPECT_EQ(h.counter("mfc-miss"), 4u);
  // Every replica left on its flow's oif, none on B.
  EXPECT_EQ(h.counter("data-fwd"), 8u);
  EXPECT_EQ(h.c.tx_packets(), 4u);
  EXPECT_EQ(h.a.tx_packets(), 4u);
  EXPECT_EQ(h.b.tx_packets(), 0u);
}

TEST(DenseForwarder, RegisteringMoreThanIfSetWidthThrows) {
  Harness h;
  for (std::size_t i = 0; i < IfSet::kBits; ++i) {
    h.fwd.enable_iface(static_cast<IfaceId>(1000 + i));
  }
  EXPECT_THROW(h.fwd.enable_iface(static_cast<IfaceId>(1000 + IfSet::kBits)),
               LogicError);
}

TEST(DenseForwarder, EmptyOifSetWithoutLocalReceiverIsNotCached) {
  Harness h;
  h.fwd.enable_iface(h.ib);
  h.fwd.enable_iface(h.ic);
  h.flow.incoming = h.ib;
  h.flow.downstream.emplace(h.ic, std::make_unique<Record>(Record{false}));

  Packet pkt = h.datagram();
  EXPECT_FALSE(h.fwd.forward(h.flow, pkt, active));
  EXPECT_EQ(h.fwd.cache_size(), 0u);
  EXPECT_FALSE(h.fwd.forward_hit(kSource, kGroup, pkt, h.ib));

  // A local-receiver pin makes the same empty set worth caching; the hook
  // fires on the group's first pin and on its last unpin only.
  h.fwd.add_local_receiver(kGroup);
  h.fwd.add_local_receiver(kGroup);
  EXPECT_EQ(h.hook_calls, 1);
  EXPECT_TRUE(h.fwd.forward(h.flow, pkt, active));
  EXPECT_EQ(h.fwd.cache_size(), 1u);
  EXPECT_TRUE(h.fwd.forward_hit(kSource, kGroup, pkt, h.ib));
  h.fwd.remove_local_receiver(kGroup);
  EXPECT_EQ(h.hook_calls, 1);
  h.fwd.remove_local_receiver(kGroup);
  EXPECT_EQ(h.hook_calls, 2);
  EXPECT_FALSE(h.fwd.is_local_receiver(kGroup));
  EXPECT_EQ(h.counter("data-fwd"), 0u);
}

TEST(DenseForwarder, StaleSlotsReportsAnOifChangeUntilInvalidated) {
  Harness h;
  h.fwd.enable_iface(h.ia);
  h.fwd.enable_iface(h.ib);
  h.fwd.enable_iface(h.ic);
  h.flow.incoming = h.ia;
  h.flow.downstream.emplace(h.ib, std::make_unique<Record>());
  h.flow.downstream.emplace(h.ic, std::make_unique<Record>());

  Packet pkt = h.datagram();
  ASSERT_TRUE(h.fwd.forward(h.flow, pkt, active));
  EXPECT_EQ(h.stale(), std::vector<std::string>{});

  // The control plane drops C from the oif list without telling the
  // forwarder: the slot still fans out onto B and C.
  h.flow.downstream.at(h.ic)->active = false;
  std::vector<std::string> v = h.stale();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("oifs { " + std::to_string(h.ib) + " " +
                      std::to_string(h.ic) + " } count 2; entry iif " +
                      std::to_string(h.ia) + " oifs { " +
                      std::to_string(h.ib) + " }"),
            std::string::npos)
      << v[0];

  h.fwd.invalidate(h.flow);
  EXPECT_EQ(h.stale(), std::vector<std::string>{});

  // A slot whose entry is gone, or anchored elsewhere, is stale too.
  ASSERT_TRUE(h.fwd.forward(h.flow, pkt, active));
  h.flow.incoming = h.ib;
  h.flow.downstream.erase(h.ib);
  v = h.stale();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("entry iif " + std::to_string(h.ib)), std::string::npos)
      << v[0];
  h.flow.group = Address::parse("ff1e::8");
  v = h.stale();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("no (S,G) entry"), std::string::npos) << v[0];
}

}  // namespace
}  // namespace mip6
