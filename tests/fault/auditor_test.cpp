// Auditor: a healthy converged Figure 1 world passes every check, and
// deliberately corrupted cross-node state fails loudly.
#include <gtest/gtest.h>

#include "core/figure1.hpp"
#include "core/traffic.hpp"
#include "fault/auditor.hpp"

namespace mip6 {
namespace {

constexpr std::uint16_t kPort = Figure1::kDataPort;

/// Figure 1 with traffic flowing and Receiver3 roaming to Link6, run to a
/// converged instant.
Figure1 converged_world(std::uint64_t seed, bool move_recv3) {
  Figure1 f = build_figure1(seed);
  Address group = Figure1::group();
  f.recv1->service->subscribe(group);
  f.recv3->service->subscribe(group);
  auto* sender = f.sender;
  auto source = std::make_shared<CbrSource>(
      f.world->scheduler(),
      [sender, group](Bytes p) {
        sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source->start(Time::sec(1));
  if (move_recv3) {
    f.world->scheduler().schedule_at(Time::sec(10), [&f] {
      f.recv3->mn->move_to(*f.link6);
    });
  }
  f.world->run_until(Time::sec(60));
  source->stop();
  return f;
}

TEST(Auditor, CleanWorldPassesStructuralChecks) {
  Figure1 f = converged_world(21, /*move_recv3=*/true);
  Auditor auditor(*f.world);
  AuditReport r = auditor.run();
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(f.world->net().counters().get("audit/runs"), 0u);
}

TEST(Auditor, CleanWorldPassesQuiescedChecks) {
  Figure1 f = converged_world(23, /*move_recv3=*/true);
  AuditorConfig cfg;
  cfg.quiesced = true;
  Auditor auditor(*f.world, cfg);
  AuditReport r = auditor.run();
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(Auditor, WrongCareOfBindingFailsLoudly) {
  Figure1 f = converged_world(25, /*move_recv3=*/true);
  // Receiver3 is away on Link6 with an acknowledged binding at RouterD.
  ASSERT_TRUE(f.recv3->mn->away_from_home());
  ASSERT_TRUE(f.recv3->mn->binding_acked());
  ASSERT_NE(f.d->ha->cache().find(f.recv3->mn->home_address()), nullptr);

  // Corrupt the binding: point it at an address the MN never configured
  // (a stale replica adopted from a redundancy peer, say).
  f.d->ha->adopt_binding(f.recv3->mn->home_address(),
                         Address::parse("2001:db8:6::dead"), 999,
                         Time::sec(100), {});

  Auditor auditor(*f.world);
  AuditReport r = auditor.run();
  ASSERT_FALSE(r.ok()) << "auditor missed the corrupted binding";
  bool found = false;
  for (const auto& v : r.violations) {
    if (v.check == "binding-care-of-mismatch") found = true;
  }
  EXPECT_TRUE(found) << r.str();
  EXPECT_GT(f.world->net().counters().get("audit/violations"), 0u);
}

TEST(Auditor, LostMldListenerStateFailsQuiescedCoverage) {
  Figure1 f = converged_world(27, /*move_recv3=*/false);
  // Wipe RouterD's MLD state behind the protocol's back: Receiver3 is still
  // joined on Link4, so the quiesced superset invariant must break.
  f.d->mld->shutdown();
  AuditorConfig cfg;
  cfg.quiesced = true;
  Auditor auditor(*f.world, cfg);
  AuditReport r = auditor.run();
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    if (v.check == "mld-listener-missing") found = true;
  }
  EXPECT_TRUE(found) << r.str();
}

TEST(Auditor, OifChangeTheEngineNeverHeardOfLeavesAStaleCacheSlot) {
  Figure1 f = converged_world(33, /*move_recv3=*/false);
  const Address group = Figure1::group();
  ASSERT_TRUE(Auditor(*f.world).run().ok());
  // Detach RouterD's engine from MLD, then let Receiver3 leave: MLD drops
  // the Link4 listener, RouterD's oif list loses Link4, but nothing
  // invalidates the cached (S,G) slot that still fans out onto it.
  ASSERT_NE(f.d->dense->mfc_entries(), 0u);
  f.d->mld->set_group_callback(nullptr);
  f.recv3->service->unsubscribe(group);
  f.world->run_until(Time::sec(75));
  ASSERT_FALSE(f.d->mld->has_listeners(f.d->iface_on(*f.link4), group));

  AuditReport r = Auditor(*f.world).run();
  bool found = false;
  for (const auto& v : r.violations) {
    if (v.check == "flow-cache-stale" &&
        v.detail.rfind(f.d->node->name(), 0) == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << r.str();
}

TEST(Auditor, MissingBindingForAckedMnFailsQuiesced) {
  Figure1 f = converged_world(29, /*move_recv3=*/true);
  ASSERT_TRUE(f.recv3->mn->binding_acked());
  // Drop the binding without telling the MN (an HA reboot would do this).
  f.d->ha->drop_binding(f.recv3->mn->home_address());
  AuditorConfig cfg;
  cfg.quiesced = true;
  Auditor auditor(*f.world, cfg);
  AuditReport r = auditor.run();
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    if (v.check == "binding-missing") found = true;
  }
  EXPECT_TRUE(found) << r.str();
}

TEST(Auditor, ChecksCanBeDisabledIndividually) {
  Figure1 f = converged_world(31, /*move_recv3=*/true);
  f.d->ha->adopt_binding(f.recv3->mn->home_address(),
                         Address::parse("2001:db8:6::dead"), 999,
                         Time::sec(100), {});
  AuditorConfig cfg;
  cfg.check_binding_coherence = false;
  Auditor auditor(*f.world, cfg);
  EXPECT_TRUE(auditor.run().ok());
}

}  // namespace
}  // namespace mip6
