// SCALE — hot-path throughput sweep over topology size × group count ×
// receiver mobility rate on seeded random topologies. This is the bench the
// perf trajectory is judged against: every cell records wall time and
// executed scheduler events per replication, and the headline ns/event //
// events/s aggregate lands in BENCH_scale.json (schema in docs/PERF.md).
// The sweep axes mirror the scaling studies of the related literature
// (Helmy cs/0006022; Schmidt & Wählisch cs/0408009): credible mobility
// numbers need topology size and handover rate swept together.
#include <map>
#include <tuple>

#include "common.hpp"
#include "core/random_topology.hpp"
#include "report.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

struct Cell {
  std::size_t routers;
  std::size_t groups;
  int dwell_s;  // 0 = static receivers
  /// Fanout cap handed to the topology generator (0 = unbounded). The
  /// large cells need one so no router exceeds the MFC interface budget.
  std::size_t max_fanout = 0;
  /// 0 = use the sweep-wide replication count.
  std::size_t reps_override = 0;
  /// Headline cells feed the aggregate ns/event // events/s trajectory;
  /// the large memory-envelope cells are reported per-row only so the
  /// headline stays comparable across runs.
  bool headline = true;
  /// In-world worker shards (World::enable_parallel): 1 = serial. Parallel
  /// cells are byte-identical to their serial twin by construction (the
  /// identity suite pins that); here only the wall clock is under test,
  /// reported as speedup vs the serial cell with the same shape. Parallel
  /// cells never feed the headline aggregate.
  std::uint32_t threads = 1;
};

ReplicationResult run_cell(std::uint64_t seed, const Cell& cell,
                           Time horizon) {
  RandomTopologyParams params;
  params.routers = cell.routers;
  params.extra_links = cell.routers / 4;
  params.seed = seed;
  params.max_fanout = cell.max_fanout;
  RandomTopology topo = build_random_topology(params);
  World& world = *topo.world;

  struct GroupEnv {
    Address group;
    NodeRuntime* sender = nullptr;
    std::vector<NodeRuntime*> receivers;
    std::unique_ptr<CbrSource> source;
    std::vector<std::unique_ptr<GroupReceiverApp>> apps;
    std::vector<std::unique_ptr<RandomMover>> movers;
  };
  std::vector<GroupEnv> envs(cell.groups);

  const std::size_t n = topo.stub_links.size();
  for (std::size_t g = 0; g < cell.groups; ++g) {
    GroupEnv& env = envs[g];
    env.group = Address::parse("ff1e::" + std::to_string(0x100 + g));
    env.sender = &world.add_host("S" + std::to_string(g),
                                 *topo.stub_links[g % n]);
    // Two receivers per group, spread over the stubs.
    for (std::size_t r = 0; r < 2; ++r) {
      env.receivers.push_back(&world.add_host(
          "R" + std::to_string(g) + "_" + std::to_string(r),
          *topo.stub_links[(g + 1 + r * (n / 2 + 1)) % n]));
    }
  }
  world.finalize();

  for (GroupEnv& env : envs) {
    for (NodeRuntime* r : env.receivers) {
      env.apps.push_back(std::make_unique<GroupReceiverApp>(*r->stack, kPort));
      r->service->subscribe(env.group);
      if (cell.dwell_s > 0) {
        std::vector<Link*> roam(topo.stub_links.begin(),
                                topo.stub_links.end());
        auto mover = std::make_unique<RandomMover>(
            *r->mn, world.net().rng(), roam, Time::sec(cell.dwell_s));
        mover->start(Time::sec(5));
        env.movers.push_back(std::move(mover));
      }
    }
    env.source = std::make_unique<CbrSource>(
        world.scheduler(),
        [&world, &env](Bytes p) {
          env.sender->service->send_multicast(env.group, kPort, kPort,
                                              std::move(p));
        },
        Time::ms(50), 128, env.sender->node->domain());
    env.source->start(Time::sec(1));
  }

  const std::uint32_t shards =
      cell.threads > 1 ? world.enable_parallel(cell.threads) : 1;

  WallTimer timer;
  world.run_until(horizon);
  double wall = timer.elapsed_s();

  auto& c = world.net().counters();
  std::uint64_t delivered = 0;
  for (const GroupEnv& env : envs) {
    for (const auto& app : env.apps) delivered += app->unique_received();
  }
  std::uint64_t sg_entries = 0;
  for (NodeRuntime* rt : topo.routers) {
    if (rt->dense != nullptr) sg_entries += rt->dense->entry_count();
  }
  ReplicationResult r;
  r["wall_s"] = wall;
  r["events"] = static_cast<double>(world.scheduler().executed_events());
  r["data_fwd"] = static_cast<double>(c.get("pimdm/data-fwd"));
  r["unicast_fwd"] = static_cast<double>(c.get("ipv6/fwd"));
  r["delivered"] = static_cast<double>(delivered);
  r["pending_at_end"] =
      static_cast<double>(world.scheduler().pending_events());
  r["sg_entries"] = static_cast<double>(sg_entries);
  r["mfc_hit"] = static_cast<double>(c.get("pimdm/mfc-hit"));
  r["mfc_miss"] = static_cast<double>(c.get("pimdm/mfc-miss"));
  // Shards actually granted (the partitioner may cap below the request).
  r["threads"] = static_cast<double>(shards);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode();
  std::size_t reps = parse_reps(argc, argv, smoke ? 2 : 4);
  const Time horizon = smoke ? Time::sec(30) : Time::sec(120);

  header("SCALE: event/packet hot-path throughput sweep",
         smoke ? "smoke mode: 8 routers, 1-2 groups, 30 s horizon"
               : "routers x groups x receiver dwell; 20 dgram/s per group, "
                 "120 s horizon");

  std::vector<Cell> cells;
  if (smoke) {
    cells = {{8, 1, 0}, {8, 2, 30}};
    // Parallel twin of the churny small cell: wall clock only, the
    // identity suite already pins byte-equality.
    cells.push_back({8, 2, 30, /*max_fanout=*/0, /*reps_override=*/0,
                     /*headline=*/false, /*threads=*/2});
    // Memory-envelope cell, smoke-sized in replication count only: the
    // router count must stay ≥1k for the rss-per-(S,G) figure to mean
    // anything. Static receivers, fanout-capped topology.
    cells.push_back({1024, 8, 0, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false});
    // 1k-router multi-group churn cell (smoke-sized group count), serial
    // then parallel.
    cells.push_back({1024, 8, 30, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false});
    cells.push_back({1024, 8, 30, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false, /*threads=*/8});
  } else {
    for (std::size_t routers : {8, 16, 32}) {
      for (std::size_t groups : {std::size_t{1}, std::size_t{4}}) {
        for (int dwell : {0, 30}) cells.push_back({routers, groups, dwell});
      }
    }
    cells.push_back({1024, 64, 0, /*max_fanout=*/32, /*reps_override=*/2,
                     /*headline=*/false});
    cells.push_back({1024, 64, 0, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false, /*threads=*/8});
    // 1k-router multi-group sweep with host churn (receivers roam with a
    // 30 s dwell), serial and parallel.
    cells.push_back({1024, 64, 30, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false});
    cells.push_back({1024, 64, 30, /*max_fanout=*/32, /*reps_override=*/1,
                     /*headline=*/false, /*threads=*/8});
  }

  BenchReport report("scale");
  Table t({"routers", "groups", "dwell", "thr", "events/rep", "Mev/s",
           "ns/event", "speedup", "data fwd", "delivered", "sg", "rss/sg",
           "pending@end"});
  double total_wall = 0.0, total_events = 0.0, total_fwd = 0.0;
  // events/s of each serial cell, keyed by shape, so the parallel twin
  // (which must come later in the list) can report speedup against it.
  std::map<std::tuple<std::size_t, std::size_t, int>, double> serial_rate;
  for (const Cell& cell : cells) {
    ReplicationOptions opts;
    opts.replications = cell.reps_override > 0 ? cell.reps_override : reps;
    opts.base_seed = 4242;
    // Serial on purpose: parallel replications would share cores and
    // poison each other's wall-clock (the quantity under test).
    opts.threads = 1;
    const auto cell_reps = static_cast<double>(opts.replications);
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run_cell(seed, cell, horizon);
    });
    double wall = m.at("wall_s").mean() * cell_reps;
    double events = m.at("events").mean() * cell_reps;
    double fwd = m.at("data_fwd").mean() * cell_reps +
                 m.at("unicast_fwd").mean() * cell_reps;
    if (cell.headline) {
      total_wall += wall;
      total_events += events;
      total_fwd += fwd;
    }
    double ns_per_event = events > 0 ? wall * 1e9 / events : 0.0;
    double events_per_s = wall > 0 ? events / wall : 0.0;
    const auto shape = std::make_tuple(cell.routers, cell.groups,
                                       cell.dwell_s);
    double speedup = 0.0;
    if (cell.threads <= 1) {
      serial_rate[shape] = events_per_s;
    } else if (auto it = serial_rate.find(shape); it != serial_rate.end() &&
               it->second > 0) {
      speedup = events_per_s / it->second;
    }
    // Cumulative process peak: meaningful for the largest cell (which
    // dominates it), reported per-row for the record.
    double rss = peak_rss_bytes();
    double sg = m.at("sg_entries").mean();
    double rss_per_sg = sg > 0 ? rss / sg : 0.0;
    t.add_row({std::to_string(cell.routers), std::to_string(cell.groups),
               cell.dwell_s == 0 ? "static" : std::to_string(cell.dwell_s) +
                                                  " s",
               fmt_double(m.at("threads").mean(), 0),
               fmt_double(m.at("events").mean(), 0),
               fmt_double(events / wall / 1e6, 2),
               fmt_double(ns_per_event, 0),
               cell.threads > 1 ? fmt_double(speedup, 2) : "-",
               fmt_double(m.at("data_fwd").mean(), 0),
               fmt_double(m.at("delivered").mean(), 0),
               fmt_double(sg, 0), fmt_double(rss_per_sg, 0),
               fmt_double(m.at("pending_at_end").mean(), 0)});
    Json row = Json::object();
    row.set("routers", static_cast<double>(cell.routers));
    row.set("groups", static_cast<double>(cell.groups));
    row.set("dwell_s", cell.dwell_s);
    row.set("events", m.at("events").mean());
    row.set("ns_per_event", ns_per_event);
    row.set("data_fwd", m.at("data_fwd").mean());
    row.set("delivered", m.at("delivered").mean());
    row.set("pending_at_end", m.at("pending_at_end").mean());
    row.set("sg_entries", sg);
    row.set("peak_rss_bytes", rss);
    row.set("rss_per_sg_bytes", rss_per_sg);
    row.set("mfc_hit", m.at("mfc_hit").mean());
    row.set("mfc_miss", m.at("mfc_miss").mean());
    row.set("headline", cell.headline);
    row.set("threads", m.at("threads").mean());
    row.set("events_per_s", events_per_s);
    // Guarded on *granted* shards: the partitioner may cap below the
    // request, and a speedup on a 1-thread row fails validation.
    if (cell.threads > 1 && m.at("threads").mean() > 1.0) {
      row.set("speedup", speedup);
    }
    report.add_row(std::move(row));
    if (cell.routers >= 1024 && cell.threads <= 1 && cell.dwell_s == 0) {
      report.metric("scale_1k_ns_per_event", ns_per_event);
      report.metric("scale_1k_peak_rss_bytes", rss);
      report.metric("scale_1k_rss_per_sg_bytes", rss_per_sg);
      report.metric("scale_1k_sg_entries", sg);
    }
    if (cell.routers >= 1024 && cell.threads > 1 && cell.dwell_s == 0) {
      report.metric("scale_1k_par_events_per_s", events_per_s);
      report.metric("scale_1k_par_speedup", speedup);
      report.metric("scale_1k_par_threads", m.at("threads").mean());
    }
    if (cell.routers >= 1024 && cell.dwell_s > 0) {
      report.metric(cell.threads > 1 ? "scale_1k_churn_par_events_per_s"
                                     : "scale_1k_churn_events_per_s",
                    events_per_s);
    }
  }
  std::printf("%s\n", t.str().c_str());

  report.record_run(total_wall, total_events);
  report.metric("packets_forwarded", total_fwd);
  report.metric("replications", static_cast<double>(reps));
  report.write();

  paper_note(
      "not a paper figure: this is the simulator's own scaling envelope. "
      "Sweeping topology size and handover rate at once is what made the "
      "related scaling studies credible (cs/0006022, cs/0408009); the "
      "ns/event trajectory recorded here bounds how far the Figure 1-4 "
      "scenarios can be swept.");
  return 0;
}
