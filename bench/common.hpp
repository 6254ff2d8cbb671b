// Shared scaffolding for the reproduction benches: a Figure-1 harness with
// CBR traffic and receiver apps, plus output conventions. Every bench
// prints the rows/series corresponding to one table or figure of the paper
// together with a "# paper:" line stating the claim being checked; see
// EXPERIMENTS.md for the side-by-side record.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "args.hpp"
#include "core/figure1.hpp"
#include "core/metrics.hpp"
#include "core/mobility.hpp"
#include "core/traffic.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

namespace mip6::bench {

constexpr std::uint16_t kPort = Figure1::kDataPort;

struct Fig1Harness {
  Figure1 f;
  Address group = Figure1::group();
  std::unique_ptr<McastMetrics> metrics;
  std::unique_ptr<CbrSource> source;
  std::unique_ptr<GroupReceiverApp> app1, app2, app3;

  explicit Fig1Harness(StrategyOptions strategy = {}, std::uint64_t seed = 1,
                       WorldConfig config = {},
                       Time cbr_interval = Time::ms(100),
                       std::size_t payload = 64) {
    f = build_figure1(seed, config, strategy);
    metrics = std::make_unique<McastMetrics>(f.world->net(),
                                             f.world->routing(), group, kPort);
    app1 = std::make_unique<GroupReceiverApp>(*f.recv1->stack, kPort);
    app2 = std::make_unique<GroupReceiverApp>(*f.recv2->stack, kPort);
    app3 = std::make_unique<GroupReceiverApp>(*f.recv3->stack, kPort);
    source = std::make_unique<CbrSource>(
        f.world->scheduler(),
        [this](Bytes p) {
          f.sender->service->send_multicast(group, kPort, kPort,
                                            std::move(p));
        },
        cbr_interval, payload);
  }

  void subscribe_all() {
    f.recv1->service->subscribe(group);
    f.recv2->service->subscribe(group);
    f.recv3->service->subscribe(group);
  }

  World& world() { return *f.world; }
  CounterRegistry& counters() { return f.world->net().counters(); }
};

inline void header(const char* experiment, const char* what) {
  std::printf("==============================================================="
              "=\n%s\n%s\n"
              "================================================================"
              "\n",
              experiment, what);
}

inline void paper_note(const char* claim) {
  std::printf("# paper: %s\n", claim);
}

/// Replications from argv[1], `fallback` when it is absent. Anything but
/// a positive decimal integer prints a usage line and exits with code 2.
inline std::size_t parse_reps(int argc, char** argv, std::size_t fallback) {
  if (argc < 2) return fallback;
  std::size_t reps = 0;
  if (!parse_number(std::string_view(argv[1]), reps) || reps == 0) {
    std::fprintf(stderr,
                 "usage: %s [reps]  (reps: positive integer, default %zu)\n",
                 argv[0], fallback);
    std::exit(2);
  }
  return reps;
}

inline std::string secs(Time t, int decimals = 3) {
  return fmt_double(t.to_seconds(), decimals) + " s";
}

}  // namespace mip6::bench
