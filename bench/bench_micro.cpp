// MICRO — google-benchmark microbenchmarks of the substrate: event
// scheduler throughput, wire-format serialize/parse rates, checksum,
// routing recomputation and a full Figure-1 simulated second. These bound
// how large the scenario sweeps can go.
#include <benchmark/benchmark.h>

#include "core/figure1.hpp"
#include "core/traffic.hpp"
#include "ipv6/datagram.hpp"
#include "mipv6/messages.hpp"
#include "pimdm/messages.hpp"
#include "sim/scheduler.hpp"
#include "util/checksum.hpp"

namespace mip6 {
namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < n; ++i) {
      s.schedule_in(Time::us(i % 997), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
  Scheduler s;
  Timer t(s, [] {});
  for (auto _ : state) {
    t.arm(Time::sec(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm);

void BM_DatagramBuild(benchmark::State& state) {
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:1::1");
  spec.dst = Address::parse("ff1e::1");
  spec.protocol = proto::kUdp;
  spec.payload = Bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_datagram(spec));
  }
  state.SetBytesProcessed(state.iterations() *
                          (40 + state.range(0)));
}
BENCHMARK(BM_DatagramBuild)->Arg(64)->Arg(512)->Arg(1400);

void BM_DatagramParse(benchmark::State& state) {
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:1::1");
  spec.dst = Address::parse("ff1e::1");
  spec.dest_options.push_back(
      HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
  spec.protocol = proto::kUdp;
  spec.payload = Bytes(static_cast<std::size_t>(state.range(0)));
  Bytes wire = build_datagram(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(try_parse_datagram(wire));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DatagramParse)->Arg(64)->Arg(1400);

void BM_InternetChecksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1400);

void BM_AddressParseFormat(benchmark::State& state) {
  for (auto _ : state) {
    Address a = Address::parse("2001:db8:1:2:3:4:5:6");
    benchmark::DoNotOptimize(a.str());
  }
}
BENCHMARK(BM_AddressParseFormat);

void BM_PimJoinPruneRoundTrip(benchmark::State& state) {
  PimJoinPrune m = PimJoinPrune::prune(Address::parse("fe80::1"),
                                       Address::parse("2001:db8::1"),
                                       Address::parse("ff1e::1"), 210);
  for (auto _ : state) {
    Bytes body = m.body();
    benchmark::DoNotOptimize(PimJoinPrune::try_parse(body));
  }
}
BENCHMARK(BM_PimJoinPruneRoundTrip);

void BM_GlobalRoutingRecompute(benchmark::State& state) {
  Figure1 f = build_figure1();
  for (auto _ : state) {
    f.world->routing().recompute();
  }
}
BENCHMARK(BM_GlobalRoutingRecompute);

void BM_Figure1SimulatedSecond(benchmark::State& state) {
  // Full-stack cost: one simulated second of the Figure 1 scenario at
  // 100 datagrams/s with all three receivers subscribed.
  Figure1 f = build_figure1();
  const Address group = Figure1::group();
  for (NodeRuntime* r : {f.recv1, f.recv2, f.recv3}) {
    r->service->subscribe(group);
  }
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, Figure1::kDataPort,
                                          Figure1::kDataPort, std::move(p));
      },
      Time::ms(10), 64);
  source.start(Time::ms(1));
  Time horizon = Time::sec(1);
  for (auto _ : state) {
    f.world->run_until(horizon);
    horizon += Time::sec(1);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_Figure1SimulatedSecond);

}  // namespace
}  // namespace mip6

BENCHMARK_MAIN();
