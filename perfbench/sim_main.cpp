// perfbench_sim — runs one ScenarioSpec once through the public library API
// (load, compile, optional sharding, run) and prints one JSON line with the
// timings, scheduler statistics, counters and an output fingerprint.
//
// Usage:
//   perfbench_sim <spec.json> [--threads N] [--trace SPANS.json]
//                 [--slice-s S] [--probe-reps N]
//
// --threads N    shard count handed to World::enable_parallel (default: the
//                spec's "threads"; 1 = serial). The spec is compiled
//                serially and sharded here, exactly as compile_scenario
//                would, so the partition step gets its own span.
// --trace FILE   traced execution: run_until is called in --slice-s
//                simulated-time slices, the world is probed with standalone
//                GlobalRouting::recompute() and Auditor passes, and every
//                span is kept in memory and written to FILE at exit.
//
// The fingerprint hashes simulated outcomes only (events, per-receiver
// delivery, forwards, (S,G) entries, faults), so it must not depend on
// tracing, slicing or the shard count.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "fault/auditor.hpp"
#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace mip6;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span log: name, parent, start and end relative to the log's
/// origin. Disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  int begin(const char* name, int parent) {
    return begin_at(name, parent, Clock::now());
  }
  int begin_at(const char* name, int parent, Clock::time_point at) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, ns(at), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { end_at(id, Clock::now()); }
  void end_at(int id, Clock::time_point at) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns(at);
  }

  Json to_json() const {
    Json arr = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json j = Json::object();
      j.set("id", static_cast<std::int64_t>(i));
      j.set("name", s.name);
      j.set("parent", static_cast<std::int64_t>(s.parent));
      j.set("start_ns", s.start_ns);
      j.set("end_ns", s.end_ns);
      arr.push_back(std::move(j));
    }
    return arr;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Options {
  std::string spec_path;
  std::optional<std::uint32_t> threads;
  std::string trace_path;
  Time slice = Time::sec(1);
  int probe_reps = 5;
};

/// Data arrivals that hit or missed the (S,G) flow cache, both engines.
struct CacheCounts {
  std::uint64_t hit = 0;
  std::uint64_t miss = 0;
};
CacheCounts cache_counts(const CounterRegistry& c) {
  return {c.get("pimdm/mfc-hit") + c.get("hpimdm/mfc-hit"),
          c.get("pimdm/mfc-miss") + c.get("hpimdm/mfc-miss")};
}

int run(const Options& opt) {
  const Clock::time_point t_start = Clock::now();
  const bool traced = !opt.trace_path.empty();
  SpanLog spans(traced, t_start);
  const int root = spans.begin_at("bench.execution", -1, t_start);

  // --- setup: load, compile (build + finalize + wiring), partition -------
  int span = spans.begin("scenario.load", root);
  ScenarioSpec spec = ScenarioSpec::load_file(opt.spec_path);
  spans.end(span);
  const Clock::time_point t_loaded = Clock::now();

  const std::uint32_t threads = opt.threads.value_or(spec.threads);
  spec.threads = 1;  // sharded below, after compile, as compile would

  std::vector<double> recompute_ms;
  const int compile_span = spans.begin("scenario.compile", root);
  const Clock::time_point t_compile = Clock::now();
  Clock::time_point t_ready{};
  CompiledScenario c =
      compile_scenario(spec, spec.seed, [&](World& w) {
        // Fires right after World::finalize(): everything before it is
        // topology construction plus the routing computation.
        t_ready = Clock::now();
        spans.end_at(spans.begin_at("core.world_ready", compile_span,
                                    t_compile),
                     t_ready);
        if (!traced) return;
        // Standalone recompute probes on the finalized world: the same
        // work finalize() and every mid-run topology fault do.
        for (int i = 0; i < opt.probe_reps; ++i) {
          const Clock::time_point a = Clock::now();
          const int s = spans.begin_at("ipv6.recompute", compile_span, a);
          w.routing().recompute();
          const Clock::time_point b = Clock::now();
          spans.end_at(s, b);
          recompute_ms.push_back(seconds_between(a, b) * 1e3);
        }
      });
  spans.end(compile_span);
  const Clock::time_point t_compiled = Clock::now();
  World& w = *c.world;

  std::uint32_t shards = 1;
  const Clock::time_point t_part0 = Clock::now();
  if (threads != 1) {
    span = spans.begin("core.enable_parallel", root);
    shards = w.enable_parallel(threads);
    spans.end(span);
  }
  const Clock::time_point t_setup = Clock::now();

  // --- run ---------------------------------------------------------------
  const CounterRegistry& counters = w.net().counters();
  const Time horizon = spec.duration;
  Json slices = Json::array();
  const int run_span = spans.begin("sim.run", root);
  if (!traced) {
    w.run_until(horizon);
  } else {
    Time at = Time::zero();
    std::uint64_t events = w.scheduler().executed_events();
    CacheCounts cache = cache_counts(counters);
    while (at < horizon) {
      at = std::min(horizon, at + opt.slice);
      const Clock::time_point a = Clock::now();
      const int s = spans.begin_at("sim.run_until", run_span, a);
      w.run_until(at);
      const Clock::time_point b = Clock::now();
      spans.end_at(s, b);
      const std::uint64_t ev = w.scheduler().executed_events();
      const CacheCounts cc = cache_counts(counters);
      Json row = Json::array();
      row.push_back(seconds_between(a, b) * 1e3);
      row.push_back(ev - events);
      row.push_back(cc.hit - cache.hit);
      row.push_back(cc.miss - cache.miss);
      slices.push_back(std::move(row));
      events = ev;
      cache = cc;
    }
  }
  spans.end(run_span);
  const Clock::time_point t_run = Clock::now();

  // --- collect outcomes and check invariants -----------------------------
  const int collect_span = spans.begin("bench.collect", root);
  Json errors = Json::array();
  std::map<std::string, std::uint64_t> sent_by_group;
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    sent_by_group[spec.traffic[i].group.str()] += c.flows[i].cbr->sent();
  }
  std::map<std::string, std::set<std::string>> groups_of;
  for (const ScenarioSubscription& s : spec.subscriptions) {
    groups_of[s.host].insert(s.group.str());
  }
  std::uint64_t sent_pairs = 0;
  std::uint64_t delivered_pairs = 0;
  std::string fp_delivered;
  for (const CompiledScenario::Receiver& r : c.receivers) {
    std::uint64_t sent = 0;
    for (const std::string& g : groups_of[r.host]) sent += sent_by_group[g];
    const std::uint64_t got = r.app->unique_received();
    if (got > sent) {
      errors.push_back("receiver " + r.host + " delivered " +
                       std::to_string(got) + " > sent " +
                       std::to_string(sent));
    }
    sent_pairs += sent;
    delivered_pairs += got;
    fp_delivered += std::to_string(got) + ",";
  }

  std::uint64_t sg_pim = 0;
  std::uint64_t sg_hpim = 0;
  for (const auto& rt : w.routers()) {
    if (rt->pim != nullptr) sg_pim += rt->pim->entry_count();
    if (rt->hpim != nullptr) sg_hpim += rt->hpim->entry_count();
  }
  std::uint64_t link_tx = 0;
  std::uint64_t link_drops = 0;
  for (const auto& l : w.net().links()) {
    link_tx += l->tx_packets();
    link_drops += l->dropped_packets();
  }

  std::uint64_t faults_applied = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t unrecovered = 0;
  if (c.chaos) {
    faults_applied = c.chaos->executed().size();
    for (const AuditReport& rep : c.chaos->audit_reports()) {
      audit_violations += rep.violations.size();
    }
    for (const CompiledScenario::Receiver& r : c.receivers) {
      for (const auto& rec : c.chaos->recoveries(*r.app)) {
        if (!rec.recovered_at) ++unrecovered;
      }
    }
  }
  if (faults_applied != spec.faults.size()) {
    errors.push_back("faults applied " + std::to_string(faults_applied) +
                     " != plan size " + std::to_string(spec.faults.size()));
  }

  const Scheduler& sched = w.scheduler();
  const std::uint64_t events = sched.executed_events();
  const std::uint64_t data_fwd =
      counters.get("pimdm/data-fwd") + counters.get("hpimdm/data-fwd");
  const std::string fp_text =
      "events=" + std::to_string(events) + ";delivered=" + fp_delivered +
      ";data_fwd=" + std::to_string(data_fwd) +
      ";sg=" + std::to_string(sg_pim + sg_hpim) +
      ";faults=" + std::to_string(faults_applied) +
      ";unrecovered=" + std::to_string(unrecovered);
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(fp_text)));

  Json cnt = Json::object();
  for (const char* name :
       {"pimdm/data-fwd", "pimdm/mfc-hit", "pimdm/mfc-miss", "hpimdm/data-fwd",
        "hpimdm/mfc-hit", "hpimdm/mfc-miss", "hpimdm/retx", "mld/tx/report",
        "mld/tx/query", "mn/tx/bu", "ha/encap-multicast", "ha/encap-mcast-coa",
        "ha/encap-unicast", "ipv6/fwd"}) {
    cnt.set(name, counters.get(name));
  }
  cnt.set("pimdm/sg-entries", sg_pim);
  cnt.set("hpimdm/sg-entries", sg_hpim);
  cnt.set("net/link-tx", link_tx);
  cnt.set("net/link-drops", link_drops);

  Json sim = Json::object();
  sim.set("events", events);
  sim.set("pending_peak", static_cast<std::uint64_t>(sched.event_slots()));
  sim.set("cancelled", static_cast<std::uint64_t>(sched.cancelled_events()));
  sim.set("compactions", sched.compactions());
  sim.set("windows", sched.windows());
  sim.set("shards", static_cast<std::uint64_t>(shards));
  spans.end(collect_span);

  // --- traced probes: standalone auditor passes on the final world -------
  std::vector<double> audit_ms;
  if (traced) {
    Auditor auditor(w);
    for (int i = 0; i < opt.probe_reps; ++i) {
      const Clock::time_point a = Clock::now();
      const int s = spans.begin_at("fault.audit", root, a);
      auditor.run();
      const Clock::time_point b = Clock::now();
      spans.end_at(s, b);
      audit_ms.push_back(seconds_between(a, b) * 1e3);
    }
  }

  const std::uint64_t receivers = c.receivers.size();
  span = spans.begin("bench.teardown", root);
  // Same order as run_scenario and ~CompiledScenario: stop the world, then
  // release what references it before the world itself.
  w.stop();
  c.chaos.reset();
  c.flows.clear();
  c.receivers.clear();
  c.metrics.reset();
  c.world.reset();
  spans.end(span);
  const Clock::time_point t_end = Clock::now();
  spans.end_at(root, t_end);

  Json out = Json::object();
  Json timing = Json::object();
  timing.set("load_s", seconds_between(t_start, t_loaded));
  timing.set("compile_s", seconds_between(t_compile, t_compiled));
  timing.set("world_ready_s", seconds_between(t_compile, t_ready));
  timing.set("partition_s", seconds_between(t_part0, t_setup));
  timing.set("setup_s", seconds_between(t_start, t_setup));
  timing.set("run_s", seconds_between(t_setup, t_run));
  timing.set("total_s", seconds_between(t_start, t_end));

  out.set("timing", std::move(timing));
  out.set("sim", std::move(sim));
  out.set("counters", std::move(cnt));
  Json delivery = Json::object();
  delivery.set("receivers", receivers);
  delivery.set("sent_pairs", sent_pairs);
  delivery.set("delivered_pairs", delivered_pairs);
  out.set("delivery", std::move(delivery));
  Json fault = Json::object();
  fault.set("planned", static_cast<std::uint64_t>(spec.faults.size()));
  fault.set("applied", faults_applied);
  fault.set("audit_violations", audit_violations);
  fault.set("unrecovered", unrecovered);
  out.set("fault", std::move(fault));
  out.set("fingerprint", std::string(fp_hex));
  out.set("fingerprint_text", fp_text);
  out.set("errors", std::move(errors));
  out.set("peak_rss_mb", peak_rss_mb());
  if (traced) {
    Json rec = Json::array();
    for (double v : recompute_ms) rec.push_back(v);
    Json aud = Json::array();
    for (double v : audit_ms) aud.push_back(v);
    out.set("recompute_ms", std::move(rec));
    out.set("audit_ms", std::move(aud));
    out.set("slices", std::move(slices));

    std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
      return 1;
    }
    const std::string text = spans.to_json().dump();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim <spec.json> [--threads N] "
               "[--trace SPANS.json] [--slice-s S] [--probe-reps N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--threads" && has_value) {
      opt.threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--trace" && has_value) {
      opt.trace_path = argv[++i];
    } else if (arg == "--slice-s" && has_value) {
      opt.slice = Time::seconds(std::strtod(argv[++i], nullptr));
    } else if (arg == "--probe-reps" && has_value) {
      opt.probe_reps = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-' && opt.spec_path.empty()) {
      opt.spec_path = arg;
    } else {
      return usage();
    }
  }
  if (opt.spec_path.empty() || opt.slice <= Time::zero() ||
      opt.probe_reps < 1) {
    return usage();
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}
