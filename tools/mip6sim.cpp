// mip6sim — declarative scenario runner and chaos-search driver.
//
// Default mode loads a ScenarioSpec JSON file, fans `--replications`
// derived seeds through run_replications() (each replication compiles its
// own World, so workers share nothing), prints per-metric summary
// statistics and writes a mip6-bench-v1 report (same schema as the bench
// trajectory, docs/PERF.md) so scenario sweeps plug into the existing JSON
// tooling.
//
// Subcommands (docs/FAULTS.md, "Chaos search & reproducer corpus"):
//   chaos-search   randomized fault-plan exploration + ddmin shrinking
//   chaos-replay   byte-exact replay of committed corpus reproducers
//
// Usage:
//   mip6sim <scenario.json> [--replications N] [--seed S] [--threads T]
//           [--duration SECS] [--out FILE]
//   mip6sim chaos-search <scenario.json> [options]
//   mip6sim chaos-replay <entry.json|corpus-dir>... [options]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "args.hpp"
#include "fault/search.hpp"
#include "report.hpp"
#include "scenario/run.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

namespace {

using namespace mip6;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <scenario.json> [options]\n"
      "       %s chaos-search <scenario.json> [options]\n"
      "       %s chaos-replay <entry.json|corpus-dir>... [options]\n"
      "\n"
      "run options:\n"
      "  --replications N   independent seeded runs (default 1)\n"
      "  --seed S           base seed override; replication k runs with a\n"
      "                     seed derived from S (default: the spec's seed),\n"
      "                     so CI can pin an exact reproducible sweep\n"
      "  --threads T        worker threads, 0 = hardware. With several\n"
      "                     replications they parallelize the sweep; with\n"
      "                     one replication they shard the world itself\n"
      "                     (byte-identical to serial at any T). Default:\n"
      "                     the spec's own \"threads\" (1 = serial)\n"
      "  --duration SECS    override the spec's duration_s\n"
      "  --out FILE         report path (default BENCH_<name>.json)\n"
      "\n"
      "chaos-search options:\n"
      "  --budget N         fault plans to explore (default 8)\n"
      "  --seed S           search seed; plan i uses a seed derived from S\n"
      "                     (default: the spec's seed)\n"
      "  --both-engines     run every plan under PIM-DM and HPIM-DM\n"
      "  --settle SECS      convergence deadline after the last repair\n"
      "                     (default 15)\n"
      "  --max-disruptions N  fault/repair pairs per plan, upper bound\n"
      "                     (default 4)\n"
      "  --no-shrink        skip ddmin minimization of failing plans\n"
      "  --corpus-dir DIR   write reproducer JSON for findings (and pins)\n"
      "  --pin N            also record the first N explored plans as\n"
      "                     clean corpus entries (requires --corpus-dir)\n"
      "  --out FILE         mip6-bench-v1 summary (default\n"
      "                     BENCH_chaos_search_<name>.json)\n"
      "\n"
      "chaos-replay options:\n"
      "  --scenario-dir DIR directory the entries' scenario file names\n"
      "                     resolve against (default examples/scenarios)\n"
      "  --record           rewrite each entry's expected block from the\n"
      "                     observed outcome instead of checking it\n"
      "  --trace            print the chaos trace of each entry\n"
      "  --out FILE         optional mip6-bench-v1 summary of the replay\n"
      "\n"
      "exit codes (all modes): 0 success; 1 load/run error; 2 bad usage;\n"
      "  3 violations — a failed audit or a never-completed recovery in\n"
      "  run mode, any violating plan in chaos-search, any expectation\n"
      "  mismatch in chaos-replay\n",
      argv0, argv0, argv0);
  return 2;
}

struct ArgParser {
  int argc;
  char** argv;
  int i = 1;
  const char* value(const std::string& arg) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
      std::exit(2);
    }
    return argv[++i];
  }
  /// The option's value as a non-negative decimal number; empty,
  /// non-numeric, trailing-garbage or negative values are bad usage.
  template <typename T>
  T number(const std::string& arg) {
    const char* text = value(arg);
    T out{};
    if (!bench::parse_number(std::string_view(text), out)) {
      std::fprintf(stderr, "%s: %s needs a non-negative number, got '%s'\n",
                   argv[0], arg.c_str(), text);
      std::exit(2);
    }
    return out;
  }
};

int write_bench_report(const std::string& out_path, const std::string& name,
                       double wall_s, double total_events,
                       const std::vector<std::pair<std::string, double>>& rows) {
  Json doc = Json::object();
  doc.set("schema", "mip6-bench-v1");
  doc.set("name", name);
  Json metrics = Json::object();
  metrics.set("wall_s", wall_s);
  metrics.set("events", total_events);
  metrics.set("ns_per_event",
              total_events > 0 ? wall_s * 1e9 / total_events : 0.0);
  metrics.set("events_per_s", wall_s > 0 ? total_events / wall_s : 0.0);
  metrics.set("peak_rss_bytes", bench::peak_rss_bytes());
  doc.set("metrics", std::move(metrics));
  Json jrows = Json::array();
  for (const auto& [metric, val] : rows) {
    Json row = Json::object();
    row.set("metric", metric);
    row.set("mean", val);
    row.set("min", val);
    row.set("max", val);
    row.set("stddev", 0.0);
    row.set("n", 1.0);
    jrows.push_back(std::move(row));
  }
  doc.set("rows", std::move(jrows));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::string text = doc.dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("# report: %s\n", out_path.c_str());
  return 0;
}

int write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

// --- default run mode ------------------------------------------------------

int cmd_run(int argc, char** argv) {
  std::string scenario_path;
  std::size_t replications = 1;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> seed;
  std::optional<Time> duration;
  std::string out_path;

  ArgParser args{argc, argv};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (arg == "--replications") {
      replications = args.number<std::size_t>(arg);
    } else if (arg == "--seed") {
      seed = args.number<std::uint64_t>(arg);
    } else if (arg == "--threads") {
      threads = args.number<std::size_t>(arg);
    } else if (arg == "--duration") {
      duration = Time::seconds(args.number<double>(arg));
    } else if (arg == "--out") {
      out_path = args.value(arg);
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "%s: more than one scenario file given\n", argv[0]);
      return usage(argv[0]);
    }
  }
  if (scenario_path.empty()) return usage(argv[0]);
  if (replications == 0) {
    std::fprintf(stderr, "%s: --replications must be at least 1\n", argv[0]);
    return 2;
  }

  ScenarioSpec spec;
  try {
    spec = ScenarioSpec::load_file(scenario_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  ReplicationOptions opts;
  opts.replications = replications;
  opts.base_seed = seed.value_or(spec.seed);
  opts.threads = threads.value_or(0);
  if (threads && replications == 1) {
    // A single world: --threads goes inside it (windowed parallel
    // scheduler) instead of across replications. 0 = one per hardware
    // thread. Without the flag the spec's own "threads" knob decides.
    spec.threads = static_cast<std::uint32_t>(*threads);
    opts.threads = 1;
  }

  std::printf("scenario %s (%s)\n", spec.name.c_str(),
              spec.description.empty() ? "no description"
                                       : spec.description.c_str());
  std::printf("horizon %s, %zu replication(s), base seed %llu\n\n",
              duration.value_or(spec.duration).str().c_str(), replications,
              static_cast<unsigned long long>(opts.base_seed));

  std::map<std::string, Summary> merged;
  bench::WallTimer timer;
  try {
    merged = run_replications(opts, [&](std::uint64_t s) {
      return run_scenario(spec, s, duration);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replication failed: %s\n", e.what());
    return 1;
  }
  const double wall_s = timer.elapsed_s();

  Table table({"metric", "mean", "min", "max", "stddev", "n"});
  for (const auto& [name, summary] : merged) {
    table.add_row({name, fmt_double(summary.mean(), 3),
                   fmt_double(summary.min(), 3), fmt_double(summary.max(), 3),
                   fmt_double(summary.stddev(), 3),
                   std::to_string(summary.count())});
  }
  std::printf("%s\n", table.str().c_str());

  // mip6-bench-v1 report: headline run stats + one row per metric.
  double total_events = 0.0;
  if (auto it = merged.find("events"); it != merged.end()) {
    total_events = it->second.sum();
  }
  Json doc = Json::object();
  doc.set("schema", "mip6-bench-v1");
  doc.set("name", spec.name);
  Json metrics = Json::object();
  metrics.set("wall_s", wall_s);
  metrics.set("events", total_events);
  metrics.set("ns_per_event",
              total_events > 0 ? wall_s * 1e9 / total_events : 0.0);
  metrics.set("events_per_s", wall_s > 0 ? total_events / wall_s : 0.0);
  metrics.set("peak_rss_bytes", bench::peak_rss_bytes());
  metrics.set("replications", static_cast<double>(replications));
  metrics.set("base_seed", static_cast<double>(opts.base_seed));
  doc.set("metrics", std::move(metrics));
  Json rows = Json::array();
  for (const auto& [name, summary] : merged) {
    Json row = Json::object();
    row.set("metric", name);
    row.set("mean", summary.mean());
    row.set("min", summary.min());
    row.set("max", summary.max());
    row.set("stddev", summary.stddev());
    row.set("n", static_cast<double>(summary.count()));
    rows.push_back(std::move(row));
  }
  doc.set("rows", std::move(rows));

  if (out_path.empty()) out_path = "BENCH_" + spec.name + ".json";
  if (int rc = write_text_file(out_path, doc.dump(2)); rc != 0) return rc;
  std::printf("# report: %s\n", out_path.c_str());

  // CI contract: a failed audit or a never-completed recovery is a
  // nonzero exit, so pipelines fail loudly instead of shipping a green
  // run with a broken world inside.
  double audit_violations = 0.0;
  if (auto it = merged.find("fault_audit_violations"); it != merged.end()) {
    audit_violations = it->second.sum();
  }
  double unrecovered = 0.0;
  if (auto it = merged.find("fault_unrecovered"); it != merged.end()) {
    unrecovered = it->second.sum();
  }
  if (audit_violations > 0 || unrecovered > 0) {
    std::fprintf(stderr,
                 "FAIL: %.0f audit violation(s), %.0f unrecovered "
                 "disruption(s)\n",
                 audit_violations, unrecovered);
    return 3;
  }
  return 0;
}

// --- chaos-search ----------------------------------------------------------

std::string repro_file_name(const std::string& scenario_name,
                            const std::string& tag, std::size_t index,
                            const std::string& engine) {
  std::string name = scenario_name + "-" + tag + std::to_string(index);
  if (engine != "spec") name += "-" + engine;
  return name + ".json";
}

int cmd_chaos_search(int argc, char** argv) {
  std::string scenario_path;
  std::string corpus_dir;
  std::string out_path;
  std::size_t pin = 0;
  std::optional<std::uint64_t> seed;
  ChaosSearchConfig cfg;
  cfg.budget = 8;

  ArgParser args{argc, argv};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (arg == "--budget") {
      cfg.budget = args.number<std::size_t>(arg);
    } else if (arg == "--seed") {
      seed = args.number<std::uint64_t>(arg);
    } else if (arg == "--both-engines") {
      cfg.both_engines = true;
    } else if (arg == "--settle") {
      cfg.run.settle = Time::seconds(args.number<double>(arg));
    } else if (arg == "--max-disruptions") {
      cfg.max_disruptions = args.number<int>(arg);
    } else if (arg == "--no-shrink") {
      cfg.shrink_failures = false;
    } else if (arg == "--corpus-dir") {
      corpus_dir = args.value(arg);
    } else if (arg == "--pin") {
      pin = args.number<std::size_t>(arg);
    } else if (arg == "--out") {
      out_path = args.value(arg);
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "%s: more than one scenario file given\n", argv[0]);
      return usage(argv[0]);
    }
  }
  if (scenario_path.empty()) return usage(argv[0]);
  if (pin > 0 && corpus_dir.empty()) {
    std::fprintf(stderr, "%s: --pin requires --corpus-dir\n", argv[0]);
    return 2;
  }

  ScenarioSpec spec;
  try {
    spec = ScenarioSpec::load_file(scenario_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (seed) cfg.seed = *seed; else cfg.seed = spec.seed;

  const std::string scenario_file =
      std::filesystem::path(scenario_path).filename().string();

  std::printf("chaos-search %s: budget %zu, seed %llu, engines %s\n",
              spec.name.c_str(), cfg.budget,
              static_cast<unsigned long long>(cfg.seed),
              cfg.both_engines ? "pimdm+hpimdm" : "spec");

  bench::WallTimer timer;
  ChaosSearchResult result;
  try {
    result = chaos_search(spec, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos-search failed: %s\n", e.what());
    return 1;
  }
  const double wall_s = timer.elapsed_s();

  std::printf("explored %zu world(s), %zu violating, %zu shrunk\n",
              result.explored, result.violating, result.shrunk);
  for (const auto& [cls, n] : result.class_counts) {
    std::printf("  %-22s %zu\n", cls.c_str(), n);
  }
  for (const ChaosSearchFinding& f : result.findings) {
    std::printf("finding: seed %llu engine %s, %zu -> %zu unit(s)\n",
                static_cast<unsigned long long>(f.plan_seed),
                f.engine.c_str(), f.shrink_stats.initial_units,
                f.shrink_stats.final_units);
    for (const ChaosViolation& v : f.violations) {
      std::printf("  [%s] %s\n", violation_class_name(v.cls),
                  v.detail.c_str());
    }
  }

  int rc = 0;
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    // Findings: the shrunk plan plus the outcome of re-running it.
    std::vector<std::string> engines =
        cfg.both_engines ? std::vector<std::string>{"pimdm", "hpimdm"}
                         : std::vector<std::string>{"spec"};
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
      const ChaosSearchFinding& f = result.findings[i];
      ChaosReproducer repro;
      repro.scenario = scenario_file;
      repro.engine = f.engine;
      repro.seed = spec.seed;
      repro.settle_s = cfg.run.settle.to_seconds();
      repro.plan = f.shrunk;
      // Capture the expected block through the exact code path chaos-replay
      // will use (oracle derived inside), so the recorded classes/trace are
      // reproducible by construction.
      ChaosRunResult rr = replay_reproducer(spec, repro, cfg.run);
      repro.classes = rr.classes();
      repro.trace = rr.trace;
      std::string path = corpus_dir + "/" +
                         repro_file_name(spec.name, "f", i, f.engine);
      if (write_text_file(path, repro.to_json().dump(2)) != 0) rc = 1;
      std::printf("# reproducer: %s\n", path.c_str());
    }
    // Pins: clean entries locking in today's (trace, classification) for
    // the first N explored plans — regression anchors even with zero
    // violations on the current tree.
    for (std::size_t i = 0; i < pin && i < result.plans.size(); ++i) {
      const auto& [plan_seed, plan] = result.plans[i];
      (void)plan_seed;
      for (const std::string& engine : engines) {
        ChaosReproducer repro;
        repro.scenario = scenario_file;
        repro.engine = engine;
        repro.seed = spec.seed;
        repro.settle_s = cfg.run.settle.to_seconds();
        repro.plan = plan;
        ChaosRunResult rr = replay_reproducer(spec, repro, cfg.run);
        repro.classes = rr.classes();
        repro.trace = rr.trace;
        std::string path = corpus_dir + "/" +
                           repro_file_name(spec.name, "p", i, engine);
        if (write_text_file(path, repro.to_json().dump(2)) != 0) rc = 1;
        std::printf("# pinned: %s\n", path.c_str());
      }
    }
  }

  if (out_path.empty()) {
    out_path = "BENCH_chaos_search_" + spec.name + ".json";
  }
  std::vector<std::pair<std::string, double>> rows = {
      {"explored", static_cast<double>(result.explored)},
      {"violating", static_cast<double>(result.violating)},
      {"shrunk", static_cast<double>(result.shrunk)},
  };
  for (const auto& [cls, n] : result.class_counts) {
    rows.emplace_back("class/" + cls, static_cast<double>(n));
  }
  if (int wrc = write_bench_report(out_path, "chaos_search_" + spec.name,
                                   wall_s,
                                   static_cast<double>(result.executed_events),
                                   rows);
      wrc != 0) {
    return wrc;
  }
  if (rc != 0) return rc;
  return result.violating > 0 ? 3 : 0;
}

// --- chaos-replay ----------------------------------------------------------

int cmd_chaos_replay(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string scenario_dir = "examples/scenarios";
  std::string out_path;
  bool record = false;
  bool print_trace = false;

  ArgParser args{argc, argv};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (arg == "--scenario-dir") {
      scenario_dir = args.value(arg);
    } else if (arg == "--record") {
      record = true;
    } else if (arg == "--trace") {
      print_trace = true;
    } else if (arg == "--out") {
      out_path = args.value(arg);
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  // Expand directories to their .json entries, sorted for determinism.
  std::vector<std::string> entries;
  for (const std::string& input : inputs) {
    if (std::filesystem::is_directory(input)) {
      std::vector<std::string> found;
      for (const auto& de : std::filesystem::directory_iterator(input)) {
        if (de.path().extension() == ".json") {
          found.push_back(de.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      entries.insert(entries.end(), found.begin(), found.end());
    } else {
      entries.push_back(input);
    }
  }
  if (entries.empty()) {
    std::fprintf(stderr, "%s: no corpus entries found\n", argv[0]);
    return 1;
  }

  bench::WallTimer timer;
  double total_events = 0.0;
  std::size_t mismatches = 0;
  for (const std::string& path : entries) {
    ChaosReproducer repro;
    ScenarioSpec spec;
    try {
      repro = ChaosReproducer::load_file(path);
      spec = ScenarioSpec::load_file(scenario_dir + "/" + repro.scenario);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }

    ChaosRunResult rr;
    try {
      rr = replay_reproducer(spec, repro);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: replay failed: %s\n", path.c_str(), e.what());
      return 1;
    }
    total_events += static_cast<double>(rr.executed_events);
    if (print_trace) {
      for (const std::string& line : rr.trace) {
        std::printf("  %s\n", line.c_str());
      }
    }

    if (record) {
      repro.classes = rr.classes();
      repro.trace = rr.trace;
      if (write_text_file(path, repro.to_json().dump(2)) != 0) return 1;
      std::printf("%-60s recorded (%zu class(es), %zu trace line(s))\n",
                  path.c_str(), repro.classes.size(), repro.trace.size());
      continue;
    }

    const bool classes_match = rr.classes() == repro.classes;
    const bool trace_match = rr.trace == repro.trace;
    if (classes_match && trace_match) {
      std::printf("%-60s ok\n", path.c_str());
    } else {
      ++mismatches;
      std::printf("%-60s MISMATCH (%s%s%s)\n", path.c_str(),
                  classes_match ? "" : "classes",
                  (!classes_match && !trace_match) ? ", " : "",
                  trace_match ? "" : "trace");
      if (!classes_match) {
        std::string want, got;
        for (const auto& c : repro.classes) want += c + " ";
        for (const auto& c : rr.classes()) got += c + " ";
        std::printf("  expected classes: %s\n  observed classes: %s\n",
                    want.c_str(), got.c_str());
      }
    }
  }
  const double wall_s = timer.elapsed_s();

  if (!out_path.empty()) {
    std::vector<std::pair<std::string, double>> rows = {
        {"entries", static_cast<double>(entries.size())},
        {"mismatches", static_cast<double>(mismatches)},
    };
    if (int rc = write_bench_report(out_path, "chaos_replay", wall_s,
                                    total_events, rows);
        rc != 0) {
      return rc;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu corpus mismatch(es)\n", mismatches);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "chaos-search") == 0) {
    return cmd_chaos_search(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "chaos-replay") == 0) {
    return cmd_chaos_replay(argc - 1, argv + 1);
  }
  return cmd_run(argc, argv);
}
