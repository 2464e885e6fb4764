// e2ebench — one end-to-end Yardstick benchmark.
//
// Runs a whole yardstick pipeline on a named workload and times every
// layer from outside, at its public entry point:
//
//   setup     topo::make_fat_tree / make_regional, FibBuilder::compute_and_build,
//             ACL + transform install
//   online    MatchSetIndex + Transfer, each NetworkTest::run with tracking
//   report    CoverageEngine construction (steps 1-2) + report()
//   paths     CoverageEngine::path_coverage
//   optimize  build_suite_matrix, minimize_suite, prioritize_suite,
//             build_gap_report
//   persist   save_trace, load_trace
//   churn     a cold engine that writes the incremental cache, then seeded
//             FIB edits, each followed by a warm engine from the cache + report()
//
//   e2ebench --workload fattree-report --seed 1 --seconds 30 --trace 0
//
// The network is built --setup-reps times; then whole pipeline passes
// repeat until --seconds have passed, and every metric is the median over
// the repetitions. The last stdout line is one JSON object {correct,
// attempted, failed, metrics}: with --trace 0 the end-to-end metrics, with
// --trace 1 the per-layer metrics of traced passes (alternated with
// untraced ones, whose difference is the tracing overhead). Every output
// is checked; the exit code is 1 when a check fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "coverage/framework.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "spans.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/optimize.hpp"
#include "yardstick/persist.hpp"
#include "yardstick/tracker.hpp"

using namespace yardstick;
namespace fs = std::filesystem;

namespace e2ebench {
namespace {

// --- Workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  bool regional = false;
  int k = 0;  ///< fat-tree arity
  topo::RegionalParams region;
  std::string suite;  ///< original | fattree | final
  bool acl = false;
  int transforms = 0;      ///< regional: tunnels and NAT rules per WAN
  uint64_t path_cap = 0;   ///< max_paths of the sweep; 0 = the full path universe
  int churn_steps = 0;     ///< seeded FIB edits per pass
  uint64_t expected_digest = 0;  ///< digest of the deterministic outputs
};

std::vector<Workload> all_workloads() {
  Workload report;  // the metric report dominates; the online phase is idle
  report.name = "fattree-report";
  report.k = 20;
  report.suite = "original";
  report.path_cap = 100000;
  report.churn_steps = 1;
  report.expected_digest = 0x5c56e56476790fde;

  Workload suite;  // online tests, the full path sweep and the optimizer dominate
  suite.name = "fattree-suite";
  suite.k = 12;
  suite.suite = "fattree";
  suite.churn_steps = 3;
  suite.expected_digest = 0x08994461723afe16;

  Workload churn;  // incremental re-analysis after FIB edits dominates
  churn.name = "regional-churn";
  churn.regional = true;
  churn.region.datacenters = 2;
  churn.region.pods_per_dc = 6;
  churn.region.tors_per_pod = 8;
  churn.suite = "final";
  churn.acl = true;
  churn.transforms = 16;
  churn.path_cap = 100000;
  churn.churn_steps = 10;
  churn.expected_digest = 0x1832119e5a383e11;
  return {report, suite, churn};
}

/// Topology plus forwarding state. Holds interior pointers: never moved.
struct Built {
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  topo::TransformState transforms;
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;
};

std::unique_ptr<Built> build_network(const Workload& w, Tracer& tracer) {
  auto b = std::make_unique<Built>();
  {
    const Span span(tracer, "topo.build");
    if (w.regional) {
      b->regional = topo::make_regional(w.region);
      b->network = &b->regional.network;
      b->routing = &b->regional.routing;
      b->tors = b->regional.tors;
      if (w.transforms > 0) {
        // Before FIB computation: tunnel endpoints are BGP-originated.
        b->transforms = topo::plan_transforms(
            b->regional, {.tunnels = w.transforms, .nat_rules_per_wan = w.transforms});
      }
    } else {
      b->fattree = topo::make_fat_tree({.k = w.k});
      b->network = &b->fattree.network;
      b->routing = &b->fattree.routing;
      b->tors = b->fattree.tors;
    }
  }
  {
    const Span span(tracer, "routing.fib");
    (void)routing::FibBuilder::compute_and_build(*b->network, *b->routing);
  }
  {
    const Span span(tracer, "topo.install");
    if (w.acl) topo::install_ingress_acls(*b->network, b->tors);
    if (!b->transforms.empty()) {
      topo::install_transform_rules(*b->network, b->transforms, *b->routing);
    }
  }
  return b;
}

nettest::TestSuite make_suite(const Workload& w,
                              const std::unordered_set<net::DeviceId>& excluded) {
  nettest::TestSuite suite(w.suite);
  suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  if (w.suite == "fattree") {
    suite.add(std::make_unique<nettest::ToRContract>());
    suite.add(std::make_unique<nettest::ToRReachability>());
    suite.add(std::make_unique<nettest::ToRPingmesh>());
  } else {
    suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  }
  if (w.suite == "final") {
    suite.add(std::make_unique<nettest::InternalRouteCheck>());
    suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  }
  if (w.acl) {
    suite.add(std::make_unique<nettest::AclBlockCheck>());
    suite.add(std::make_unique<nettest::BlockedPortCheck>());
  }
  if (w.transforms > 0) {
    suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
    suite.add(std::make_unique<nettest::NatTranslationCheck>());
  }
  return suite;
}

// --- Checks and digests ----------------------------------------------------

class Checks {
 public:
  /// One operation: a test run or an output check.
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The report without its timings: identical runs give identical bytes.
std::string normalized(const ys::CoverageReport& report) {
  ys::CoverageReport copy = report;
  copy.timings = {};
  const ys::MetricRow& o = report.overall;
  return copy.to_text() + g17(o.device_fractional) + " " + g17(o.interface_fractional) +
         " " + g17(o.rule_fractional) + " " + g17(o.rule_weighted) + "\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- The pipeline -----------------------------------------------------------

/// Worker threads of every parallel layer: the 4 cores of the reference box.
constexpr unsigned kThreads = 4;
/// Network builds per run; setup_s is their median.
constexpr int kSetupReps = 15;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir = ".bench_build/e2ebench-work";
};

/// Stage wall times of one pipeline pass.
struct Pass {
  double online_s = 0.0;
  double report_s = 0.0;
  double paths_s = 0.0;
  double optimize_s = 0.0;
  double persist_s = 0.0;
  double churn_s = 0.0;
  std::vector<double> churn_steps_s;

  [[nodiscard]] double run_s() const {
    return online_s + report_s + paths_s + optimize_s + persist_s + churn_s;
  }
};

/// Counts recorded at layer boundaries (the last pass's).
struct Counts {
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, bdd::BddManager::Stats>> bdd_samples;
};

template <typename Fn>
double timed_stage(Tracer& tracer, const char* stage, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  {
    const Span span(tracer, stage);
    fn();
  }
  return seconds_since(start);
}

class Pipeline {
 public:
  Pipeline(const Workload& w, const Options& opt, Built& built, Checks& checks)
      : w_(w), opt_(opt), built_(built), net_(*built.network), checks_(checks),
        work_dir_(opt.work_dir + "/" + w.name) {
    fs::create_directories(work_dir_);
  }

  /// One whole pipeline pass. The checks that build extra engines run on
  /// the first pass only; cheap checks run on every pass.
  Pass run_pass(Tracer& tracer, Counts& counts) {
    const bool full_checks = passes_++ == 0;
    Pass it;
    const std::unordered_set<net::DeviceId> excluded(
        built_.routing->no_default_devices.begin(), built_.routing->no_default_devices.end());
    const nettest::TestSuite suite = make_suite(w_, excluded);
    const ys::EngineOptions engine_opts{nullptr, kThreads, "", 0.0};

    bdd::BddManager load_mgr(packet::kNumHeaderBits);
    coverage::CoverageTrace loaded;
    ys::CoverageReport main_report;
    {
      bdd::BddManager mgr(packet::kNumHeaderBits);
      ys::CoverageTracker tracker;
      std::vector<nettest::TestResult> results;

      it.online_s = timed_stage(tracer, "stage.online", [&] {
        std::optional<dataplane::MatchSetIndex> index;
        std::optional<dataplane::Transfer> transfer;
        {
          const Span span(tracer, "dataplane.index");
          index.emplace(mgr, net_);
          transfer.emplace(*index);
        }
        for (size_t i = 0; i < suite.size(); ++i) {
          const Span span(tracer, "nettest." + suite.test(i).name());
          results.push_back(suite.test(i).run(*transfer, tracker));
        }
      });
      counts.bdd_samples.clear();
      counts.bdd_samples.emplace_back("online", mgr.stats());
      size_t checks_run = 0;
      size_t failures = 0;
      for (const nettest::TestResult& r : results) {
        checks_.expect(r.failures == 0, "test " + r.name + " reports 0 failures");
        checks_run += r.checks;
        failures += r.failures;
      }
      counts.values["nettest.checks"] = static_cast<double>(checks_run);
      counts.values["nettest.failures"] = static_cast<double>(failures);

      std::optional<ys::CoverageEngine> engine;
      it.report_s = timed_stage(tracer, "stage.report", [&] {
        {
          const Span span(tracer, "engine.build");
          engine.emplace(mgr, net_, tracker.trace(), engine_opts);
        }
        const Span span(tracer, "report.report");
        main_report = engine->report();
      });
      counts.values["engine.match_sets_s"] = engine->timings().match_sets_seconds;
      counts.values["engine.covered_sets_s"] = engine->timings().covered_sets_seconds;
      counts.bdd_samples.emplace_back("report", mgr.stats());

      ys::PathCoverageResult paths;
      it.paths_s = timed_stage(tracer, "stage.paths", [&] {
        const Span span(tracer, "paths.sweep");
        coverage::PathExplorerOptions path_opts;
        path_opts.max_paths = w_.path_cap;
        paths = engine->path_coverage(path_opts);
      });
      counts.values["paths.total"] = static_cast<double>(paths.total_paths);
      counts.values["paths.covered"] = static_cast<double>(paths.covered_paths);
      counts.bdd_samples.emplace_back("paths", mgr.stats());

      ys::SuiteCoverageMatrix matrix;
      ys::MinimizeResult minimized;
      ys::GapReport gaps;
      it.optimize_s = timed_stage(tracer, "stage.optimize", [&] {
        {
          const Span span(tracer, "optimize.matrix");
          matrix = ys::build_suite_matrix(engine->transfer(), suite, nullptr, kThreads);
        }
        {
          const Span span(tracer, "optimize.minimize");
          minimized = ys::minimize_suite(matrix);
        }
        {
          const Span span(tracer, "optimize.prioritize");
          (void)ys::prioritize_suite(matrix);
        }
        const Span span(tracer, "optimize.gap");
        gaps = ys::build_gap_report(*engine);
      });
      counts.values["optimize.kept"] = static_cast<double>(minimized.selected.size());
      counts.bdd_samples.emplace_back("optimize", mgr.stats());

      check_outputs(main_report, paths, matrix, minimized, gaps);
      if (full_checks) check_optimizer(main_report, minimized, gaps, *engine, mgr, suite);

      const std::string trace_path = work_dir_ + "/coverage.trace";
      it.persist_s = timed_stage(tracer, "stage.persist", [&] {
        {
          const Span span(tracer, "persist.save");
          ys::save_trace(trace_path, tracker.trace(), mgr);
        }
        const Span span(tracer, "persist.load");
        loaded = ys::load_trace(trace_path, load_mgr);
      });
      counts.values["persist.trace_bytes"] = static_cast<double>(fs::file_size(trace_path));
      checks_.expect(loaded.marked_rules() == tracker.trace().marked_rules(),
                     "the loaded trace marks the saved trace's rules");
    }
    if (full_checks) {
      checks_.expect(normalized(scratch_report(loaded)) == normalized(main_report),
                     "the loaded trace reproduces the report");
    }

    run_churn(tracer, it, counts, loaded, load_mgr, full_checks);
    return it;
  }

 private:
  /// Cheap checks of every pass: the digest of the deterministic outputs
  /// (the report, the exact path totals when the sweep is uncapped, the
  /// coverage matrix, the minimized suite and the gap-report totals) and
  /// their consistency.
  void check_outputs(const ys::CoverageReport& report, const ys::PathCoverageResult& paths,
                     const ys::SuiteCoverageMatrix& matrix,
                     const ys::MinimizeResult& minimized, const ys::GapReport& gaps) {
    std::string blob = normalized(report);
    if (w_.path_cap == 0) {
      blob += std::to_string(paths.total_paths) + "/" + std::to_string(paths.covered_paths) +
              (paths.truncated ? " truncated\n" : "\n");
    }
    for (const std::vector<char>& row : matrix.covers) blob.append(row.begin(), row.end());
    for (const ys::SelectedTest& s : minimized.selected) blob += s.name + "\n";
    blob += std::to_string(gaps.uncovered_rules) + " " + std::to_string(gaps.packet_witnesses) +
            " " + std::to_string(gaps.state_only) + "\n";
    const uint64_t digest = ys::fnv1a64(blob.data(), blob.size());
    checks_.expect(digest == w_.expected_digest, "output digest " + hex(digest) +
                                                     " matches the recorded " +
                                                     hex(w_.expected_digest));
    checks_.expect(!report.truncated && !matrix.truncated && !gaps.truncated,
                   "no stage reports truncated results");
    checks_.expect(paths.covered_paths <= paths.total_paths &&
                       (w_.path_cap != 0 || !paths.truncated),
                   "path sweep totals are consistent");
  }

  /// Gap witnesses replay to their rules; the minimized suite recomputes to
  /// the full suite's coverage through a fresh engine.
  void check_optimizer(const ys::CoverageReport& report, const ys::MinimizeResult& minimized,
                       const ys::GapReport& gaps, const ys::CoverageEngine& engine,
                       bdd::BddManager& mgr, const nettest::TestSuite& suite) {
    size_t replayed = 0;
    size_t mismatched = 0;
    for (const ys::DeviceGaps& d : gaps.devices) {
      for (const ys::GapWitness& g : d.gaps) {
        if (g.state_only) continue;
        ++replayed;
        const net::RuleId hit = engine.transfer().lookup(d.device, net::InterfaceId{},
                                                         g.witness, net_.rule(g.rule).table);
        if (hit != g.rule) ++mismatched;
      }
    }
    checks_.expect(mismatched == 0 && replayed == gaps.packet_witnesses,
                   "all " + std::to_string(replayed) + " gap witnesses replay to their rule");

    ys::CoverageTracker subset_tracker;
    for (const ys::SelectedTest& s : minimized.selected) {
      (void)suite.test(s.index).run(engine.transfer(), subset_tracker);
    }
    const ys::CoverageEngine subset_engine(mgr, net_, subset_tracker.trace(),
                                           ys::EngineOptions{nullptr, kThreads, "", 0.0});
    const double subset = subset_engine.rules_coverage(coverage::fractional_aggregator());
    checks_.expect(subset == report.overall.rule_fractional &&
                       minimized.achieved_coverage == subset,
                   "the minimized suite recomputes to full coverage (" + g17(subset) +
                       " vs " + g17(report.overall.rule_fractional) + ")");
  }

  /// The report of a from-scratch engine over `trace` on the current network.
  ys::CoverageReport scratch_report(const coverage::CoverageTrace& trace) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const coverage::CoverageTrace local = trace.imported_into(mgr);
    const ys::CoverageEngine engine(mgr, net_, local,
                                    ys::EngineOptions{nullptr, kThreads, "", 0.0});
    return engine.report();
  }

  /// Seeded FIB edit: one forwarding rule of a random device starts dropping.
  /// Returns the edited rule's previous state.
  net::Rule apply_edit(std::mt19937_64& rng) {
    for (;;) {
      const auto dev = static_cast<uint32_t>(rng() % net_.device_count());
      std::vector<net::RuleId> candidates;
      for (const net::RuleId id : net_.table(net::DeviceId{dev})) {
        if (net_.rule(id).action.type != net::ActionType::Drop) candidates.push_back(id);
      }
      if (candidates.empty()) continue;
      const net::RuleId id = candidates[rng() % candidates.size()];
      const net::Rule before = net_.rule(id);
      net_.mutable_rule(id).action = net::Action::drop();
      return before;
    }
  }

  void run_churn(Tracer& tracer, Pass& it, Counts& counts,
                 const coverage::CoverageTrace& loaded, bdd::BddManager& load_mgr,
                 bool full_checks) {
    const std::string cache_dir = work_dir_ + "/cache";
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    const ys::EngineOptions cached{nullptr, kThreads, cache_dir, 0.0};

    // Every pass replays the same seeded edit sequence.
    std::mt19937_64 rng(opt_.seed);
    std::vector<net::Rule> edits;
    std::vector<ys::CacheStats> stats;
    ys::CoverageReport last_warm;
    it.churn_s = timed_stage(tracer, "stage.churn", [&] {
      {
        const Span span(tracer, "cache.cold_build");
        const ys::CoverageEngine cold(load_mgr, net_, loaded, cached);
        stats.push_back(*cold.cache_stats());
      }
      for (int step = 0; step < w_.churn_steps; ++step) {
        edits.push_back(apply_edit(rng));
        const Clock::time_point start = Clock::now();
        {
          const Span span(tracer, "churn.step");
          bdd::BddManager mgr(packet::kNumHeaderBits);
          const coverage::CoverageTrace local = loaded.imported_into(mgr);
          std::optional<ys::CoverageEngine> warm;
          {
            const Span build(tracer, "cache.warm_build");
            warm.emplace(mgr, net_, local, cached);
          }
          {
            const Span report(tracer, "report.report");
            last_warm = warm->report();
          }
          stats.push_back(*warm->cache_stats());
        }
        it.churn_steps_s.push_back(seconds_since(start));
      }
    });

    checks_.expect(!stats.front().loaded && stats.front().saved,
                   "the cold engine finds no cache and writes one");
    double match_hits = 0.0;
    double cover_hits = 0.0;
    double devices = 0.0;
    double invalidated = 0.0;
    bool reused = true;
    for (size_t i = 1; i < stats.size(); ++i) {
      const ys::CacheStats& s = stats[i];
      match_hits += static_cast<double>(s.match_hits);
      cover_hits += static_cast<double>(s.cover_hits);
      devices += static_cast<double>(s.devices);
      invalidated += static_cast<double>(s.invalidated);
      // One device was edited since the previous engine saved the cache.
      reused = reused && s.loaded && s.saved && s.match_hits + 1 == s.devices;
    }
    checks_.expect(reused, "every warm step reuses all but the edited device's records");
    counts.values["cache.match_hit_ratio"] = devices > 0 ? match_hits / devices : 0.0;
    counts.values["cache.cover_hit_ratio"] = devices > 0 ? cover_hits / devices : 0.0;
    counts.values["cache.invalidated"] = invalidated;

    if (full_checks) {
      checks_.expect(normalized(scratch_report(loaded)) == normalized(last_warm),
                     "the last warm report equals a from-scratch engine's report");
    }
    // Undo the edits, newest first, so the next pass sees the original network.
    for (auto e = edits.rbegin(); e != edits.rend(); ++e) net_.mutable_rule(e->id) = *e;
  }

  const Workload& w_;
  const Options& opt_;
  Built& built_;
  net::Network& net_;
  Checks& checks_;
  std::string work_dir_;
  int passes_ = 0;
};

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median over `runs` of each layer's per-run totals.
LayerTotals median_layer(const std::vector<std::map<std::string, LayerTotals>>& runs,
                         const std::string& name) {
  std::vector<double> wall;
  std::vector<double> self;
  std::vector<double> cpu;
  LayerTotals out;
  for (const auto& totals : runs) {
    const auto it = totals.find(name);
    if (it == totals.end()) continue;
    wall.push_back(it->second.wall_s);
    self.push_back(it->second.self_s);
    cpu.push_back(it->second.cpu_s);
    out.rss_mb = std::max(out.rss_mb, it->second.rss_mb);
    out.calls += it->second.calls;
  }
  out.wall_s = median(wall);
  out.self_s = median(self);
  out.cpu_s = median(cpu);
  return out;
}

/// Per-layer metrics: medians over the traced setup runs and pipeline runs.
std::vector<Metric> layer_metrics(const std::vector<std::map<std::string, LayerTotals>>& setup,
                                  const std::vector<std::map<std::string, LayerTotals>>& runs,
                                  const Counts& counts, size_t rules, double overhead_s) {
  std::vector<Metric> out;
  const auto add_layer = [&](const std::string& name, const LayerTotals& t) {
    out.push_back({name + "_s", t.wall_s, "s"});
    out.push_back({name + "_cpu_s", t.cpu_s, "s"});
    out.push_back({name + "_rss_mb", t.rss_mb, "MB"});
  };
  for (const char* name : {"topo.build", "routing.fib", "topo.install"}) {
    add_layer(name, median_layer(setup, name));
  }
  for (const char* name :
       {"dataplane.index", "engine.build", "report.report", "paths.sweep", "optimize.matrix",
        "optimize.minimize", "optimize.prioritize", "optimize.gap", "persist.save",
        "persist.load", "cache.cold_build", "cache.warm_build"}) {
    add_layer(name, median_layer(runs, name));
  }
  // The tests of the suite as one layer; each test is printed by name.
  std::vector<std::map<std::string, LayerTotals>> suites;
  for (const auto& totals : runs) {
    LayerTotals suite;
    for (const auto& [name, t] : totals) {
      if (name.rfind("nettest.", 0) != 0) continue;
      suite.wall_s += t.wall_s;
      suite.cpu_s += t.cpu_s;
      suite.rss_mb = std::max(suite.rss_mb, t.rss_mb);
    }
    suites.push_back({{"nettest.suite", suite}});
  }
  add_layer("nettest.suite", median_layer(suites, "nettest.suite"));
  for (const char* stage : {"online", "report", "paths", "optimize", "persist", "churn"}) {
    const std::string name = std::string("stage.") + stage;
    out.push_back({name + "_self_s", median_layer(runs, name).self_s, "s"});
  }
  for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
           {"nettest.checks", "count"},
           {"nettest.failures", "count"},
           {"engine.match_sets_s", "s"},
           {"engine.covered_sets_s", "s"},
           {"paths.total", "count"},
           {"paths.covered", "count"},
           {"optimize.kept", "count"},
           {"persist.trace_bytes", "bytes"},
           {"cache.match_hit_ratio", "ratio"},
           {"cache.cover_hit_ratio", "ratio"},
           {"cache.invalidated", "count"}}) {
    const auto it = counts.values.find(name);
    out.push_back({name, it == counts.values.end() ? 0.0 : it->second, unit});
  }
  out.push_back({"routing.rules", static_cast<double>(rules), "count"});
  size_t max_nodes = 0;
  for (const auto& [phase, s] : counts.bdd_samples) max_nodes = std::max(max_nodes, s.arena_nodes);
  out.push_back({"bdd.arena_nodes", static_cast<double>(max_nodes), "count"});
  out.push_back({"bdd.cache_hit_rate",
                 counts.bdd_samples.empty() ? 0.0
                                            : counts.bdd_samples.back().second.cache_hit_rate(),
                 "ratio"});
  out.push_back({"trace.overhead_s", overhead_s, "s"});
  return out;
}

void print_layers(const char* title, const std::vector<std::map<std::string, LayerTotals>>& runs) {
  std::set<std::string> names;
  for (const auto& totals : runs) {
    for (const auto& [name, t] : totals) names.insert(name);
  }
  std::printf("# %s, medians over %zu run(s)\n# %-30s %6s %11s %11s %11s %9s\n", title,
              runs.size(), "span", "calls", "wall_s", "self_s", "cpu_s", "rss_mb");
  for (const std::string& name : names) {
    const LayerTotals t = median_layer(runs, name);
    std::printf("# %-30s %6d %11.6f %11.6f %11.6f %9.1f\n", name.c_str(), t.calls,
                t.wall_s, t.self_s, t.cpu_s, t.rss_mb);
  }
}

std::vector<Metric> run_workload(const Workload& w, const Options& opt, Checks& checks) {
  Tracer tracer(opt.trace);
  Tracer untraced(false);
  int next_run = 0;
  std::printf("# workload %s, seed %llu, %u threads, tracing %s\n", w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), kThreads,
              opt.trace ? "on" : "off");

  // Setup: build from scratch several times and keep the last network.
  std::unique_ptr<Built> built;
  std::vector<double> setup_s;
  std::vector<std::map<std::string, LayerTotals>> setup_layers;
  for (int r = 0; r < kSetupReps; ++r) {
    built.reset();
    tracer.set_run(next_run);
    const Clock::time_point start = Clock::now();
    {
      const Span span(tracer, "stage.setup");
      built = build_network(w, tracer);
    }
    setup_s.push_back(seconds_since(start));
    setup_layers.push_back(tracer.totals(next_run++));
  }
  std::printf("# %s\n# setup_s samples:", built->network->summary().c_str());
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  // Whole pipeline passes until --seconds have passed. With tracing on,
  // untraced and traced passes alternate, each going first in every other
  // pair.
  Pipeline pipeline(w, opt, *built, checks);
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<std::map<std::string, LayerTotals>> traced_layers;
  Counts counts;
  const auto plain_pass = [&] {
    const Pass& it = plain.emplace_back(pipeline.run_pass(untraced, counts));
    std::printf("# pass %zu: online %.4f report %.4f paths %.4f optimize %.4f "
                "persist %.4f churn %.4f run %.4f\n",
                plain.size(), it.online_s, it.report_s, it.paths_s, it.optimize_s,
                it.persist_s, it.churn_s, it.run_s());
  };
  const auto traced_pass = [&] {
    tracer.set_run(next_run);
    {
      const Span root(tracer, "pass");
      traced.push_back(pipeline.run_pass(tracer, counts));
    }
    traced_layers.push_back(tracer.totals(next_run++));
    std::printf("# traced pass %zu: run %.4f\n", traced.size(), traced.back().run_s());
  };
  const Clock::time_point start = Clock::now();
  do {
    if (!opt.trace) {
      plain_pass();
    } else if (plain.size() % 2 == 0) {
      plain_pass();
      traced_pass();
    } else {
      traced_pass();
      plain_pass();
    }
  } while (seconds_since(start) < opt.seconds);

  const auto med = [](const std::vector<Pass>& its, double Pass::*field) {
    std::vector<double> v;
    for (const Pass& it : its) v.push_back(it.*field);
    return median(v);
  };
  const auto med_run = [](const std::vector<Pass>& its) {
    std::vector<double> v;
    for (const Pass& it : its) v.push_back(it.run_s());
    return median(v);
  };
  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> steps;
    for (const Pass& it : plain) {
      steps.insert(steps.end(), it.churn_steps_s.begin(), it.churn_steps_s.end());
    }
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"online_s", med(plain, &Pass::online_s), "s"},
        {"report_s", med(plain, &Pass::report_s), "s"},
        {"paths_s", med(plain, &Pass::paths_s), "s"},
        {"optimize_s", med(plain, &Pass::optimize_s), "s"},
        {"churn_step_s", median(steps), "s"},
        {"run_s", med_run(plain), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("# %zu pass(es), %zu churn step(s), %zu setup(s)\n", plain.size(),
                steps.size(), setup_s.size());
  } else {
    const double untraced_run_s = med_run(plain);
    const double traced_run_s = med_run(traced);
    metrics = layer_metrics(setup_layers, traced_layers, counts,
                            built->network->rule_count(), traced_run_s - untraced_run_s);
    print_layers("setup layers", setup_layers);
    print_layers("pipeline layers", traced_layers);
    for (const auto& [phase, s] : counts.bdd_samples) {
      std::printf("# bdd after %-9s arena_nodes %zu cache_hit_rate %.4f\n", phase.c_str(),
                  s.arena_nodes, s.cache_hit_rate());
    }
    std::printf("# run_s median: untraced %.6f, traced %.6f\n", untraced_run_s, traced_run_s);
    const std::string spans_path = opt.work_dir + "/spans-" + w.name + "-seed" +
                                   std::to_string(opt.seed) + ".json";
    checks.expect(tracer.write_chrome_json(spans_path), "write " + spans_path);
    std::printf("# spans written to %s\n", spans_path.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-16s %-28s %16.6f %s\n", w.name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return metrics;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME|all --seed N --seconds S --trace 0|1\n"
               "                [--work-dir DIR]\n"
               "workloads: fattree-report fattree-suite regional-churn\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) return false;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !opt.workload.empty();
}

std::string json_metrics(const std::vector<Metric>& metrics, const std::string& prefix) {
  std::string out;
  for (const Metric& m : metrics) {
    if (!out.empty()) out += ", ";
    out += "\"" + prefix + m.name + "\": {\"value\": " + g17(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  std::vector<Workload> selected;
  for (const Workload& w : all_workloads()) {
    if (opt.workload == "all" || opt.workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) return usage();

  // With --workload all, every workload runs in this one process: metric
  // names get a "<workload>/" prefix and peak_rss_mb is the process's
  // high-water mark so far.
  Checks checks;
  std::string metrics;
  try {
    for (const Workload& w : selected) {
      const std::vector<Metric> m = run_workload(w, opt, checks);
      if (!metrics.empty()) metrics += ", ";
      metrics += json_metrics(m, selected.size() == 1 ? "" : w.name + "/");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  const bool correct = checks.failed() == 0;
  std::printf("# failed_share %.6f (%ld failed of %ld operations)\n",
              static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted()),
              checks.failed(), checks.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", checks.attempted(), checks.failed(),
              metrics.c_str());
  return correct ? 0 : 1;
}
