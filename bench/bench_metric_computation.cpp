// Figure 9 reproduction: time to compute coverage metrics after testing.
//
// For each fat-tree size, collect a realistic coverage trace (the four
// §8.1 tests), then time each fractional metric computed by itself —
// device, interface, rule, each through the collection API, which builds
// its own component specs and measures every rule it touches — plus the
// path-coverage sweep, and finally all local metrics together through
// metrics(). metrics() measures each rule once and folds the device,
// interface and both rule numbers from that one table, on top of the
// match sets and covered sets every column shares (§8.2 reports that the
// shared work makes the combined computation barely more expensive than
// one metric).
//
// Expected shape: local metrics cheap and near-linear in network size;
// path coverage orders of magnitude more expensive and hitting its
// wall-clock budget (the paper's 1-hour timeout, here YS_PATH_BUDGET_S,
// default 60s) on larger topologies.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

int main() {
  const double path_budget = benchutil::path_budget_seconds();
  std::printf("# bench_metric_computation (Figure 9), path budget %.0fs\n", path_budget);
  std::printf("%6s %8s %12s %12s %12s %12s %14s %16s\n", "k", "routers", "device(s)",
              "iface(s)", "rule(s)", "all-local(s)", "path(s)", "paths");

  for (const int k : benchutil::fat_tree_sweep()) {
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager mgr(packet::kNumHeaderBits);

    // Build the coverage trace with the standard suite (not timed here;
    // Figure 8 covers test time).
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex match_sets(mgr, tree.network);
      const dataplane::Transfer transfer(match_sets);
      nettest::TestSuite suite("fig9");
      suite.add(std::make_unique<nettest::DefaultRouteCheck>());
      suite.add(std::make_unique<nettest::ToRContract>());
      suite.add(std::make_unique<nettest::ToRPingmesh>());
      (void)suite.run_all(transfer, tracker);
    }

    // Each metric timed on a fresh engine so per-metric cost includes the
    // shared step-1/step-2 work, as in the paper's per-metric bars. One
    // warm-up engine construction first, so one-time BDD arena costs are
    // not billed to whichever metric happens to run first.
    { const ys::CoverageEngine warmup(mgr, tree.network, tracker.trace()); }
    const auto timed = [&](auto&& metric_fn) {
      benchutil::Stopwatch watch;
      const ys::CoverageEngine engine(mgr, tree.network, tracker.trace());
      metric_fn(engine);
      return watch.seconds();
    };

    const double device_s = timed([](const ys::CoverageEngine& e) {
      (void)e.devices_coverage(coverage::fractional_aggregator());
    });
    const double iface_s = timed([](const ys::CoverageEngine& e) {
      (void)e.interfaces_coverage(coverage::fractional_aggregator());
    });
    const double rule_s = timed([](const ys::CoverageEngine& e) {
      (void)e.rules_coverage(coverage::fractional_aggregator());
    });
    // §8.2: all local metrics together — one measurement per rule, shared
    // by every fold, makes this barely more than a single metric.
    const double all_local_s =
        timed([](const ys::CoverageEngine& e) { (void)e.metrics(); });

    benchutil::Stopwatch path_watch;
    const ys::CoverageEngine engine(mgr, tree.network, tracker.trace());
    const ys::PathCoverageResult paths = engine.path_coverage({}, path_budget);
    const double path_s = path_watch.seconds();

    char path_note[64];
    std::snprintf(path_note, sizeof(path_note), "%llu%s",
                  static_cast<unsigned long long>(paths.total_paths),
                  paths.truncated ? " (budget hit)" : "");
    std::printf("%6d %8zu %12.3f %12.3f %12.3f %12.3f %14.3f %16s\n", k,
                tree.network.device_count(), device_s, iface_s, rule_s, all_local_s,
                path_s, path_note);
    // Per-phase breakdown from the engine's own phase timers (not the
    // ad-hoc stopwatches above, which also bill engine construction).
    char klabel[16];
    std::snprintf(klabel, sizeof(klabel), "k=%d", k);
    benchutil::print_phase_breakdown(klabel, engine.timings(), paths.seconds);
  }

  // Tentpole comparison: the offline phase (match sets + covered sets +
  // local metrics, and the path-universe sweep) serial vs parallel. Each
  // measurement runs in a fresh BDD manager with the trace structurally
  // imported in, so neither mode benefits from another run's warm caches;
  // "identical" checks the two modes' outputs bit-for-bit (n/a when the
  // path budget truncated either sweep — truncation points are timing-
  // dependent by design).
  {
    const unsigned threads = benchutil::bench_threads();
    std::printf("\n# parallel offline phase: 1 thread vs %u threads (YS_BENCH_THREADS); "
                "%u hardware threads available\n",
                threads, std::thread::hardware_concurrency());
    if (std::thread::hardware_concurrency() < threads) {
      std::printf("# NOTE: fewer cores than workers — speedup columns reflect "
                  "scheduling overhead, not the parallel design; 'identical' "
                  "is the meaningful column on this host\n");
    }
    std::printf("%6s %12s %12s %8s %12s %12s %8s %10s\n", "k", "local-1t(s)",
                "local-Nt(s)", "speedup", "path-1t(s)", "path-Nt(s)", "speedup",
                "identical");
    for (const int k : benchutil::fat_tree_sweep()) {
      topo::FatTree tree = topo::make_fat_tree({.k = k});
      routing::FibBuilder::compute_and_build(tree.network, tree.routing);
      bdd::BddManager trace_mgr(packet::kNumHeaderBits);
      ys::CoverageTracker tracker;
      {
        const dataplane::MatchSetIndex match_sets(trace_mgr, tree.network);
        const dataplane::Transfer transfer(match_sets);
        nettest::TestSuite suite("fig9");
        suite.add(std::make_unique<nettest::DefaultRouteCheck>());
        suite.add(std::make_unique<nettest::ToRContract>());
        suite.add(std::make_unique<nettest::ToRPingmesh>());
        (void)suite.run_all(transfer, tracker);
      }

      struct Sample {
        double local_s = 0.0;
        double path_s = 0.0;
        ys::MetricRow row;
        ys::PathCoverageResult paths;
      };
      const auto measure = [&](unsigned t) {
        Sample s;
        bdd::BddManager m(packet::kNumHeaderBits);
        const coverage::CoverageTrace local_trace = tracker.trace().imported_into(m);
        benchutil::Stopwatch local_watch;
        const ys::CoverageEngine engine(m, tree.network, local_trace,
                                        ys::EngineOptions{nullptr, t});
        s.row = engine.metrics();
        s.local_s = local_watch.seconds();
        benchutil::Stopwatch path_watch;
        s.paths = engine.path_coverage({}, path_budget);
        s.path_s = path_watch.seconds();
        return s;
      };
      const Sample serial = measure(1);
      const Sample parallel = measure(threads);

      const bool rows_equal =
          serial.row.device_fractional == parallel.row.device_fractional &&
          serial.row.interface_fractional == parallel.row.interface_fractional &&
          serial.row.rule_fractional == parallel.row.rule_fractional &&
          serial.row.rule_weighted == parallel.row.rule_weighted;
      const bool paths_equal =
          serial.paths.total_paths == parallel.paths.total_paths &&
          serial.paths.covered_paths == parallel.paths.covered_paths &&
          serial.paths.fractional == parallel.paths.fractional &&
          serial.paths.mean == parallel.paths.mean;
      const bool any_truncated = serial.paths.truncated || parallel.paths.truncated;
      const char* identical = !rows_equal                  ? "NO"
                              : any_truncated              ? "n/a"
                              : paths_equal                ? "yes"
                                                           : "NO";
      std::printf("%6d %12.3f %12.3f %7.2fx %12.3f %12.3f %7.2fx %10s\n", k,
                  serial.local_s, parallel.local_s,
                  parallel.local_s > 0 ? serial.local_s / parallel.local_s : 0.0,
                  serial.path_s, parallel.path_s,
                  parallel.path_s > 0 ? serial.path_s / parallel.path_s : 0.0,
                  identical);
    }
  }

  // Design-choice ablation (DESIGN.md §5): Equation-3 survivor sets are
  // threaded through the DFS; the naive alternative re-walks every emitted
  // path with path_measure, which is quadratic in path length. Compare
  // both on the same bounded sample of the smallest topology's universe.
  {
    const int k = benchutil::fat_tree_sweep().front();
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex match_sets(mgr, tree.network);
      const dataplane::Transfer transfer(match_sets);
      (void)nettest::ToRPingmesh().run(transfer, tracker);
    }
    const ys::CoverageEngine engine(mgr, tree.network, tracker.trace());
    coverage::PathExplorerOptions options;
    options.max_paths = 5000;

    benchutil::Stopwatch streamed_watch;
    const coverage::PathExplorer streamed(engine.transfer(), &engine.covered_sets(),
                                          options);
    uint64_t streamed_covered = 0;
    const uint64_t sample = streamed.explore_universe([&](const coverage::ExploredPath& p) {
      if (p.covered_ratio > 0.0) ++streamed_covered;
      return true;
    });
    const double streamed_s = streamed_watch.seconds();

    benchutil::Stopwatch naive_watch;
    const coverage::PathExplorer enumerator(engine.transfer(), nullptr, options);
    uint64_t naive_covered = 0;
    const coverage::Measure measure = coverage::path_measure(engine.transfer());
    (void)enumerator.explore_universe([&](const coverage::ExploredPath& p) {
      // Re-derive the guard and re-walk the path (the naive design).
      packet::PacketSet guard = p.final_set;
      for (auto it = p.rules.rbegin(); it != p.rules.rend(); ++it) {
        const net::Rule& rule = engine.network().rule(*it);
        guard = engine.transfer().rewrite_preimage(rule, guard).intersect(
            engine.match_sets().match_set(*it));
      }
      const coverage::GuardedString g{guard, p.rules, packet::kNoLocation};
      if (measure(engine.covered_sets(), g).value > 0.0) ++naive_covered;
      return true;
    });
    const double naive_s = naive_watch.seconds();
    std::printf("\n# Equation-3 ablation on %llu paths (k=%d): streamed %.3fs vs "
                "per-path recompute %.3fs (%.1fx); covered %llu/%llu agree=%s\n",
                static_cast<unsigned long long>(sample), k, streamed_s, naive_s,
                streamed_s > 0 ? naive_s / streamed_s : 0.0,
                static_cast<unsigned long long>(streamed_covered),
                static_cast<unsigned long long>(naive_covered),
                streamed_covered == naive_covered ? "yes" : "NO");
  }

  // Observability overhead budget (DESIGN.md §9): the instrumented offline
  // phase + all-local metrics, observability off vs on, must stay within
  // 3%. Median of several repetitions absorbs scheduler noise; a breach
  // fails the bench (nonzero exit) so regressions cannot land silently.
  int exit_code = 0;
  {
    const int k = benchutil::fat_tree_sweep().front();
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager trace_mgr(packet::kNumHeaderBits);
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex match_sets(trace_mgr, tree.network);
      const dataplane::Transfer transfer(match_sets);
      nettest::TestSuite suite("fig9");
      suite.add(std::make_unique<nettest::DefaultRouteCheck>());
      suite.add(std::make_unique<nettest::ToRContract>());
      suite.add(std::make_unique<nettest::ToRPingmesh>());
      (void)suite.run_all(transfer, tracker);
    }

    const auto run_once = [&] {
      bdd::BddManager m(packet::kNumHeaderBits);
      const coverage::CoverageTrace local_trace = tracker.trace().imported_into(m);
      benchutil::Stopwatch watch;
      const ys::CoverageEngine engine(m, tree.network, local_trace);
      (void)engine.devices_coverage(coverage::fractional_aggregator());
      (void)engine.interfaces_coverage(coverage::fractional_aggregator());
      (void)engine.rules_coverage(coverage::fractional_aggregator());
      return watch.seconds();
    };
    const auto median_of = [&](int reps) {
      std::vector<double> samples;
      samples.reserve(reps);
      for (int i = 0; i < reps; ++i) samples.push_back(run_once());
      std::sort(samples.begin(), samples.end());
      return samples[samples.size() / 2];
    };

    constexpr int kReps = 7;
    obs::set_enabled(false);
    const double off_s = median_of(kReps);
    obs::set_enabled(true);
    const double on_s = median_of(kReps);
    obs::Tracer::global().clear();  // bound the buffers for repeated runs
    obs::set_enabled(false);

    const double overhead_pct = off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
    const bool within_budget = overhead_pct < 3.0;
    std::printf("\n# observability overhead (k=%d, offline phase + all-local metrics, "
                "median of %d): off %.3fs, on %.3fs, overhead %+.2f%% — "
                "within <3%% budget: %s\n",
                k, kReps, off_s, on_s, overhead_pct, within_budget ? "yes" : "NO");
    if (!within_budget) exit_code = 1;
  }
  return exit_code;
}
