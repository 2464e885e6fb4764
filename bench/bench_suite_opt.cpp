// Suite optimization: parallel coverage-matrix build + minimization
// fidelity (ISSUE 10 tentpole).
//
// On a fat-tree (YS_SUITEOPT_K, default 8) with the standard 4-test suite:
//   1. Times build_suite_matrix at 1 thread vs YS_BENCH_THREADS (default 4)
//      worker threads — fresh BddManager/MatchSetIndex per measurement, so
//      the apply cache never poisons the comparison — and checks the two
//      matrices are bit-identical. Min of YS_SUITEOPT_REPS (default 3)
//      alternating reps absorbs scheduler noise.
//   2. Minimizes the suite and recomputes both the full and the minimized
//      suite's fractional rule coverage through fresh CoverageEngines; the
//      two doubles must be EXACTLY equal (the set-cover stop condition's
//      whole point). Inexact recomputation always fails the bench.
//   3. Emits the prioritized coverage/cost curve and the gap-report totals.
//
// Gates (env-driven, unset = off):
//   YS_SUITEOPT_MIN_SPEEDUP   fail unless parallel matrix build beats the
//                             serial one by at least this factor (CI: 2).
//
// Results go to stdout and BENCH_suiteopt.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/optimize.hpp"

using namespace yardstick;

namespace {

using benchutil::env_f64;
using benchutil::env_int;

/// A production-shaped suite: the end-to-end tests arrive pre-sharded by
/// source ToR (YS_SUITEOPT_SHARDS slices each, default 4) the way real
/// pingmesh deployments slice their probe fleets — which also gives the
/// parallel matrix build balanced work to schedule. Expensive shards go
/// first: the worker queue drains in suite order.
nettest::TestSuite make_suite(size_t shards) {
  nettest::TestSuite suite("suiteopt");
  for (size_t s = 0; s < shards; ++s) {
    suite.add(std::make_unique<nettest::ToRReachability>(nettest::TestShard{s, shards}));
  }
  for (size_t s = 0; s < shards; ++s) {
    suite.add(std::make_unique<nettest::ToRPingmesh>(nettest::TestShard{s, shards}));
  }
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  return suite;
}

/// One matrix build on a fresh manager — the whole pipeline the optimizer
/// sees, timed end to end (test runs + per-test covered-set builds).
ys::SuiteCoverageMatrix build_once(const topo::FatTree& tree,
                                   const nettest::TestSuite& suite, unsigned threads,
                                   double* wall_s) {
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  benchutil::Stopwatch watch;
  ys::SuiteCoverageMatrix m = ys::build_suite_matrix(transfer, suite, nullptr, threads);
  *wall_s = watch.seconds();
  return m;
}

bool matrices_identical(const ys::SuiteCoverageMatrix& a,
                        const ys::SuiteCoverageMatrix& b) {
  return a.covers == b.covers && a.vacuous == b.vacuous &&
         a.vacuous_count == b.vacuous_count && a.rule_count == b.rule_count;
}

}  // namespace

int main() {
  const int k = env_int("YS_SUITEOPT_K", 8);
  const unsigned threads = benchutil::bench_threads();
  const int reps = std::max(1, env_int("YS_SUITEOPT_REPS", 3));
  const int shards = std::max(1, env_int("YS_SUITEOPT_SHARDS", 4));
  obs::set_enabled(true);

  topo::FatTree tree = topo::make_fat_tree({.k = k});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const nettest::TestSuite suite = make_suite(static_cast<size_t>(shards));

  std::printf("# bench_suite_opt: k=%d (%zu routers, %zu rules), %zu tests, "
              "%u worker thread(s), min of %d reps\n",
              k, tree.network.device_count(), tree.network.rule_count(), suite.size(),
              threads, reps);

  // --- 1. Serial vs parallel matrix build ------------------------------
  double serial_s = 0.0;
  double parallel_s = 0.0;
  ys::SuiteCoverageMatrix serial_m;
  ys::SuiteCoverageMatrix parallel_m;
  for (int rep = 0; rep < reps; ++rep) {
    double s = 0.0;
    double p = 0.0;
    serial_m = build_once(tree, suite, 1, &s);
    parallel_m = build_once(tree, suite, threads, &p);
    serial_s = rep == 0 ? s : std::min(serial_s, s);
    parallel_s = rep == 0 ? p : std::min(parallel_s, p);
  }
  const bool identical = matrices_identical(serial_m, parallel_m);
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  std::printf("# matrix build: serial %.3fs, %u threads %.3fs -> %.2fx speedup, "
              "bit-identical: %s\n",
              serial_s, threads, parallel_s, speedup, identical ? "yes" : "NO");

  // --- 2. Minimization + exact recomputation cross-check ---------------
  ys::MinimizeResult min = ys::minimize_suite(serial_m);
  {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(mgr, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker full_tracker;
    (void)suite.run_all(transfer, full_tracker);
    ys::CoverageTracker subset_tracker;
    for (const ys::SelectedTest& s : min.selected) {
      (void)suite.test(s.index).run(transfer, subset_tracker);
    }
    const ys::CoverageEngine full_engine(mgr, tree.network, full_tracker.trace());
    const ys::CoverageEngine subset_engine(mgr, tree.network, subset_tracker.trace());
    min.recomputed_full = full_engine.metrics().rule_fractional;
    min.recomputed_subset = subset_engine.metrics().rule_fractional;
  }
  const bool exact = min.recomputed_full == min.recomputed_subset &&
                     min.achieved_coverage == min.recomputed_subset;
  std::printf("# minimize: kept %zu/%zu tests, coverage %.6f (recomputed full "
              "%.6f, subset %.6f) — exact: %s\n",
              min.selected.size(), min.suite_size, min.achieved_coverage,
              min.recomputed_full, min.recomputed_subset, exact ? "yes" : "NO");

  // --- 3. Coverage/cost curve + gap totals -----------------------------
  const ys::PrioritizeResult pri = ys::prioritize_suite(serial_m);
  for (const ys::PrioritizedTest& t : pri.order) {
    std::printf("#   prioritize: %-20s +%.6f in %.3fs -> %.6f after %.3fs\n",
                t.name.c_str(), t.marginal, t.seconds, t.cumulative_coverage,
                t.cumulative_seconds);
  }
  ys::GapReport gaps;
  {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex index(mgr, tree.network);
      const dataplane::Transfer transfer(index);
      (void)suite.run_all(transfer, tracker);
    }
    const ys::CoverageEngine engine(mgr, tree.network, tracker.trace(),
                                    ys::EngineOptions{nullptr, threads, "", 0.0});
    gaps = ys::build_gap_report(engine);
  }
  std::printf("# gap report: %zu uncovered rules, %zu packet witnesses, %zu "
              "state-only\n",
              gaps.uncovered_rules, gaps.packet_witnesses, gaps.state_only);

  // --- Gates -----------------------------------------------------------
  int exit_code = 0;
  if (!identical) {
    std::fprintf(stderr, "bench_suite_opt: FAIL — matrix differs at 1 vs %u threads\n",
                 threads);
    exit_code = 1;
  }
  if (!exact) {
    std::fprintf(stderr,
                 "bench_suite_opt: FAIL — minimized suite does not recompute to the "
                 "full suite's coverage (full %.17g, subset %.17g, matrix %.17g)\n",
                 min.recomputed_full, min.recomputed_subset, min.achieved_coverage);
    exit_code = 1;
  }
  const double min_speedup = env_f64("YS_SUITEOPT_MIN_SPEEDUP", 0.0);
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_suite_opt: FAIL — %.2fx parallel speedup below the %.2fx "
                 "gate (serial %.3fs, parallel %.3fs at %u threads)\n",
                 speedup, min_speedup, serial_s, parallel_s, threads);
    exit_code = 1;
  }

  // --- JSON ------------------------------------------------------------
  std::FILE* f = std::fopen("BENCH_suiteopt.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_suite_opt: cannot write BENCH_suiteopt.json\n");
    return exit_code == 0 ? 1 : exit_code;
  }
  std::fprintf(f, "{\n  \"bench\": \"suiteopt\",\n  \"k\": %d,\n", k);
  std::fprintf(f, "  \"routers\": %zu,\n  \"rules\": %zu,\n  \"suite_size\": %zu,\n",
               tree.network.device_count(), tree.network.rule_count(), suite.size());
  std::fprintf(f,
               "  \"matrix\": {\"serial_s\": %.6f, \"parallel_s\": %.6f, "
               "\"threads\": %u, \"speedup\": %.3f, \"identical\": %s},\n",
               serial_s, parallel_s, threads, speedup, identical ? "true" : "false");
  std::fprintf(f,
               "  \"minimize\": {\"kept\": %zu, \"suite_size\": %zu, "
               "\"full_coverage\": %.6f, \"achieved_coverage\": %.6f, "
               "\"recomputed_full\": %.6f, \"recomputed_subset\": %.6f, "
               "\"exact\": %s},\n",
               min.selected.size(), min.suite_size, min.full_coverage,
               min.achieved_coverage, min.recomputed_full, min.recomputed_subset,
               exact ? "true" : "false");
  std::fprintf(f, "  \"prioritize\": [\n");
  for (size_t i = 0; i < pri.order.size(); ++i) {
    const ys::PrioritizedTest& t = pri.order[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"marginal\": %.6f, \"seconds\": %.6f, "
                 "\"cumulative_coverage\": %.6f, \"cumulative_seconds\": %.6f}%s\n",
                 t.name.c_str(), t.marginal, t.seconds, t.cumulative_coverage,
                 t.cumulative_seconds, i + 1 < pri.order.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gap_report\": {\"uncovered_rules\": %zu, \"packet_witnesses\": "
               "%zu, \"state_only\": %zu}\n}\n",
               gaps.uncovered_rules, gaps.packet_witnesses, gaps.state_only);
  std::fclose(f);
  return exit_code;
}
