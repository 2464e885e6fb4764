// Figure 8 reproduction: the overhead of coverage tracking.
//
// For each fat-tree size and each of the four §8.1 tests
// (DefaultRouteCheck, ToRContract, ToRReachability, ToRPingmesh), run the
// test with the tracker disabled (baseline) and enabled, and report both
// times and the relative overhead. Also reports the dedup-vs-log tracker
// ablation (trace memory stays flat vs. grows with API calls).
//
// Expected shape (paper §8.1): absolute overhead small; relative overhead
// largest on the cheap state-inspection test and under ~10% whenever the
// baseline test is substantial; ToRReachability is by far the slowest
// test. Sweep sizes via YS_FATTREE_KS="4 8 12 16 24 ...".
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"

using namespace yardstick;

int main() {
  std::printf("# bench_tracking_overhead (Figure 8)\n");
  std::printf("%6s %8s  %-18s %12s %12s %10s\n", "k", "routers", "test", "off(s)",
              "on(s)", "overhead");

  for (const int k : benchutil::fat_tree_sweep()) {
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex match_sets(mgr, tree.network);
    const dataplane::Transfer transfer(match_sets);

    std::vector<std::unique_ptr<nettest::NetworkTest>> tests;
    tests.push_back(std::make_unique<nettest::DefaultRouteCheck>());
    tests.push_back(std::make_unique<nettest::ToRContract>());
    tests.push_back(std::make_unique<nettest::ToRReachability>());
    tests.push_back(std::make_unique<nettest::ToRPingmesh>());

    for (const auto& test : tests) {
      ys::CoverageTracker tracker;

      // Warm-up: populate the BDD manager's node arena and operation
      // caches so the off/on comparison is not skewed by first-run costs.
      tracker.set_enabled(false);
      (void)test->run(transfer, tracker);

      // Alternate off/on twice and keep the min of each: one-time effects
      // (unique-table rehashes, allocator growth) land on a single run and
      // must not be attributed to either mode.
      double off = 1e300, on = 1e300;
      bool ok = true;
      for (int rep = 0; rep < 2; ++rep) {
        tracker.set_enabled(false);
        benchutil::Stopwatch off_watch;
        ok = ok && test->run(transfer, tracker).passed();
        off = std::min(off, off_watch.seconds());

        tracker.set_enabled(true);
        benchutil::Stopwatch on_watch;
        ok = ok && test->run(transfer, tracker).passed();
        on = std::min(on, on_watch.seconds());
      }
      if (!ok) {
        std::printf("!! %s failed on k=%d\n", test->name().c_str(), k);
        continue;
      }
      std::printf("%6d %8zu  %-18s %12.3f %12.3f %9.1f%%\n", k,
                  tree.network.device_count(), test->name().c_str(), off, on,
                  off > 0.0 ? (on - off) / off * 100.0 : 0.0);
    }
  }

  // Dedup-vs-log ablation (DESIGN.md): the on-the-fly union keeps the
  // trace bounded by distinct state touched; the append log grows with
  // every markPacket call.
  std::printf("\n# tracker ablation: on-the-fly dedup vs append-only log (k=%d)\n",
              benchutil::fat_tree_sweep().front());
  topo::FatTree tree = topo::make_fat_tree({.k = benchutil::fat_tree_sweep().front()});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex match_sets(mgr, tree.network);
  const dataplane::Transfer transfer(match_sets);

  for (const auto mode :
       {ys::CoverageTracker::Mode::Dedup, ys::CoverageTracker::Mode::Log}) {
    ys::CoverageTracker tracker(mode);
    benchutil::Stopwatch watch;
    (void)nettest::ToRPingmesh().run(transfer, tracker);
    const double track_time = watch.seconds();
    const size_t pending = tracker.log().size();
    watch.reset();
    const auto& trace = tracker.trace();  // folds the log if any
    const double fold_time = watch.seconds();
    std::printf("  mode=%-6s track=%.3fs pending_log_entries=%zu fold=%.3fs "
                "trace_locations=%zu\n",
                mode == ys::CoverageTracker::Mode::Dedup ? "dedup" : "log", track_time,
                pending, fold_time, trace.marked_packets().location_count());
  }
  return 0;
}
