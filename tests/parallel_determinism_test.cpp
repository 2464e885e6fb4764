// The parallel offline phase must be a pure performance feature: sharded
// builds (per-thread BDD managers merged by structural import) and the
// concurrent path sweep have to produce bit-identical match sets, covered
// sets, metric rows and path-universe results for every thread count —
// including 0 (hardware concurrency) — and degrade to the same truncated
// flags under a tripping resource budget.
#include <gtest/gtest.h>

#include <memory>

#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick {
namespace {

/// One engine run at a given thread count, self-contained: its own
/// manager, its own structural copy of the shared trace, its own engine.
struct EngineRun {
  std::unique_ptr<bdd::BddManager> mgr;
  coverage::CoverageTrace trace;
  std::unique_ptr<ys::CoverageEngine> engine;
};

EngineRun run_engine(const net::Network& network, const coverage::CoverageTrace& trace,
                     unsigned threads, const ys::ResourceBudget* budget = nullptr,
                     double gc_threshold = 0.0) {
  EngineRun run;
  run.mgr = std::make_unique<bdd::BddManager>(packet::kNumHeaderBits);
  run.trace = trace.imported_into(*run.mgr);
  run.engine = std::make_unique<ys::CoverageEngine>(
      *run.mgr, network, run.trace,
      ys::EngineOptions{budget, threads, /*cache_dir=*/"", gc_threshold});
  return run;
}

void expect_same_sets(const net::Network& network, const ys::CoverageEngine& serial,
                      const ys::CoverageEngine& parallel, unsigned threads) {
  for (const net::Rule& rule : network.rules()) {
    EXPECT_EQ(serial.match_sets().match_set_size(rule.id),
              parallel.match_sets().match_set_size(rule.id))
        << "match set of rule " << rule.id.value << " at " << threads << " threads";
    EXPECT_EQ(serial.covered_sets().covered_size(rule.id),
              parallel.covered_sets().covered_size(rule.id))
        << "covered set of rule " << rule.id.value << " at " << threads << " threads";
  }
}

void expect_same_metrics(const ys::MetricRow& serial, const ys::MetricRow& parallel,
                         unsigned threads) {
  EXPECT_EQ(serial.device_fractional, parallel.device_fractional) << threads << " threads";
  EXPECT_EQ(serial.interface_fractional, parallel.interface_fractional)
      << threads << " threads";
  EXPECT_EQ(serial.rule_fractional, parallel.rule_fractional) << threads << " threads";
  EXPECT_EQ(serial.rule_weighted, parallel.rule_weighted) << threads << " threads";
  EXPECT_EQ(serial.truncated, parallel.truncated) << threads << " threads";
}

/// report() folds every row from one per-rule measure table; each of its
/// numbers must equal, bit for bit, what the reference collection API
/// computes from freshly built component specs.
void expect_report_matches_reference(const net::Network& network,
                                     const ys::CoverageEngine& engine, unsigned threads) {
  const ys::CoverageReport report = engine.report();
  const coverage::Aggregator fractional = coverage::fractional_aggregator();
  const coverage::Aggregator weighted = coverage::weighted_average_aggregator();
  const auto expect_row = [&](const ys::MetricRow& row, const ys::DeviceFilter& filter,
                              const char* what) {
    SCOPED_TRACE(std::string(what) + " row at " + std::to_string(threads) + " threads");
    EXPECT_EQ(row.device_fractional, engine.devices_coverage(fractional, filter));
    EXPECT_EQ(row.interface_fractional, engine.interfaces_coverage(fractional, filter));
    EXPECT_EQ(row.rule_fractional, engine.rules_coverage(fractional, filter));
    EXPECT_EQ(row.rule_weighted, engine.rules_coverage(weighted, filter));
    expect_same_metrics(engine.metrics(filter), row, threads);
  };
  expect_row(report.overall, nullptr, "overall");
  size_t role_devices = 0;
  for (const ys::RoleBreakdown& row : report.by_role) {
    expect_row(row.metrics, ys::role_filter(row.role), net::to_string(row.role));
    role_devices += row.device_count;
  }
  EXPECT_EQ(role_devices, network.device_count());

  size_t untested_devices = 0;
  for (const net::Device& d : network.devices()) {
    if (engine.device_coverage(d.id) == 0.0) ++untested_devices;
  }
  EXPECT_EQ(report.untested_device_count, untested_devices) << threads << " threads";
  EXPECT_EQ(report.untested_interface_count, engine.untested_interfaces().size())
      << threads << " threads";

  // Partial coverage, so the folds above are not all trivially 0 or 1.
  EXPECT_GT(report.overall.rule_fractional, 0.0);
  EXPECT_LT(report.overall.rule_fractional, 1.0);
  EXPECT_FALSE(report.truncated);
}

constexpr unsigned kThreadCounts[] = {2, 4, 0};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  /// Runs the fat-tree paper suite once (in a scratch manager) and returns
  /// the resulting trace, with a couple of rules marked via state
  /// inspection so both Algorithm 1 branches are exercised.
  coverage::CoverageTrace fat_tree_trace(const topo::FatTree& tree) {
    const dataplane::MatchSetIndex index(scratch_, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::ToRContract().run(transfer, tracker);
    (void)nettest::ToRPingmesh().run(transfer, tracker);
    coverage::CoverageTrace trace = tracker.trace();
    const net::DeviceId tor = tree.tors.front();
    const auto& fib = tree.network.table(tor);
    if (!fib.empty()) trace.mark_rule(fib.front());
    return trace;
  }

  bdd::BddManager scratch_{packet::kNumHeaderBits};
};

TEST_F(ParallelDeterminismTest, FatTreeSetsAndMetricsBitIdentical) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  const EngineRun serial = run_engine(tree.network, trace, 1);
  ASSERT_FALSE(serial.engine->truncated());
  const ys::MetricRow serial_row = serial.engine->metrics();

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, threads);
    EXPECT_FALSE(parallel.engine->truncated());
    expect_same_sets(tree.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, FatTreePathSweepBitIdentical) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  const EngineRun serial = run_engine(tree.network, trace, 1);
  const ys::PathCoverageResult want = serial.engine->path_coverage();
  ASSERT_GT(want.total_paths, 0u);
  ASSERT_FALSE(want.truncated);

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, threads);
    const ys::PathCoverageResult got = parallel.engine->path_coverage();
    EXPECT_EQ(want.total_paths, got.total_paths) << threads << " threads";
    EXPECT_EQ(want.covered_paths, got.covered_paths) << threads << " threads";
    EXPECT_EQ(want.fractional, got.fractional) << threads << " threads";
    EXPECT_EQ(want.mean, got.mean) << threads << " threads";
    EXPECT_EQ(want.truncated, got.truncated) << threads << " threads";
  }
}

TEST_F(ParallelDeterminismTest, RegionalSetsAndMetricsBitIdentical) {
  topo::RegionalParams params;
  params.datacenters = 2;
  params.pods_per_dc = 1;
  params.tors_per_pod = 2;
  params.aggs_per_pod = 2;
  params.spines_per_dc = 2;
  params.hubs = 2;
  params.wans = 1;
  params.host_ports_per_tor = 2;
  params.wide_area_prefix_count = 4;
  params.hubs_without_default = 1;
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);

  coverage::CoverageTrace trace;
  {
    const dataplane::MatchSetIndex index(scratch_, region.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::InternalRouteCheck().run(transfer, tracker);
    (void)nettest::ConnectedRouteCheck().run(transfer, tracker);
    trace = tracker.trace();
  }

  const EngineRun serial = run_engine(region.network, trace, 1);
  const ys::MetricRow serial_row = serial.engine->metrics();
  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(region.network, trace, threads);
    expect_same_sets(region.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, GcOnOffBitIdenticalAcrossThreadCounts) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  // Ground truth: serial, GC off.
  const EngineRun serial = run_engine(tree.network, trace, 1);
  ASSERT_FALSE(serial.engine->truncated());
  const ys::MetricRow serial_row = serial.engine->metrics();

  // GC only renumbers shard-private nodes, so an aggressive threshold must
  // leave every set and metric bit-identical at any thread count —
  // including 1, where an armed GC forces the sharded path.
  for (const unsigned threads : {1u, 4u, 8u}) {
    const EngineRun gc_run =
        run_engine(tree.network, trace, threads, nullptr, /*gc_threshold=*/0.05);
    EXPECT_FALSE(gc_run.engine->truncated()) << threads << " threads";
    expect_same_sets(tree.network, *serial.engine, *gc_run.engine, threads);
    expect_same_metrics(serial_row, gc_run.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, GcUnderBudgetKeepsAccountingBalanced) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  // Roomy cap: the build completes; GC'd shards must return their charge so
  // the budget drains back to exactly the primary manager's arena.
  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(50'000'000);
  const EngineRun run =
      run_engine(tree.network, trace, 4, &budget, /*gc_threshold=*/0.05);
  EXPECT_FALSE(run.engine->truncated());
  EXPECT_EQ(budget.used_bdd_nodes(), run.mgr->arena_size());
  EXPECT_GE(budget.peak_bdd_nodes(), budget.used_bdd_nodes());
}

TEST_F(ParallelDeterminismTest, ReportMatchesReferenceOnTinyNet) {
  testutil::TinyNetwork tiny = testutil::make_tiny();
  // Behind leaf1's default route: an empty match set, measured vacuously.
  tiny.net.add_rule(tiny.leaf1,
                    net::MatchSpec::for_dst(packet::Ipv4Prefix::parse("10.0.0.0/8")),
                    net::Action::forward({tiny.l1_up}), net::RouteKind::Other, 40);
  coverage::CoverageTrace trace;
  {
    const dataplane::MatchSetIndex index(scratch_, tiny.net);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    tracker.mark_packet(net::to_location(tiny.l1_host),
                        packet::PacketSet::dst_prefix(scratch_, tiny.p2));
    trace = tracker.trace();
  }
  for (const unsigned threads : {1u, 4u}) {
    const EngineRun run = run_engine(tiny.net, trace, threads);
    expect_report_matches_reference(tiny.net, *run.engine, threads);
  }
}

TEST_F(ParallelDeterminismTest, ReportMatchesReferenceOnFatTree) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  coverage::CoverageTrace trace;
  {
    // The CLI's `fattree` suite.
    const dataplane::MatchSetIndex index(scratch_, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::ToRContract().run(transfer, tracker);
    (void)nettest::ToRReachability().run(transfer, tracker);
    (void)nettest::ToRPingmesh().run(transfer, tracker);
    trace = tracker.trace();
  }
  for (const unsigned threads : {1u, 4u}) {
    const EngineRun run = run_engine(tree.network, trace, threads);
    expect_report_matches_reference(tree.network, *run.engine, threads);
  }
}

TEST_F(ParallelDeterminismTest, ReportMatchesReferenceOnRegionalWithAclsAndTransforms) {
  topo::RegionalParams params;
  params.datacenters = 2;
  params.pods_per_dc = 1;
  params.tors_per_pod = 2;
  params.aggs_per_pod = 2;
  params.spines_per_dc = 2;
  params.hubs = 2;
  params.wans = 1;
  params.host_ports_per_tor = 2;
  params.wide_area_prefix_count = 4;
  params.hubs_without_default = 1;
  topo::RegionalNetwork region = topo::make_regional(params);
  const topo::TransformState transforms =
      topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 1});
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  topo::install_ingress_acls(region.network, region.tors);
  topo::install_transform_rules(region.network, transforms, region.routing);

  coverage::CoverageTrace trace;
  {
    // The CLI's `final` suite with --acl and --transforms.
    const dataplane::MatchSetIndex index(scratch_, region.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::AggCanReachTorLoopback().run(transfer, tracker);
    (void)nettest::InternalRouteCheck().run(transfer, tracker);
    (void)nettest::ConnectedRouteCheck().run(transfer, tracker);
    (void)nettest::AclBlockCheck().run(transfer, tracker);
    (void)nettest::BlockedPortCheck().run(transfer, tracker);
    (void)nettest::TunnelRoundTripCheck().run(transfer, tracker);
    (void)nettest::NatTranslationCheck().run(transfer, tracker);
    trace = tracker.trace();
  }
  for (const unsigned threads : {1u, 4u}) {
    const EngineRun run = run_engine(region.network, trace, threads);
    expect_report_matches_reference(region.network, *run.engine, threads);
  }
}

TEST_F(ParallelDeterminismTest, TrippingBudgetTruncatesInEveryMode) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  for (const unsigned threads : {1u, 2u, 4u}) {
    // A node cap far below what the fat tree needs: the build must complete
    // degraded (no exception), flag itself truncated, and still answer
    // metric queries with well-formed partial results.
    ys::ResourceBudget budget;
    budget.with_max_bdd_nodes(2000);
    const EngineRun run = run_engine(tree.network, trace, threads, &budget);
    EXPECT_TRUE(run.engine->truncated()) << threads << " threads";
    const ys::MetricRow row = run.engine->metrics();
    EXPECT_TRUE(row.truncated) << threads << " threads";
    EXPECT_GE(row.rule_fractional, 0.0);
    EXPECT_LE(row.rule_fractional, 1.0);
  }
}

}  // namespace
}  // namespace yardstick
