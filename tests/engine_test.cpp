// Tests for the Yardstick engine (phase 2) and tracker (phase 1).
#include <gtest/gtest.h>

#include "netio/network_format.hpp"
#include "nettest/state_checks.hpp"
#include "test_util.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : tiny_(make_tiny()) {}

  [[nodiscard]] PacketSet dst(const Ipv4Prefix& p) {
    return PacketSet::dst_prefix(mgr_, p);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  CoverageTracker tracker_;
};

TEST_F(EngineTest, TrackerDisabledIsNoOp) {
  tracker_.set_enabled(false);
  tracker_.mark_packet(net::device_location(tiny_.leaf1), dst(tiny_.p1));
  tracker_.mark_rule(tiny_.l1_to_p1);
  EXPECT_EQ(tracker_.packet_calls(), 0u);
  EXPECT_EQ(tracker_.rule_calls(), 0u);
  EXPECT_TRUE(tracker_.trace().marked_packets().empty());
}

TEST_F(EngineTest, LogModeFoldsToSameTrace) {
  CoverageTracker dedup(CoverageTracker::Mode::Dedup);
  CoverageTracker log(CoverageTracker::Mode::Log);
  for (auto* t : {&dedup, &log}) {
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
    t->mark_rule(tiny_.sp_to_p1);
  }
  EXPECT_GT(log.log().size(), 0u);
  EXPECT_EQ(log.trace().marked_packets(), dedup.trace().marked_packets());
  EXPECT_EQ(log.trace().marked_rules(), dedup.trace().marked_rules());
  EXPECT_EQ(log.log().size(), 0u);  // folded on read
}

TEST_F(EngineTest, TrackerReset) {
  tracker_.mark_rule(tiny_.l1_to_p1);
  tracker_.reset();
  EXPECT_TRUE(tracker_.trace().marked_rules().empty());
  EXPECT_EQ(tracker_.rule_calls(), 0u);
}

TEST_F(EngineTest, SingleComponentQueries) {
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  EXPECT_DOUBLE_EQ(engine.rule_coverage(tiny_.l1_to_p2), 1.0);
  EXPECT_DOUBLE_EQ(engine.rule_coverage(tiny_.l1_to_p1), 0.0);
  EXPECT_GT(engine.device_coverage(tiny_.leaf1), 0.0);
  EXPECT_DOUBLE_EQ(engine.device_coverage(tiny_.spine), 0.0);
  EXPECT_GT(engine.interface_coverage(tiny_.l1_up), 0.0);
  EXPECT_DOUBLE_EQ(engine.interface_coverage(tiny_.l1_host), 0.0);
}

TEST_F(EngineTest, CollectionQueriesWithFilters) {
  tracker_.mark_rule(tiny_.l1_default);
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const double all_frac =
      engine.rules_coverage(coverage::fractional_aggregator());
  EXPECT_NEAR(all_frac, 1.0 / 9.0, 1e-12);
  const double tor_frac = engine.rules_coverage(coverage::fractional_aggregator(),
                                                role_filter(net::Role::ToR));
  EXPECT_NEAR(tor_frac, 1.0 / 6.0, 1e-12);
  const double spine_frac = engine.rules_coverage(coverage::fractional_aggregator(),
                                                  role_filter(net::Role::Spine));
  EXPECT_DOUBLE_EQ(spine_frac, 0.0);
}

TEST_F(EngineTest, FlowCoverageQuery) {
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    tracker_.mark_rule(rid);
  }
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p2)), 1.0);
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p1)), 0.0);
}

TEST_F(EngineTest, PathCoverageSweep) {
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    tracker_.mark_rule(rid);
  }
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const PathCoverageResult result = engine.path_coverage();
  EXPECT_EQ(result.total_paths, 6u);
  // Covered: the leaf1 -> leaf2 p2 path (all three rules inspected) and
  // leaf2's one-rule p2 hairpin path (l2_to_p2 inspected). Everything
  // else involves uninspected rules.
  EXPECT_EQ(result.covered_paths, 2u);
  EXPECT_NEAR(result.fractional, 2.0 / 6.0, 1e-12);
  EXPECT_FALSE(result.truncated);
}

TEST_F(EngineTest, PathCoverageBudgetTruncates) {
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  coverage::PathExplorerOptions options;
  options.max_paths = 3;
  const PathCoverageResult result = engine.path_coverage(options);
  EXPECT_EQ(result.total_paths, 3u);
  EXPECT_TRUE(result.truncated);
}

TEST_F(EngineTest, UntestedRulesAndInterfaces) {
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const auto untested = engine.untested_rules();
  // 9 rules total; l1_to_p2 / sp_to_p2 / l2_to_p2 covered? No: the marks
  // were only reported at leaf1, so only l1_to_p2 is covered.
  EXPECT_EQ(untested.size(), 8u);
  const auto tor_untested = engine.untested_rules(role_filter(net::Role::ToR));
  EXPECT_EQ(tor_untested.size(), 5u);
  const auto ifaces = engine.untested_interfaces();
  EXPECT_FALSE(ifaces.empty());
}

TEST_F(EngineTest, ReportShapesAndText) {
  nettest::DefaultRouteCheck check;
  const dataplane::MatchSetIndex index(mgr_, tiny_.net);
  const dataplane::Transfer transfer(index);
  (void)check.run(transfer, tracker_);
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const CoverageReport report = engine.report();

  ASSERT_EQ(report.by_role.size(), 2u);  // ToR + Spine
  EXPECT_EQ(report.by_role[0].role, net::Role::ToR);
  EXPECT_EQ(report.by_role[0].device_count, 2u);
  // DefaultRouteCheck fails on the spine's null default (not forwarding) —
  // but it still marked the rule, so spine rule coverage is non-zero.
  EXPECT_GT(report.by_role[1].metrics.rule_fractional, 0.0);
  // Weighted rule coverage is high everywhere (default routes dominate).
  EXPECT_GT(report.overall.rule_weighted, 0.9);
  // Fractional rule coverage is low (only defaults covered).
  EXPECT_NEAR(report.overall.rule_fractional, 3.0 / 9.0, 1e-12);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("ToR"), std::string::npos);
  EXPECT_NE(text.find("default"), std::string::npos);
  EXPECT_NE(text.find("ALL"), std::string::npos);

  bool has_default_gap = false;
  for (const auto& gap : report.gaps) {
    if (gap.kind == net::RouteKind::Default) {
      has_default_gap = true;
      EXPECT_EQ(gap.untested, 0u);
      EXPECT_EQ(gap.total, 3u);
    }
  }
  EXPECT_TRUE(has_default_gap);
}

TEST_F(EngineTest, ReportKeepsHostDevices) {
  // Every role gets a row, Host included: a parsed network with one host
  // device must show it, and the ALL row (which sums the role rows) must
  // count every device the overall metrics fold over.
  const netio::LoadedNetwork loaded = netio::parse_network(R"(network v1
device tor0 role tor
device h0 role host
interface tor0 host0 kind host
interface tor0 eth0
interface h0 eth0
link tor0:eth0 h0:eth0 subnet 172.16.0.0/31
fib tor0 dst 10.0.1.0/24 fwd host0 kind internal
fib tor0 dst 0.0.0.0/0 fwd eth0 kind default
fib h0 dst 0.0.0.0/0 fwd eth0 kind default
)");
  const net::Network& network = loaded.network;
  tracker_.mark_packet(net::device_location(network.devices()[1].id),
                       dst(Ipv4Prefix::parse("10.0.1.0/24")));
  const CoverageEngine engine(mgr_, network, tracker_.trace());
  const CoverageReport report = engine.report();

  ASSERT_EQ(report.by_role.size(), 2u);
  EXPECT_EQ(report.by_role[0].role, net::Role::ToR);
  EXPECT_EQ(report.by_role[1].role, net::Role::Host);
  EXPECT_EQ(report.by_role[1].device_count, 1u);
  EXPECT_EQ(report.by_role[1].rule_count, 1u);
  EXPECT_EQ(report.by_role[1].metrics.device_fractional, 1.0);
  EXPECT_EQ(report.by_role[0].metrics.device_fractional, 0.0);
  size_t all_devices = 0;
  for (const RoleBreakdown& row : report.by_role) all_devices += row.device_count;
  EXPECT_EQ(all_devices, network.device_count());
  EXPECT_EQ(report.overall.device_fractional, 0.5);
  const std::string text = report.to_text();
  const size_t all_row = text.find("  ALL ");
  ASSERT_NE(all_row, std::string::npos);
  EXPECT_EQ(std::stoul(text.substr(all_row + 6)), network.device_count());
}

TEST_F(EngineTest, MonotonicityAcrossEngineRuns) {
  // Engine-level monotonicity: adding marks never lowers any headline.
  std::vector<MetricRow> rows;
  const auto snapshot = [&] {
    const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
    rows.push_back(engine.report().overall);
  };
  snapshot();
  tracker_.mark_rule(tiny_.l1_default);
  snapshot();
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  snapshot();
  tracker_.mark_packet(net::device_location(tiny_.spine), PacketSet::all(mgr_));
  snapshot();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].device_fractional, rows[i - 1].device_fractional);
    EXPECT_GE(rows[i].interface_fractional, rows[i - 1].interface_fractional);
    EXPECT_GE(rows[i].rule_fractional, rows[i - 1].rule_fractional);
    EXPECT_GE(rows[i].rule_weighted, rows[i - 1].rule_weighted - 1e-12);
  }
}

}  // namespace
}  // namespace yardstick::ys
