// JSON output must stay parseable no matter how degraded the metrics are:
// doubles can degrade to NaN/Infinity under a tripped resource budget, and
// JSON has no literals for either — a report containing them would break
// every dashboard consuming it. Non-finite values serialize as 0 and the
// truncated flag tells readers the row is partial.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "json_checker.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using testutil::JsonChecker;

bool contains_nonfinite_token(const std::string& json) {
  // "inf"/"nan" can only be value tokens right after ':' (keys like
  // "interface_fractional" legitimately contain "inf"'s letters).
  for (const char* token : {":nan", ":-nan", ":inf", ":-inf"}) {
    if (json.find(token) != std::string::npos) return true;
  }
  return false;
}

TEST(JsonFormatTest, WellFormedOnNormalReport) {
  CoverageReport report;
  report.overall = {0.5, 0.25, 0.125, 0.75, false};
  RoleBreakdown row;
  row.role = net::Role::ToR;
  row.device_count = 3;
  row.metrics = report.overall;
  report.by_role.push_back(row);
  report.gaps.push_back({net::RouteKind::Internal, 2, 10});
  const std::string json = report_to_json(report);
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
}

TEST(JsonFormatTest, NonFiniteMetricsSerializeAsZero) {
  // Degraded aggregations can hand the serializer NaN and ±infinity;
  // the document must stay parseable and free of nan/inf tokens.
  CoverageReport report;
  report.overall = {std::nan(""), std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(), 0.5, true};
  RoleBreakdown row;
  row.role = net::Role::Spine;
  row.metrics.rule_weighted = std::nan("");
  report.by_role.push_back(row);
  report.truncated = true;

  const std::string json = report_to_json(report);
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_FALSE(contains_nonfinite_token(json)) << json;
  EXPECT_NE(json.find("\"device_fractional\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos) << json;
}

TEST(JsonFormatTest, BudgetTruncatedReportStaysParseable) {
  // End to end: a node cap small enough to trip during match-set
  // construction must still yield a well-formed, truncated-flagged report.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ResourceBudget budget;
  budget.with_max_bdd_nodes(64);
  CoverageTracker tracker;
  const CoverageEngine engine(mgr, tree.network, tracker.trace(), &budget);
  ASSERT_TRUE(engine.truncated());

  const std::string json = report_to_json(engine.report());
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_FALSE(contains_nonfinite_token(json)) << json;
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos) << json;
}

}  // namespace
}  // namespace yardstick::ys
