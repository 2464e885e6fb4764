// Tests for suite analysis (redundancy, greedy ordering) and
// coverage-guided test suggestions.
#include <gtest/gtest.h>

#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "yardstick/analysis.hpp"

namespace yardstick::ys {
namespace {

using packet::PacketSet;

/// A trivial test that marks exactly one given rule.
class OneRuleTest final : public nettest::NetworkTest {
 public:
  OneRuleTest(std::string name, net::RuleId rule) : name_(std::move(name)), rule_(rule) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult execute(const dataplane::Transfer&,
                                            CoverageTracker& tracker) const override {
    tracker.mark_rule(rule_);
    nettest::TestResult r;
    r.name = name_;
    r.checks = 1;
    return r;
  }

 private:
  std::string name_;
  net::RuleId rule_;
};

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() : tiny_(testutil::make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  testutil::TinyNetwork tiny_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
};

TEST_F(AnalysisTest, DetectsRedundantDuplicate) {
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<OneRuleTest>("a", tiny_.l1_to_p1));
  suite.add(std::make_unique<OneRuleTest>("a-duplicate", tiny_.l1_to_p1));
  suite.add(std::make_unique<OneRuleTest>("b", tiny_.sp_to_p2));

  const SuiteAnalyzer analyzer(mgr_, tiny_.net);
  const SuiteAnalysis analysis = analyzer.analyze(transfer_, suite);

  ASSERT_EQ(analysis.tests.size(), 3u);
  // The duplicated pair: each is individually redundant (the other covers
  // the same rule); the distinct test is not.
  EXPECT_TRUE(analysis.tests[0].redundant);
  EXPECT_TRUE(analysis.tests[1].redundant);
  EXPECT_FALSE(analysis.tests[2].redundant);
  EXPECT_GT(analysis.tests[2].marginal, 0.0);
  // Solo coverages: one rule each out of 9.
  EXPECT_NEAR(analysis.tests[0].solo, 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(analysis.full, 2.0 / 9.0, 1e-12);
}

TEST_F(AnalysisTest, GreedyOrderFrontLoadsCoverage) {
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<OneRuleTest>("small", tiny_.l1_to_p1));
  // A "big" test marking three rules.
  class ThreeRuleTest final : public nettest::NetworkTest {
   public:
    explicit ThreeRuleTest(const testutil::TinyNetwork& t) : t_(t) {}
    [[nodiscard]] std::string name() const override { return "big"; }
    [[nodiscard]] nettest::TestCategory category() const override {
      return nettest::TestCategory::StateInspection;
    }
    [[nodiscard]] nettest::TestResult execute(const dataplane::Transfer&,
                                              CoverageTracker& tracker) const override {
      tracker.mark_rule(t_.sp_to_p1);
      tracker.mark_rule(t_.sp_to_p2);
      tracker.mark_rule(t_.sp_default_drop);
      return {};
    }
    const testutil::TinyNetwork& t_;
  };
  suite.add(std::make_unique<ThreeRuleTest>(tiny_));

  const SuiteAnalyzer analyzer(mgr_, tiny_.net);
  const SuiteAnalysis analysis = analyzer.analyze(transfer_, suite);
  ASSERT_EQ(analysis.greedy_order.size(), 2u);
  EXPECT_EQ(analysis.greedy_order[0], 1u);  // "big" first
  // Cumulative coverage is monotone and ends at the full value.
  EXPECT_LE(analysis.greedy_cumulative[0], analysis.greedy_cumulative[1] + 1e-12);
  EXPECT_NEAR(analysis.greedy_cumulative.back(), analysis.full, 1e-12);
}

TEST_F(AnalysisTest, RealSuiteContributions) {
  // On a fat-tree: DefaultRouteCheck and ToRContract cover disjoint rule
  // populations, so both have positive marginal value; a duplicated
  // DefaultRouteCheck is redundant.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  nettest::TestSuite suite("real");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());

  const SuiteAnalyzer analyzer(mgr, tree.network);
  const SuiteAnalysis analysis = analyzer.analyze(transfer, suite);
  EXPECT_TRUE(analysis.tests[0].redundant);   // duplicated with [2]
  EXPECT_FALSE(analysis.tests[1].redundant);  // unique contract coverage
  EXPECT_TRUE(analysis.tests[2].redundant);
  EXPECT_GT(analysis.full, analysis.tests[1].solo);
}

TEST_F(AnalysisTest, BudgetedAnalysisClampsMarginalsAndFlagsTruncation) {
  // Regression: under a tripping budget the leave-one-out run can cover
  // more than the (degraded) full-suite run, which used to produce
  // negative marginals. Marginals must clamp at 0 and the analysis must
  // carry the truncated flag instead of throwing.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  nettest::TestSuite suite("budgeted");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());

  ResourceBudget budget;
  // The unbudgeted index above already allocated well past this cap, so
  // every analyzer-internal covered-set computation degrades.
  budget.with_max_bdd_nodes(1000);
  const SuiteAnalyzer analyzer(mgr, tree.network, &budget);
  const SuiteAnalysis analysis = analyzer.analyze(transfer, suite);

  EXPECT_TRUE(analysis.truncated);
  ASSERT_EQ(analysis.tests.size(), 2u);
  for (const TestContribution& t : analysis.tests) {
    EXPECT_GE(t.marginal, 0.0) << t.name;
    EXPECT_GE(t.solo, 0.0) << t.name;
  }
}

TEST_F(AnalysisTest, SuggestionsExerciseUntestedRules) {
  CoverageTracker tracker;
  tracker.mark_rule(tiny_.l1_to_p1);
  const CoverageEngine engine(mgr_, tiny_.net, tracker.trace());

  const auto suggestions = suggest_tests(engine, 100);
  EXPECT_EQ(suggestions.size(), 8u);  // 9 rules - 1 tested
  for (const TestSuggestion& s : suggestions) {
    // The sampled packet really exercises the rule: it lies in the rule's
    // disjoint match set.
    EXPECT_TRUE(engine.match_sets().match_set(s.rule).contains(s.sample))
        << s.to_string(tiny_.net);
    EXPECT_EQ(tiny_.net.rule(s.rule).device, s.device);
  }
}

TEST_F(AnalysisTest, SuggestionsRespectBudgetAndFilter) {
  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  EXPECT_EQ(suggest_tests(engine, 3).size(), 3u);
  const auto spine_only = suggest_tests(engine, 100, role_filter(net::Role::Spine));
  EXPECT_EQ(spine_only.size(), 3u);
  for (const auto& s : spine_only) {
    EXPECT_EQ(tiny_.net.device(s.device).role, net::Role::Spine);
  }
}

TEST_F(AnalysisTest, SuggestionsSkipAclShadowedSpace) {
  // Block everything except TCP/80 at leaf1; suggestions for leaf1 FIB
  // rules must sample from the permitted space only.
  net::MatchSpec permit_web;
  permit_web.proto = 6;
  permit_web.dst_port = net::PortRange{80, 80};
  tiny_.net.add_rule(tiny_.leaf1, permit_web, net::Action::permit(),
                     net::RouteKind::Security, 0, net::TableKind::Acl);
  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  for (const auto& s : suggest_tests(engine, 100)) {
    if (s.device == tiny_.leaf1 &&
        tiny_.net.rule(s.rule).table == net::TableKind::Fib) {
      EXPECT_EQ(s.sample.proto, 6) << s.to_string(tiny_.net);
      EXPECT_EQ(s.sample.dst_port, 80);
    }
  }
}

}  // namespace
}  // namespace yardstick::ys
