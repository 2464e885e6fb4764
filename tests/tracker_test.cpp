// Batched markPacket tracking. A tracker queues each markPacket report and
// folds every location's queue with one n-ary union when a test ends; the
// trace must equal the union of the reports taken one call at a time,
// handle for handle, on real topologies and test types. A budget tripping
// inside a fold must lose no report and crash nothing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/analysis.hpp"

namespace yardstick {
namespace {

enum class Topology { FatTreeK4, RegionalAclTransforms };

/// One of the two networks with its forwarding state: a fat tree (k=4), or
/// the default regional network with ingress ACLs and two tunnels and NAT
/// rules per WAN (the CLI's `regional --acl --transforms 2`).
struct Built {
  topo::FatTree tree;
  topo::RegionalNetwork region;
  net::Network* network = nullptr;
};

std::unique_ptr<Built> build(Topology which) {
  auto b = std::make_unique<Built>();
  if (which == Topology::FatTreeK4) {
    b->tree = topo::make_fat_tree({.k = 4});
    routing::FibBuilder::compute_and_build(b->tree.network, b->tree.routing);
    b->network = &b->tree.network;
    return b;
  }
  b->region = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(b->region, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(b->region.network, b->region.routing);
  topo::install_ingress_acls(b->region.network, b->region.tors);
  topo::install_transform_rules(b->region.network, transforms, b->region.routing);
  b->network = &b->region.network;
  return b;
}

std::unique_ptr<nettest::NetworkTest> make_test(int which) {
  switch (which) {
    case 0: return std::make_unique<nettest::ToRPingmesh>();
    case 1: return std::make_unique<nettest::ToRContract>();
    case 2: return std::make_unique<nettest::InternalRouteCheck>();
    default: return std::make_unique<nettest::ToRReachability>();
  }
}

/// The reference trace: `test`'s raw reports (a Log-mode run) unioned one
/// call at a time, the way an unbatched tracker maintains its trace.
struct Reference {
  coverage::CoverageTrace trace;
  uint64_t packet_calls = 0;
  uint64_t rule_calls = 0;
  size_t reports = 0;
};

Reference sequential_reference(const nettest::NetworkTest& test,
                               const dataplane::Transfer& transfer) {
  ys::CoverageTracker log(ys::CoverageTracker::Mode::Log);
  (void)test.run(transfer, log);
  Reference ref;
  ref.packet_calls = log.packet_calls();
  ref.rule_calls = log.rule_calls();
  ref.reports = log.log().size();
  for (const auto& [loc, ps] : log.log()) ref.trace.mark_packet(loc, ps);
  for (const net::RuleId rule : log.trace().marked_rules()) ref.trace.mark_rule(rule);
  return ref;
}

std::string param_name(const ::testing::TestParamInfo<std::tuple<Topology, int>>& info) {
  const Topology which = std::get<0>(info.param);
  return std::string(which == Topology::FatTreeK4 ? "FatTreeK4_" : "RegionalAcl_") +
         make_test(std::get<1>(info.param))->name();
}

class TrackerBatchTest : public ::testing::TestWithParam<std::tuple<Topology, int>> {};

TEST_P(TrackerBatchTest, BatchedTraceEqualsSequentialUnion) {
  const auto [which, test_index] = GetParam();
  const std::unique_ptr<Built> built = build(which);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, *built->network);
  const dataplane::Transfer transfer(index);
  const std::unique_ptr<nettest::NetworkTest> test = make_test(test_index);

  const Reference ref = sequential_reference(*test, transfer);
  ys::CoverageTracker batched;
  (void)test->run(transfer, batched);

  // markPacket calls per test as the unbatched tracker counted them.
  constexpr uint64_t kPacketCalls[2][4] = {{264, 160, 160, 464}, {1360, 2960, 4366, 14496}};
  EXPECT_EQ(batched.packet_calls(), kPacketCalls[static_cast<int>(which)][test_index]);
  EXPECT_EQ(batched.packet_calls(), ref.packet_calls);
  EXPECT_EQ(batched.packet_calls(), ref.reports);  // one location per call
  EXPECT_EQ(batched.rule_calls(), 0u);  // behavioral tests mark no rules
  EXPECT_EQ(batched.rule_calls(), ref.rule_calls);
  const coverage::CoverageTrace& trace = batched.trace();
  EXPECT_FALSE(trace.marked_packets().empty());
  EXPECT_EQ(trace.marked_packets(), ref.trace.marked_packets()) << test->name();
  EXPECT_EQ(trace.marked_rules(), ref.trace.marked_rules());
}

INSTANTIATE_TEST_SUITE_P(
    Networks, TrackerBatchTest,
    ::testing::Combine(::testing::Values(Topology::FatTreeK4,
                                         Topology::RegionalAclTransforms),
                       ::testing::Range(0, 4)),
    param_name);

TEST(TrackerFoldTest, FullLocationFoldsBeforeTheTestEnds) {
  // More reports at one location than a pending list holds: the list folds
  // on its own, and the trace still equals the per-call union.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker batched;
  coverage::CoverageTrace sequential;
  const size_t reports = 2 * ys::CoverageTracker::kFoldBatch + 7;
  for (size_t i = 0; i < reports; ++i) {
    const packet::PacketSet ps = packet::PacketSet::field_equals(
        mgr, packet::Field::DstIp, 0x0a000000u + static_cast<uint32_t>(i) * 3);
    const packet::LocationId loc = i % 5 == 0 ? 2 : 1;
    batched.mark_packet(loc, ps);
    sequential.mark_packet(loc, ps);
  }
  batched.mark_packet(3, packet::PacketSet::none(mgr));  // empty sets add no location
  EXPECT_EQ(batched.packet_calls(), reports + 1);
  EXPECT_EQ(batched.trace().marked_packets(), sequential.marked_packets());
  EXPECT_FALSE(batched.trace().marked_packets().has(3));
}

TEST(TrackerFoldTest, BudgetTripInsideFoldLosesNoReport) {
  const std::unique_ptr<Built> built = build(Topology::FatTreeK4);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, *built->network);
  const dataplane::Transfer transfer(index);
  const nettest::ToRPingmesh test;

  // An untracked run first: every set the test body builds now exists, so
  // a node cap at the current arena lets the body run and trips only when
  // the fold allocates union nodes.
  ys::CoverageTracker tracker;
  tracker.set_enabled(false);
  (void)test.run(transfer, tracker);
  tracker.set_enabled(true);
  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(mgr.arena_size());
  mgr.set_budget(&budget);
  EXPECT_THROW((void)test.run(transfer, tracker), ys::BudgetExceededError);
  mgr.set_budget(nullptr);

  // Nothing was lost: the reports still pending fold on the next read.
  const Reference ref = sequential_reference(test, transfer);
  EXPECT_EQ(tracker.packet_calls(), ref.packet_calls);
  EXPECT_EQ(tracker.trace().marked_packets(), ref.trace.marked_packets());
}

TEST(TrackerFoldTest, MatrixDegradesWhenTheBudgetTripsInsideAFold) {
  // The serial matrix runs each test in the caller's manager; with the cap
  // at the warm arena, the first fold that allocates trips the budget and
  // the matrix comes back truncated instead of throwing.
  const std::unique_ptr<Built> built = build(Topology::FatTreeK4);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, *built->network);
  const dataplane::Transfer transfer(index);
  nettest::TestSuite suite("pingmesh");
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  ys::CoverageTracker untracked;
  untracked.set_enabled(false);
  (void)suite.run_all(transfer, untracked);

  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(mgr.arena_size());
  mgr.set_budget(&budget);
  ys::SuiteCoverageMatrix m;
  EXPECT_NO_THROW(m = ys::build_suite_matrix(transfer, suite, &budget, 1));
  mgr.set_budget(nullptr);
  EXPECT_TRUE(m.truncated);
  ASSERT_EQ(m.covers.size(), suite.size());
  for (const std::vector<char>& row : m.covers) EXPECT_EQ(row.size(), m.rule_count);
}

}  // namespace
}  // namespace yardstick
