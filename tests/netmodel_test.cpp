// Tests for the network model container and id/location helpers.
#include <gtest/gtest.h>

#include "netmodel/network.hpp"

namespace yardstick::net {
namespace {

TEST(StrongIdTest, DistinctTypesAndValidity) {
  const DeviceId d{3};
  EXPECT_TRUE(d.valid());
  EXPECT_FALSE(DeviceId{}.valid());
  EXPECT_EQ(d, DeviceId{3});
  EXPECT_NE(d, DeviceId{4});
  EXPECT_LT(DeviceId{1}, DeviceId{2});
  // Distinct tag types do not compare (compile-time property; hash works).
  EXPECT_EQ(std::hash<DeviceId>{}(d), std::hash<DeviceId>{}(DeviceId{3}));
}

TEST(LocationTest, InterfaceAndDeviceLocationsDisjoint) {
  const InterfaceId intf{12};
  const DeviceId dev{5};
  EXPECT_FALSE(is_device_location(to_location(intf)));
  EXPECT_TRUE(is_device_location(device_location(dev)));
  EXPECT_EQ(device_of_location(device_location(dev)), dev);
  EXPECT_EQ(from_location(to_location(intf)), intf);
  EXPECT_FALSE(is_device_location(packet::kNoLocation));
}

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = net_.add_device("a", Role::ToR, 65001);
    b_ = net_.add_device("b", Role::Aggregation, 65002);
    a0_ = net_.add_interface(a_, "eth0");
    b0_ = net_.add_interface(b_, "eth0");
    host_ = net_.add_interface(a_, "host0", PortKind::HostPort);
  }

  Network net_;
  DeviceId a_, b_;
  InterfaceId a0_, b0_, host_;
};

TEST_F(NetworkTest, BasicTopology) {
  EXPECT_EQ(net_.device_count(), 2u);
  EXPECT_EQ(net_.interface_count(), 3u);
  EXPECT_EQ(net_.device(a_).name, "a");
  EXPECT_EQ(net_.interface(host_).kind, PortKind::HostPort);
  EXPECT_TRUE(net_.interface(host_).host_facing());
  EXPECT_FALSE(net_.interface(a0_).host_facing());
}

TEST_F(NetworkTest, DuplicateDeviceNameRejected) {
  EXPECT_THROW(net_.add_device("a", Role::ToR), std::invalid_argument);
}

TEST_F(NetworkTest, LinkAssignsSlash31Addresses) {
  const auto subnet = packet::Ipv4Prefix::parse("172.16.0.0/31");
  net_.add_link(a0_, b0_, subnet);
  EXPECT_EQ(net_.interface(a0_).peer, b0_);
  EXPECT_EQ(net_.interface(b0_).peer, a0_);
  EXPECT_EQ(net_.interface(a0_).address->address(), subnet.first() & ~1u);
  ASSERT_TRUE(net_.interface(b0_).address.has_value());
  EXPECT_EQ(net_.neighbor(a0_), b_);
  EXPECT_EQ(net_.neighbor(host_), DeviceId{});
}

TEST_F(NetworkTest, LinkRejectsNonSlash31AndDoubleLink) {
  EXPECT_THROW(net_.add_link(a0_, b0_, packet::Ipv4Prefix::parse("172.16.0.0/30")),
               std::invalid_argument);
  net_.add_link(a0_, b0_);
  EXPECT_THROW(net_.add_link(a0_, b0_), std::invalid_argument);
}

TEST_F(NetworkTest, NeighborsAndLookup) {
  net_.add_link(a0_, b0_);
  const auto nbrs = net_.neighbors(a_);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].second, b_);
  EXPECT_EQ(net_.find_device("b"), b_);
  EXPECT_FALSE(net_.find_device("zzz").has_value());
  EXPECT_EQ(net_.interface_towards(a_, b_), a0_);
  EXPECT_FALSE(net_.interface_towards(b_, DeviceId{99}).has_value());
}

TEST_F(NetworkTest, RulesSortedByPriority) {
  const auto p8 = packet::Ipv4Prefix::parse("10.0.0.0/8");
  const auto p24 = packet::Ipv4Prefix::parse("10.1.2.0/24");
  const RuleId low = net_.add_rule(a_, MatchSpec::for_dst(p8), Action::drop(),
                                   RouteKind::Other, 10);
  const RuleId high = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 1);
  const RuleId mid = net_.add_rule(a_, MatchSpec::for_dst(p24), Action::drop(),
                                   RouteKind::Other, 5);
  const auto table = net_.table(a_);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], high);
  EXPECT_EQ(table[1], mid);
  EXPECT_EQ(table[2], low);
  // Destination ranges sit beside their rules; no dst prefix spans all.
  const auto ranges = net_.table_dst_ranges(a_);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], packet::Ipv4Range{});
  EXPECT_EQ(ranges[1], p24.range());
  EXPECT_EQ(ranges[2], p8.range());
  EXPECT_TRUE(net_.table_dst_ranges(a_, TableKind::Acl).empty());
}

TEST_F(NetworkTest, EqualPrioritiesKeepInsertionOrder) {
  const RuleId first = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 5);
  const RuleId second = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 5);
  const auto table = net_.table(a_);
  EXPECT_EQ(table[0], first);
  EXPECT_EQ(table[1], second);
}

TEST_F(NetworkTest, ClearRules) {
  net_.add_rule(a_, MatchSpec{}, Action::drop());
  net_.clear_rules();
  EXPECT_EQ(net_.rule_count(), 0u);
  EXPECT_TRUE(net_.table(a_).empty());
  EXPECT_TRUE(net_.table_dst_ranges(a_).empty());
}

TEST_F(NetworkTest, PortsOfKind) {
  EXPECT_EQ(net_.ports_of_kind(a_, PortKind::HostPort),
            (std::vector<InterfaceId>{host_}));
  EXPECT_TRUE(net_.ports_of_kind(b_, PortKind::HostPort).empty());
}

TEST_F(NetworkTest, RolesAndSummary) {
  EXPECT_EQ(net_.devices_with_role(Role::ToR), (std::vector<DeviceId>{a_}));
  EXPECT_NE(net_.summary().find("devices=2"), std::string::npos);
}

TEST(RuleTest, ToStringMentionsMatchAndAction) {
  Rule r;
  r.id = RuleId{7};
  r.match = MatchSpec::for_dst(packet::Ipv4Prefix::parse("10.0.0.0/8"));
  r.action = Action::forward({InterfaceId{3}});
  EXPECT_NE(r.to_string().find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(r.to_string().find("fwd"), std::string::npos);
  r.action = Action::drop();
  EXPECT_NE(r.to_string().find("drop"), std::string::npos);
}

}  // namespace
}  // namespace yardstick::net
