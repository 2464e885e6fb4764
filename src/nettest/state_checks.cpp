#include "nettest/state_checks.hpp"

#include <algorithm>

#include "nettest/instrument.hpp"
#include "routing/config.hpp"

namespace yardstick::nettest {

std::optional<net::RuleId> find_rule_for_prefix(const net::Network& network,
                                                net::DeviceId device,
                                                const packet::Ipv4Prefix& prefix) {
  const std::span<const net::RuleId> rules = network.table(device);
  const std::span<const packet::Ipv4Range> ranges = network.table_dst_ranges(device);
  const packet::Ipv4Range wanted = prefix.range();
  for (size_t i = 0; i < rules.size(); ++i) {
    // A rule without a dst prefix spans every address too, yet it is no
    // route for 0.0.0.0/0: confirm the prefix itself.
    if (ranges[i] == wanted && network.rule(rules[i]).match.dst_prefix == prefix) {
      return rules[i];
    }
  }
  return std::nullopt;
}

TestResult DefaultRouteCheck::execute(const dataplane::Transfer& transfer,
                                      ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Device& dev : network.devices()) {
    if (dev.role == net::Role::Wan || excluded_.contains(dev.id)) continue;
    ++result.checks;

    const auto rid = find_rule_for_prefix(network, dev.id, packet::default_route_prefix());
    if (!rid) {
      result.fail(dev.name + ": no default route");
      continue;
    }
    // The inspection itself is the coverage event, whether or not the
    // assertion below holds.
    mark_inspected_rule(tracker, *rid);

    const net::Rule& rule = network.rule(*rid);
    if (rule.action.type != net::ActionType::Forward) {
      result.fail(dev.name + ": default route does not forward (null route?)");
      continue;
    }
    std::vector<net::InterfaceId> expected;
    for (const auto& [intf, peer] : network.neighbors(dev.id)) {
      if (routing::tier(network.device(peer).role) > routing::tier(dev.role)) {
        expected.push_back(intf);
      }
    }
    std::sort(expected.begin(), expected.end());
    std::vector<net::InterfaceId> actual = rule.action.out_interfaces;
    std::sort(actual.begin(), actual.end());
    if (actual != expected) {
      result.fail(dev.name + ": default route next hops are not the northern neighbors");
    }
  }
  return result;
}

TestResult ConnectedRouteCheck::execute(const dataplane::Transfer& transfer,
                                        ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Link& link : network.links()) {
    if (!link.subnet) continue;
    for (const net::InterfaceId side : {link.a, link.b}) {
      const net::Interface& intf = network.interface(side);
      ++result.checks;
      const auto rid = find_rule_for_prefix(network, intf.device, *link.subnet);
      if (!rid) {
        result.fail(network.device(intf.device).name + ": missing connected route for " +
                    link.subnet->to_string());
        continue;
      }
      mark_inspected_rule(tracker, *rid);

      const net::Rule& rule = network.rule(*rid);
      const bool forwards_on_link =
          rule.action.type == net::ActionType::Forward &&
          std::find(rule.action.out_interfaces.begin(), rule.action.out_interfaces.end(),
                    side) != rule.action.out_interfaces.end();
      if (rule.kind != net::RouteKind::Connected || !forwards_on_link) {
        result.fail(network.device(intf.device).name + ": connected route for " +
                    link.subnet->to_string() + " malformed");
      }
    }
  }
  return result;
}

}  // namespace yardstick::nettest
