#include "nettest/contract_checks.hpp"

#include <algorithm>
#include <functional>

#include "nettest/instrument.hpp"
#include "nettest/shortest_paths.hpp"
#include "nettest/state_checks.hpp"

namespace yardstick::nettest {

namespace {

using DeviceScope = std::function<bool(const net::Device&)>;
using PrefixesOf = std::function<std::vector<packet::Ipv4Prefix>(const net::Device&)>;

/// Shared contract engine: for every (origin, prefix) pair, verify each
/// in-scope device's FIB entry against the BFS shortest-path contract and
/// report the injected packet set.
void run_contracts(const dataplane::Transfer& transfer, ys::CoverageTracker& tracker,
                   TestResult& result, const PrefixesOf& prefixes_of,
                   const DeviceScope& in_scope) {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();

  for (const net::Device& origin : network.devices()) {
    const std::vector<packet::Ipv4Prefix> prefixes = prefixes_of(origin);
    if (prefixes.empty()) continue;
    const std::vector<int> dist = fabric_distances(network, origin.id);

    for (const packet::Ipv4Prefix& prefix : prefixes) {
      const packet::PacketSet injected = packet::PacketSet::dst_prefix(mgr, prefix);

      for (const net::Device& dev : network.devices()) {
        if (!in_scope(dev)) continue;
        // Contracts exist only for devices d >= 1 hops from the origin
        // (§7.3: "if the device v' is d hops away from v, it should
        // forward {pv} to all its neighbors with distance d-1"). The
        // originator's own delivery rule is out of scope — which is why
        // host-facing interfaces stay untested until a dedicated test
        // exists (Fig. 6d).
        if (dist[dev.id.value] <= 0) continue;
        ++result.checks;

        const auto rid = find_rule_for_prefix(network, dev.id, prefix);
        if (!rid) {
          result.fail(dev.name + ": no route for internal prefix " + prefix.to_string());
          continue;
        }
        // The contract evaluation injects `injected` at the device — the
        // coverage event — then asserts on the forwarding decision.
        mark_local_injection(tracker, dev.id, injected);

        const net::Rule& rule = network.rule(*rid);
        if (rule.action.type != net::ActionType::Forward) {
          result.fail(dev.name + ": internal prefix " + prefix.to_string() + " dropped");
          continue;
        }
        std::vector<net::InterfaceId> actual = rule.action.out_interfaces;
        std::sort(actual.begin(), actual.end());

        const std::vector<net::InterfaceId> expected =
            contract_next_hops(network, dist, dev.id);
        if (actual != expected) {
          result.fail(dev.name + ": prefix " + prefix.to_string() +
                      " not forwarded along all shortest paths");
        }
      }
    }
  }
}

std::vector<packet::Ipv4Prefix> internal_prefixes(const net::Device& dev) {
  std::vector<packet::Ipv4Prefix> out = dev.host_prefixes;
  out.insert(out.end(), dev.loopbacks.begin(), dev.loopbacks.end());
  return out;
}

}  // namespace

TestResult InternalRouteCheck::execute(const dataplane::Transfer& transfer,
                                       ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(transfer, tracker, result, internal_prefixes,
                [](const net::Device&) { return true; });
  return result;
}

TestResult ToRContract::execute(const dataplane::Transfer& transfer,
                                ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(
      transfer, tracker, result,
      [](const net::Device& dev) {
        return dev.role == net::Role::ToR ? dev.host_prefixes
                                          : std::vector<packet::Ipv4Prefix>{};
      },
      [](const net::Device&) { return true; });
  return result;
}

TestResult AggCanReachTorLoopback::execute(const dataplane::Transfer& transfer,
                                           ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(
      transfer, tracker, result,
      [](const net::Device& dev) {
        return dev.role == net::Role::ToR ? dev.loopbacks
                                          : std::vector<packet::Ipv4Prefix>{};
      },
      [](const net::Device& dev) { return dev.role == net::Role::Aggregation; });
  return result;
}

}  // namespace yardstick::nettest
