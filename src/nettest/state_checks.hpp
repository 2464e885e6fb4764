// State-inspection tests (Figure 2, top row).
//
//   * DefaultRouteCheck — the RCDC-derived contract of §7.2: every router
//     (minus explicit exclusions) must carry a default route whose next
//     hops are exactly its northern (higher-tier) neighbors.
//   * ConnectedRouteCheck — the §7.3 test born from Yardstick's gap
//     analysis: both ends of every /31 link must carry the connected
//     route for the link subnet out of the right interface.
//
// Both report coverage with markRule only: inspecting a rule covers its
// entire match set (§5.1).
#pragma once

#include <optional>
#include <unordered_set>

#include "nettest/test.hpp"

namespace yardstick::nettest {

/// Find a device's rule whose match field is exactly `prefix` (any kind).
[[nodiscard]] std::optional<net::RuleId> find_rule_for_prefix(
    const net::Network& network, net::DeviceId device, const packet::Ipv4Prefix& prefix);

class DefaultRouteCheck final : public NetworkTest {
 public:
  /// @param excluded devices not expected to carry a default route (§7.2:
  ///        some regional hubs hold full tables instead). WAN routers are
  ///        always excluded — they originate the default.
  explicit DefaultRouteCheck(std::unordered_set<net::DeviceId> excluded = {})
      : excluded_(std::move(excluded)) {}

  [[nodiscard]] std::string name() const override { return "DefaultRouteCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::StateInspection;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::unordered_set<net::DeviceId> excluded_;
};

class ConnectedRouteCheck final : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "ConnectedRouteCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::StateInspection;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

}  // namespace yardstick::nettest
