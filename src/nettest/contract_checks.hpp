// Local symbolic tests (Figure 2): shortest-path forwarding contracts in
// the style of RCDC [19] — an end-to-end invariant decomposed into one
// local contract per device.
//
//   * InternalRouteCheck (§7.3): every prefix originated inside the region
//     (host subnets, loopbacks) is forwarded through and only through the
//     full set of topological shortest paths, on every router.
//   * ToRContract (§8.1): the same decomposition restricted to ToR hosted
//     prefixes (the local-symbolic counterpart of ToRReachability).
//   * AggCanReachTorLoopback (§7.2): aggregation routers correctly forward
//     packets for ToR loopbacks (the original production test).
//
// Each verified contract injects the prefix's packet set at the device,
// reported via one markPacket call (§5.1, local behavioral tests).
#pragma once

#include "nettest/test.hpp"

namespace yardstick::nettest {

class InternalRouteCheck final : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "InternalRouteCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::LocalSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

class ToRContract final : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "ToRContract"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::LocalSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

class AggCanReachTorLoopback final : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "AggCanReachTorLoopback"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::LocalSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

}  // namespace yardstick::nettest
