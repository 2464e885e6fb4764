// Local concrete test (the remaining Figure 2 cell): "Router R1 must
// forward a given packet with dest. D via neighbor N1".
//
// LocalForwardCheck samples one concrete packet per (device, hosted
// prefix) contract and verifies the single-device forwarding decision
// against the shortest-path next hops — the concrete counterpart of
// ToRContract, useful where symbolic analysis of a device model is
// unavailable and only a lookup API exists.
#pragma once

#include "nettest/test.hpp"

namespace yardstick::nettest {

class LocalForwardCheck final : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "LocalForwardCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::LocalConcrete;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

}  // namespace yardstick::nettest
