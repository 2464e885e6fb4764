// Behavioral checks for transforming rules (tunnels, NAT).
//
// Both checks discover their targets by scanning the installed tables for
// RouteKind::Tunnel / RouteKind::Nat rules, so they stay decoupled from the
// topology generator and automatically shrink (or go dark) when a failure
// scenario removes devices or cuts the fabric paths the tunnels ride on —
// exactly the signal the coverage-under-failure report diffs.
#pragma once

#include "nettest/test.hpp"

namespace yardstick::nettest {

/// End-to-end symbolic: for every encap/decap pair (an encap rule rewrites
/// the destination to the address another tunnel rule matches), flood the
/// VIP headers from the ingress device and require the full set to be
/// delivered at the egress device's host port with the inner destination
/// restored.
class TunnelRoundTripCheck : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "tunnel-round-trip"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

/// End-to-end symbolic: for every NAT rule, flood its match headers at the
/// owning device and require everything delivered out the external ports to
/// carry the translated source — and nothing to escape untranslated.
class NatTranslationCheck : public NetworkTest {
 public:
  [[nodiscard]] std::string name() const override { return "nat-translation"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;
};

}  // namespace yardstick::nettest
