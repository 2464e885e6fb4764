// Waypoint (firewall-traversal) tests — the remaining Figure 2 rows:
//   concrete:  "Traceroute between two endpoints must traverse the firewall"
//   symbolic:  "All packets between two endpoints must traverse a firewall"
#pragma once

#include "nettest/test.hpp"

namespace yardstick::nettest {

/// One waypoint obligation: packets in `headers` injected at `source`
/// must pass through `waypoint` before leaving the network.
struct WaypointQuery {
  net::DeviceId source;
  net::InterfaceId source_interface;  // invalid = local injection
  packet::PacketSet headers;
  net::DeviceId waypoint;
};

/// Symbolic: floods each query and verifies that every delivered packet
/// was observed arriving at the waypoint. (Exact for forwarding without
/// header rewrites; rewritten packets are conservatively flagged.)
class WaypointCheck final : public NetworkTest {
 public:
  WaypointCheck(std::string name, std::vector<WaypointQuery> queries)
      : name_(std::move(name)), queries_(std::move(queries)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::string name_;
  std::vector<WaypointQuery> queries_;
};

/// Concrete: traceroutes one sampled packet per query and asserts the
/// waypoint device appears on the hop list.
class TracerouteWaypointCheck final : public NetworkTest {
 public:
  TracerouteWaypointCheck(std::string name, std::vector<WaypointQuery> queries)
      : name_(std::move(name)), queries_(std::move(queries)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndConcrete;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::string name_;
  std::vector<WaypointQuery> queries_;
};

}  // namespace yardstick::nettest
