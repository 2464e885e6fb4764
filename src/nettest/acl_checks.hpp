// ACL tests (Figure 2 rows: "The access control list A1 on router R1 must
// have an entry that blocks packets to port 23" and "Router R1 must drop
// all packets to port 23").
//
//   * AclBlockCheck — state inspection: every device with an ingress ACL
//     must carry a deny entry for each listed TCP port. Reports markRule.
//   * BlockedPortCheck — local symbolic: inject all TCP packets to the
//     listed ports at each ACL-bearing device and verify the ACL denies
//     every one of them. Reports markPacket at the device.
#pragma once

#include <cstdint>
#include <vector>

#include "nettest/test.hpp"

namespace yardstick::nettest {

class AclBlockCheck final : public NetworkTest {
 public:
  explicit AclBlockCheck(std::vector<uint16_t> blocked_tcp_ports = {23})
      : ports_(std::move(blocked_tcp_ports)) {}

  [[nodiscard]] std::string name() const override { return "AclBlockCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::StateInspection;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::vector<uint16_t> ports_;
};

class BlockedPortCheck final : public NetworkTest {
 public:
  explicit BlockedPortCheck(std::vector<uint16_t> blocked_tcp_ports = {23})
      : ports_(std::move(blocked_tcp_ports)) {}

  [[nodiscard]] std::string name() const override { return "BlockedPortCheck"; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::LocalSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::vector<uint16_t> ports_;
};

}  // namespace yardstick::nettest
