// End-to-end behavioral tests (Figure 2, right column).
//
//   * ToRReachability (§8.1) — end-to-end symbolic: every packet that
//     originates at a ToR destined to another ToR's hosted prefix reaches
//     the correct ToR.
//   * ToRPingmesh (§8.1, after Pingmesh [14]) — end-to-end concrete: the
//     same invariant probed with one sampled address per ToR pair.
//   * ReachabilityTest — the generic building block: a list of symbolic
//     queries (inject headers at a source, assert on where they are
//     delivered). The §2 motivating tests (leaf-to-leaf, leaf-to-WAN,
//     border-to-leaf) are instances.
//   * Ping / Traceroute — concrete single-probe utilities.
//
// Symbolic tests report the packet set at every hop through the simulator
// visitor; concrete tests report one singleton set per hop (§5.1).
#pragma once

#include <optional>

#include "dataplane/simulator.hpp"
#include "nettest/test.hpp"

namespace yardstick::nettest {

/// Source-ToR sharding for the end-to-end suites: shard `s` of `n` checks
/// only the sources with index ≡ s (mod n). Production pingmesh suites are
/// sliced exactly this way so runs parallelize and a failure localizes to a
/// slice; the union of all n shards checks (and covers) the same pairs as
/// the unsharded test.
struct TestShard {
  size_t shard = 0;
  size_t of = 1;

  [[nodiscard]] bool contains(size_t source_index) const {
    return source_index % of == shard;
  }
  /// "" for the trivial shard, "[s/n]" otherwise — keeps sharded test
  /// names distinct (suite analysis and minimization key rows by name).
  [[nodiscard]] std::string suffix() const {
    if (of <= 1) return "";
    return "[" + std::to_string(shard) + "/" + std::to_string(of) + "]";
  }
};

class ToRReachability final : public NetworkTest {
 public:
  ToRReachability() = default;

  /// @param policy_exempt headers the security policy is allowed to drop
  ///        (e.g. blocked ports); they are exempt from the reachability
  ///        requirement but still injected — exercising the ACL rules
  ///        that deny them is part of the test's coverage.
  explicit ToRReachability(packet::PacketSet policy_exempt)
      : policy_exempt_(std::move(policy_exempt)) {}

  /// Shard-sliced variant: only sources in `shard` are flooded.
  explicit ToRReachability(TestShard shard) : shard_(shard) {}

  [[nodiscard]] std::string name() const override {
    return "ToRReachability" + shard_.suffix();
  }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  packet::PacketSet policy_exempt_;  // invalid handle = nothing exempt
  TestShard shard_;
};

class ToRPingmesh final : public NetworkTest {
 public:
  ToRPingmesh() = default;
  /// Shard-sliced variant: only sources in `shard` send probes.
  explicit ToRPingmesh(TestShard shard) : shard_(shard) {}

  [[nodiscard]] std::string name() const override {
    return "ToRPingmesh" + shard_.suffix();
  }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndConcrete;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  TestShard shard_;
};

/// One symbolic end-to-end query: inject `headers` at a source location
/// and assert on the delivered set.
struct ReachabilityQuery {
  net::DeviceId source;
  /// Ingress interface at the source (invalid = local injection).
  net::InterfaceId source_interface;
  packet::PacketSet headers;
  /// If set: headers that must be delivered at `expected_egress`
  /// (equality). If unset: all injected headers must be delivered
  /// somewhere (no drops).
  std::optional<net::InterfaceId> expected_egress;
  packet::PacketSet expected_delivered;  // used with expected_egress
};

class ReachabilityTest final : public NetworkTest {
 public:
  ReachabilityTest(std::string name, std::vector<ReachabilityQuery> queries)
      : name_(std::move(name)), queries_(std::move(queries)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] TestCategory category() const override {
    return TestCategory::EndToEndSymbolic;
  }
  [[nodiscard]] TestResult execute(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const override;

 private:
  std::string name_;
  std::vector<ReachabilityQuery> queries_;
};

/// Concrete probe: does `pkt` injected at `source` get delivered? Marks
/// every hop on the tracker and returns the trace (ping/traceroute are the
/// same mechanism; traceroute additionally inspects the hop list).
[[nodiscard]] dataplane::ConcreteTrace probe(const dataplane::Transfer& transfer,
                                             ys::CoverageTracker& tracker,
                                             net::DeviceId source,
                                             net::InterfaceId source_interface,
                                             const packet::ConcretePacket& pkt);

}  // namespace yardstick::nettest
