// Network — the paper's 4-tuple N = (V, I, E, S): devices, interfaces,
// links, and forwarding state (an ordered rule table per device).
//
// The class is both the container and the builder: topology generators and
// the routing substrate populate it through the add_* methods, after which
// it is treated as an immutable snapshot by the dataplane and coverage
// layers (mirroring how data-plane verifiers operate on state snapshots,
// §4.1 "model limitations").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netmodel/device.hpp"
#include "netmodel/ids.hpp"
#include "netmodel/rule.hpp"

namespace yardstick::net {

class Network {
 public:
  // --- Construction ---

  DeviceId add_device(std::string name, Role role, uint32_t asn = 0);

  /// Add an unconnected interface to a device.
  InterfaceId add_interface(DeviceId device, std::string name,
                            PortKind kind = PortKind::Fabric);

  /// All interfaces of a device with the given port kind.
  [[nodiscard]] std::vector<InterfaceId> ports_of_kind(DeviceId device,
                                                       PortKind kind) const;

  /// Connect two interfaces with a link, optionally assigning the /31
  /// subnet (side `a` gets the even address, side `b` the odd one).
  LinkId add_link(InterfaceId a, InterfaceId b,
                  std::optional<packet::Ipv4Prefix> subnet = std::nullopt);

  /// Append a rule to one of a device's tables (forwarding table by
  /// default). Rules are kept sorted by ascending `priority` (stable for
  /// equal priorities), each with its destination range beside it (see
  /// table_dst_ranges). Returns the global RuleId.
  RuleId add_rule(DeviceId device, MatchSpec match, Action action,
                  RouteKind kind = RouteKind::Other, uint32_t priority = 0,
                  TableKind table = TableKind::Fib);

  /// Drop all rules from every device (used when recomputing FIBs).
  void clear_rules();

  // --- Accessors ---

  [[nodiscard]] const Device& device(DeviceId id) const { return devices_[id.value]; }
  [[nodiscard]] Device& device(DeviceId id) { return devices_[id.value]; }
  [[nodiscard]] const Interface& interface(InterfaceId id) const {
    return interfaces_[id.value];
  }
  [[nodiscard]] Interface& interface(InterfaceId id) { return interfaces_[id.value]; }
  [[nodiscard]] const Link& link(LinkId id) const { return links_[id.value]; }
  [[nodiscard]] const Rule& rule(RuleId id) const { return rules_[id.value]; }
  /// Mutable rule access — for fault injection in tests and what-if
  /// analyses. A rule's match and priority are frozen by add_rule: the
  /// table order and the destination-range index are built from them, so
  /// only the action may be edited in place.
  [[nodiscard]] Rule& mutable_rule(RuleId id) { return rules_[id.value]; }

  [[nodiscard]] size_t device_count() const { return devices_.size(); }
  [[nodiscard]] size_t interface_count() const { return interfaces_.size(); }
  [[nodiscard]] size_t link_count() const { return links_.size(); }
  [[nodiscard]] size_t rule_count() const { return rules_.size(); }

  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<Interface>& interfaces() const { return interfaces_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  /// Ordered forwarding table of a device (S[v] in the paper).
  [[nodiscard]] std::span<const RuleId> table(DeviceId id) const {
    return tables_[id.value][static_cast<size_t>(TableKind::Fib)];
  }

  /// Ordered rule list of one of the device's tables.
  [[nodiscard]] std::span<const RuleId> table(DeviceId id, TableKind kind) const {
    return tables_[id.value][static_cast<size_t>(kind)];
  }

  /// Destination range of each rule of `table(id, kind)`, position for
  /// position: the addresses of the rule's `dst_prefix`, or every address
  /// when it has none. A rule's packets never leave its range, so table
  /// walks skip rules whose range misses the input's (DESIGN.md §16).
  [[nodiscard]] std::span<const packet::Ipv4Range> table_dst_ranges(
      DeviceId id, TableKind kind = TableKind::Fib) const {
    return dst_ranges_[id.value][static_cast<size_t>(kind)];
  }

  /// True if the device has an ingress ACL stage.
  [[nodiscard]] bool has_acl(DeviceId id) const {
    return !tables_[id.value][static_cast<size_t>(TableKind::Acl)].empty();
  }

  /// Device on the far side of an interface's link (invalid if unconnected).
  [[nodiscard]] DeviceId neighbor(InterfaceId id) const {
    const InterfaceId peer = interfaces_[id.value].peer;
    return peer.valid() ? interfaces_[peer.value].device : DeviceId{};
  }

  /// All (interface, neighbor-device) pairs of a device's connected ports.
  [[nodiscard]] std::vector<std::pair<InterfaceId, DeviceId>> neighbors(DeviceId id) const;

  /// Find a device by name (linear scan; for tests and examples).
  [[nodiscard]] std::optional<DeviceId> find_device(std::string_view name) const;

  /// The interface of `from` that faces `to` (first such), if any.
  [[nodiscard]] std::optional<InterfaceId> interface_towards(DeviceId from,
                                                             DeviceId to) const;

  /// Devices of a given role.
  [[nodiscard]] std::vector<DeviceId> devices_with_role(Role role) const;

  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Device> devices_;
  std::vector<Interface> interfaces_;
  std::vector<Link> links_;
  std::vector<Rule> rules_;
  /// Per device, per TableKind, in priority order.
  std::vector<std::array<std::vector<RuleId>, kTableCount>> tables_;
  /// Parallel to tables_: each rule's destination range.
  std::vector<std::array<std::vector<packet::Ipv4Range>, kTableCount>> dst_ranges_;
  std::unordered_map<std::string, DeviceId> device_by_name_;
};

/// Content key of a rule: `device|table|priority|match|kind`. Identifies a
/// rule by what it *is* rather than by its positional RuleId, so reports
/// stay comparable across runs that renumber rules (FIB recomputation,
/// failure scenarios, suite deltas). Rules that are byte-identical under
/// this key are deliberately conflated — callers that need uniqueness
/// disambiguate with a positional suffix (see scenario::ScenarioRunner and
/// the gap report's collapsed-rule annotations).
[[nodiscard]] std::string rule_content_key(const Network& network, RuleId id);

}  // namespace yardstick::net
