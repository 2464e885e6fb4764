// Devices, interfaces and links — the topology half of the network model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netmodel/ids.hpp"
#include "packet/prefix.hpp"

namespace yardstick::net {

/// Router role in the data-center hierarchy (§7.1). Used for grouping in
/// coverage reports and for role-specific routing policy; coverage math is
/// role-agnostic.
enum class Role : uint8_t {
  ToR,          // top-of-rack, connects hosts
  Aggregation,  // pod aggregation layer
  Spine,        // intra-DC spine
  RegionalHub,  // inter-DC regional hub layer
  Wan,          // wide-area / border attachment point
  Host,         // end host (only used as traffic source/sink)
  Other,        // last: report() walks every role up to here
};

[[nodiscard]] inline const char* to_string(Role r) {
  switch (r) {
    case Role::ToR: return "ToR";
    case Role::Aggregation: return "Aggregation";
    case Role::Spine: return "Spine";
    case Role::RegionalHub: return "RegionalHub";
    case Role::Wan: return "Wan";
    case Role::Host: return "Host";
    case Role::Other: return "Other";
  }
  return "?";
}

/// What an interface connects to. Packets forwarded out a port with no
/// link peer leave the modeled network ("delivered"): host ports deliver
/// to rack hosts, local ports model the device's own loopback destination,
/// external ports attach to the un-modeled Internet/backbone.
enum class PortKind : uint8_t { Fabric, HostPort, LocalPort, ExternalPort };

[[nodiscard]] inline const char* to_string(PortKind k) {
  switch (k) {
    case PortKind::Fabric: return "fabric";
    case PortKind::HostPort: return "host";
    case PortKind::LocalPort: return "local";
    case PortKind::ExternalPort: return "external";
  }
  return "?";
}

/// A device interface. Interfaces are also packet locations (§4.1): a
/// located packet at interface i of device v is the paper's pair v.i.
struct Interface {
  InterfaceId id;
  DeviceId device;
  std::string name;
  PortKind kind = PortKind::Fabric;
  /// Peer interface across the connecting link (invalid for edge ports).
  InterfaceId peer;
  /// The link this interface terminates (invalid for edge ports).
  LinkId link;
  /// Address on the point-to-point /31 link subnet, if addressed.
  std::optional<packet::Ipv4Prefix> address;  // stored as addr/31

  /// True for ToR ports that face hosts rather than other routers.
  [[nodiscard]] bool host_facing() const { return kind == PortKind::HostPort; }
};

/// A network device (router).
struct Device {
  DeviceId id;
  std::string name;
  Role role = Role::Other;
  /// Private BGP ASN (shared across devices of the same role tier, §7.1).
  uint32_t asn = 0;
  std::vector<InterfaceId> interfaces;
  /// Loopback prefixes (/32) injected into BGP via redistribution.
  std::vector<packet::Ipv4Prefix> loopbacks;
  /// Aggregated host subnets advertised by a ToR.
  std::vector<packet::Ipv4Prefix> host_prefixes;
  /// Tunnel endpoint addresses (/32) terminated here. Originated into BGP
  /// like loopbacks, but *not* installed as local FIB routes at the origin —
  /// delivery at the endpoint is the decap rule's job (src/topo/transforms).
  std::vector<packet::Ipv4Prefix> tunnel_endpoints;
};

/// An undirected link between two interfaces with its /31 subnet.
struct Link {
  LinkId id;
  InterfaceId a;
  InterfaceId b;
  std::optional<packet::Ipv4Prefix> subnet;  // /31 for p2p links
};

}  // namespace yardstick::net
