#include "nettest/acl_checks.hpp"

#include "nettest/instrument.hpp"

namespace yardstick::nettest {

using packet::Field;
using packet::PacketSet;

TestResult AclBlockCheck::execute(const dataplane::Transfer& transfer,
                                  ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Device& dev : network.devices()) {
    if (!network.has_acl(dev.id)) continue;
    for (const uint16_t port : ports_) {
      ++result.checks;
      bool found = false;
      for (const net::RuleId rid : network.table(dev.id, net::TableKind::Acl)) {
        const net::Rule& rule = network.rule(rid);
        const bool denies_port =
            rule.action.type == net::ActionType::Drop && rule.match.dst_port &&
            rule.match.dst_port->lo <= port && port <= rule.match.dst_port->hi;
        if (!denies_port) continue;
        mark_inspected_rule(tracker, rid);
        found = true;
        break;
      }
      if (!found) {
        result.fail(dev.name + ": ACL has no deny entry for port " + std::to_string(port));
      }
    }
  }
  return result;
}

TestResult BlockedPortCheck::execute(const dataplane::Transfer& transfer,
                                     ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();

  PacketSet probe = PacketSet::none(mgr);
  for (const uint16_t port : ports_) {
    probe = probe.union_with(PacketSet::field_equals(mgr, Field::DstPort, port));
  }
  probe = probe.intersect(PacketSet::field_equals(mgr, Field::Proto, 6));

  for (const net::Device& dev : network.devices()) {
    if (!network.has_acl(dev.id)) continue;
    ++result.checks;
    mark_local_injection(tracker, dev.id, probe);
    const dataplane::DeviceStage stage =
        transfer.process(dev.id, net::InterfaceId{}, probe);
    if (!stage.permitted.empty()) {
      result.fail(dev.name + ": ACL permits packets to a blocked port");
    }
  }
  return result;
}

}  // namespace yardstick::nettest
