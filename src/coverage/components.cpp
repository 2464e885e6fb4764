#include "coverage/components.hpp"

namespace yardstick::coverage {

using packet::PacketSet;

ComponentFactory::ComponentFactory(const dataplane::Transfer& transfer)
    : transfer_(transfer) {
  const net::Network& network = transfer.network();
  rules_to_interface_.resize(network.interface_count());
  for (const net::Rule& rule : network.rules()) {
    for (const net::InterfaceId out : rule.action.out_interfaces) {
      rules_to_interface_[out.value].push_back(rule.id);
    }
  }
}

GuardedString ComponentFactory::rule_string(net::RuleId id) const {
  return {transfer_.index().match_set(id), {id}, packet::kNoLocation};
}

ComponentSpec ComponentFactory::rule(net::RuleId id) const {
  return {{rule_string(id)}, fraction_measure(), single_combinator()};
}

ComponentSpec ComponentFactory::device(net::DeviceId id) const {
  ComponentSpec spec;
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : transfer_.network().table(id, table)) {
      spec.strings.push_back(rule_string(rid));
    }
  }
  spec.measure = fraction_measure();
  spec.combinator = weighted_mean_combinator();
  return spec;
}

ComponentSpec ComponentFactory::interface(net::InterfaceId id,
                                          InterfaceDirection direction) const {
  ComponentSpec spec;
  spec.measure = fraction_measure();
  spec.combinator = weighted_mean_combinator();
  if (direction == InterfaceDirection::Outgoing) {
    for (const net::RuleId rid : rules_to(id)) {
      spec.strings.push_back(rule_string(rid));
    }
  } else {
    const net::DeviceId device = transfer_.network().interface(id).device;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : transfer_.network().table(device, table)) {
        GuardedString g = rule_string(rid);
        g.at_location = net::to_location(id);  // guard limited to this ingress
        spec.strings.push_back(std::move(g));
      }
    }
  }
  return spec;
}

ComponentSpec ComponentFactory::path(std::vector<net::RuleId> rules,
                                     PacketSet guard) const {
  ComponentSpec spec;
  spec.strings.push_back({std::move(guard), std::move(rules), packet::kNoLocation});
  spec.measure = path_measure(transfer_);
  spec.combinator = single_combinator();
  return spec;
}

ComponentSpec ComponentFactory::flow(net::DeviceId device, net::InterfaceId in_interface,
                                     const PacketSet& headers, int max_depth) const {
  ComponentSpec spec;
  spec.measure = path_measure(transfer_);
  spec.combinator = weighted_mean_combinator();

  PathExplorer::Options options;
  options.max_depth = max_depth;
  const PathExplorer explorer(transfer_, nullptr, options);
  bdd::BddManager& mgr = transfer_.index().manager();
  explorer.explore(device, in_interface, headers, [&](const ExploredPath& p) {
    // Recover the guard at the flow origin. Without rewrites along the
    // path the final set *is* the guard; otherwise reverse through
    // pre-images (same procedure the explorer used for the size).
    PacketSet guard = p.final_set;
    for (auto it = p.rules.rbegin(); it != p.rules.rend(); ++it) {
      const net::Rule& rule = transfer_.network().rule(*it);
      if (!rule.action.rewrites.empty()) {
        guard = transfer_.rewrite_preimage(rule, guard);
      }
      guard = guard.intersect(transfer_.index().match_set(*it));
    }
    guard = guard.intersect(headers);
    if (!guard.empty() && !p.rules.empty()) {
      spec.strings.push_back({guard, p.rules, packet::kNoLocation});
    }
    return true;
  });
  // The manager reference is only used here to keep the empty-flow case
  // well-formed: a flow with no viable paths gets a vacuous empty string.
  if (spec.strings.empty()) {
    spec.strings.push_back({PacketSet::none(mgr), {}, packet::kNoLocation});
  }
  return spec;
}

ComponentSpec ComponentFactory::coflow(const std::vector<FlowEndpoint>& flows,
                                       int max_depth) const {
  ComponentSpec spec;
  spec.measure = path_measure(transfer_);
  spec.combinator = weighted_mean_combinator();
  for (const FlowEndpoint& endpoint : flows) {
    ComponentSpec one = flow(endpoint.device, endpoint.in_interface, endpoint.headers,
                             max_depth);
    for (GuardedString& g : one.strings) {
      if (!g.rules.empty()) spec.strings.push_back(std::move(g));
    }
  }
  if (spec.strings.empty()) {
    spec.strings.push_back(
        {packet::PacketSet::none(transfer_.index().manager()), {}, packet::kNoLocation});
  }
  return spec;
}

std::vector<ComponentSpec> ComponentFactory::all_rules(
    const std::vector<net::DeviceId>& devices) const {
  const net::Network& network = transfer_.network();
  std::vector<ComponentSpec> out;
  const auto add_device = [&](net::DeviceId id) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(id, table)) out.push_back(rule(rid));
    }
  };
  if (devices.empty()) {
    for (const net::Device& d : network.devices()) add_device(d.id);
  } else {
    for (const net::DeviceId id : devices) add_device(id);
  }
  return out;
}

std::vector<ComponentSpec> ComponentFactory::all_devices(
    const std::vector<net::DeviceId>& devices) const {
  const net::Network& network = transfer_.network();
  std::vector<ComponentSpec> out;
  if (devices.empty()) {
    for (const net::Device& d : network.devices()) out.push_back(device(d.id));
  } else {
    for (const net::DeviceId id : devices) out.push_back(device(id));
  }
  return out;
}

std::vector<ComponentSpec> ComponentFactory::all_interfaces(
    const std::vector<net::DeviceId>& devices, InterfaceDirection direction) const {
  const net::Network& network = transfer_.network();
  std::vector<ComponentSpec> out;
  const auto add_device = [&](net::DeviceId id) {
    for (const net::InterfaceId intf : network.device(id).interfaces) {
      out.push_back(interface(intf, direction));
    }
  };
  if (devices.empty()) {
    for (const net::Device& d : network.devices()) add_device(d.id);
  } else {
    for (const net::DeviceId id : devices) add_device(id);
  }
  return out;
}

}  // namespace yardstick::coverage
