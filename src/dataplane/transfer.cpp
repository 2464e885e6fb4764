#include "dataplane/transfer.hpp"

#include <algorithm>

namespace yardstick::dataplane {

using packet::ConcretePacket;
using packet::PacketSet;

namespace {
bool interface_allowed(const net::MatchSpec& spec, net::InterfaceId in_interface) {
  if (spec.in_interfaces.empty() || !in_interface.valid()) return true;
  return std::find(spec.in_interfaces.begin(), spec.in_interfaces.end(), in_interface) !=
         spec.in_interfaces.end();
}
}  // namespace

std::vector<RuleSplit> Transfer::split(net::DeviceId device,
                                       net::InterfaceId in_interface,
                                       const PacketSet& input,
                                       net::TableKind table) const {
  std::vector<RuleSplit> out;
  if (input.empty()) return out;
  const std::span<const net::RuleId> rules = network().table(device, table);
  const std::span<const packet::Ipv4Range> ranges = network().table_dst_ranges(device, table);
  // A rule whose destination range misses the input's claims nothing.
  const packet::Ipv4Range reach = input.dst_range();
  PacketSet remaining = input;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (remaining.empty()) break;
    if (!ranges[i].overlaps(reach)) continue;
    const net::RuleId rid = rules[i];
    const net::Rule& r = network().rule(rid);
    if (!interface_allowed(r.match, in_interface)) continue;
    PacketSet claimed = remaining.intersect(index_.match_set(rid));
    if (claimed.empty()) continue;
    remaining = remaining.minus(claimed);
    out.push_back({rid, std::move(claimed)});
  }
  return out;
}

DeviceStage Transfer::process(net::DeviceId device, net::InterfaceId in_interface,
                              const PacketSet& input) const {
  bdd::BddManager& mgr = index_.manager();
  DeviceStage stage;
  stage.permitted = input;
  stage.denied = PacketSet::none(mgr);
  if (network().has_acl(device)) {
    stage.acl = split(device, in_interface, input, net::TableKind::Acl);
    PacketSet permitted = PacketSet::none(mgr);
    for (const RuleSplit& s : stage.acl) {
      if (network().rule(s.rule).action.type == net::ActionType::Permit) {
        permitted = permitted.union_with(s.packets);
      }
    }
    stage.permitted = permitted;
    stage.denied = input.minus(permitted);  // explicit + implicit deny
  }
  stage.fib = split(device, in_interface, stage.permitted, net::TableKind::Fib);
  return stage;
}

PacketSet Transfer::rewrite(const net::Rule& rule, const PacketSet& input) const {
  PacketSet acc = input;
  for (const net::Rewrite& rw : rule.action.rewrites) {
    acc = acc.rewrite_field(rw.field, rw.value);
  }
  return acc;
}

PacketSet Transfer::rewrite_preimage(const net::Rule& rule,
                                     const PacketSet& output) const {
  PacketSet acc = output;
  // Invert in reverse application order.
  for (auto it = rule.action.rewrites.rbegin(); it != rule.action.rewrites.rend(); ++it) {
    acc = acc.rewrite_field_preimage(it->field, it->value);
  }
  return acc;
}

std::vector<HopOutput> Transfer::apply(const net::Rule& rule,
                                       const PacketSet& input) const {
  std::vector<HopOutput> out;
  if (rule.action.type == net::ActionType::Drop || input.empty()) return out;
  const PacketSet transformed = rewrite(rule, input);
  out.reserve(rule.action.out_interfaces.size());
  for (const net::InterfaceId egress : rule.action.out_interfaces) {
    const net::InterfaceId next = network().interface(egress).peer;
    out.push_back({egress, next, transformed});
  }
  return out;
}

net::RuleId Transfer::lookup(net::DeviceId device, net::InterfaceId in_interface,
                             const ConcretePacket& pkt, net::TableKind table) const {
  const std::span<const net::RuleId> rules = network().table(device, table);
  const std::span<const packet::Ipv4Range> ranges = network().table_dst_ranges(device, table);
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!ranges[i].contains(pkt.dst_ip)) continue;
    if (matches(network().rule(rules[i]).match, pkt, in_interface)) return rules[i];
  }
  return {};
}

net::InterfaceId Transfer::pick_ecmp(const net::Rule& rule,
                                     const ConcretePacket& pkt) const {
  const auto& outs = rule.action.out_interfaces;
  if (outs.empty()) return {};
  // Deterministic 5-tuple hash, stable across runs so traceroutes and
  // pingmesh samples are reproducible.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(pkt.dst_ip);
  mix(pkt.src_ip);
  mix(pkt.proto);
  mix(pkt.src_port);
  mix(pkt.dst_port);
  return outs[h % outs.size()];
}

bool matches(const net::MatchSpec& spec, const ConcretePacket& pkt,
             net::InterfaceId in_interface) {
  if (!interface_allowed(spec, in_interface)) return false;
  if (spec.dst_prefix && !spec.dst_prefix->contains(pkt.dst_ip)) return false;
  if (spec.src_prefix && !spec.src_prefix->contains(pkt.src_ip)) return false;
  if (spec.proto && *spec.proto != pkt.proto) return false;
  if (spec.src_port && (pkt.src_port < spec.src_port->lo || pkt.src_port > spec.src_port->hi)) {
    return false;
  }
  if (spec.dst_port && (pkt.dst_port < spec.dst_port->lo || pkt.dst_port > spec.dst_port->hi)) {
    return false;
  }
  return true;
}

}  // namespace yardstick::dataplane
