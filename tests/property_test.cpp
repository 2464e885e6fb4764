// Property-based tests on randomized networks.
//
// A seeded generator produces layered random topologies (links only point
// from lower to higher layers, so forwarding is loop-free and flood
// conservation is exact) with randomized LPM tables, ingress-restricted
// routes, destination-free FIB and ACL entries and default routes. Each
// property is checked across a sweep of seeds via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "coverage/components.hpp"
#include "coverage/path_explorer.hpp"
#include "dataplane/simulator.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/persist.hpp"

namespace yardstick {
namespace {

using dataplane::MatchSetIndex;
using dataplane::Transfer;
using packet::ConcretePacket;
using packet::Ipv4Prefix;
using packet::PacketSet;

struct RandomNet {
  net::Network network;
  net::DeviceId source;            // layer-0 device packets enter at
  net::InterfaceId source_port;    // its host port
};

/// Layered random network: `layers` tiers of `width` devices; every device
/// links to 1-2 devices in the next tier; the top tier has egress ports.
/// Each device gets a randomized LPM table over /8../24 prefixes with
/// forward/drop actions, plus (sometimes) a default route, an
/// ingress-restricted route and a destination-free drop rule (source
/// prefix and port range only). Devices off the source sometimes carry an
/// ingress ACL of destination-free entries ending in a permit-all.
/// Ingress restrictions list every interface traffic can arrive on, so
/// floods and concrete runs agree; table walks given any other interface
/// skip them.
RandomNet make_random_net(uint32_t seed, int layers = 3, int width = 3) {
  std::mt19937 rng(seed);
  RandomNet out;
  net::Network& n = out.network;

  std::vector<std::vector<net::DeviceId>> tiers(layers);
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      tiers[layer].push_back(n.add_device(
          "d" + std::to_string(layer) + "_" + std::to_string(i), net::Role::Other));
    }
  }
  out.source = tiers[0][0];
  out.source_port = n.add_interface(out.source, "in", net::PortKind::HostPort);

  // Links: each device to 1-2 next-tier devices.
  std::vector<std::vector<std::pair<net::InterfaceId, net::DeviceId>>> uplinks(
      n.device_count());
  std::vector<std::vector<net::InterfaceId>> ingress(n.device_count());
  ingress[out.source.value].push_back(out.source_port);
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (const net::DeviceId dev : tiers[layer]) {
      const int fanout = 1 + static_cast<int>(rng() % 2);
      for (int f = 0; f < fanout; ++f) {
        const net::DeviceId peer = tiers[layer + 1][rng() % width];
        const auto ia = n.add_interface(
            dev, "u" + std::to_string(n.device(dev).interfaces.size()));
        const auto ib = n.add_interface(
            peer, "d" + std::to_string(n.device(peer).interfaces.size()));
        n.add_link(ia, ib);
        uplinks[dev.value].emplace_back(ia, peer);
        ingress[peer.value].push_back(ib);
      }
    }
  }
  // Top tier egress ports.
  for (const net::DeviceId dev : tiers[layers - 1]) {
    const auto port = n.add_interface(dev, "out", net::PortKind::ExternalPort);
    uplinks[dev.value].emplace_back(port, net::DeviceId{});
  }

  // Random LPM tables.
  for (const net::Device& dev : n.devices()) {
    const auto& ups = uplinks[dev.id.value];
    if (ups.empty()) continue;
    const int rules = 2 + static_cast<int>(rng() % 6);
    for (int r = 0; r < rules; ++r) {
      const uint8_t len = static_cast<uint8_t>(8 + rng() % 17);
      const uint32_t addr = rng();
      const Ipv4Prefix prefix(addr, len);
      net::Action action;
      if (rng() % 4 == 0) {
        action = net::Action::drop();
      } else {
        action = net::Action::forward({ups[rng() % ups.size()].first});
      }
      n.add_rule(dev.id, net::MatchSpec::for_dst(prefix), std::move(action),
                 net::RouteKind::Other, 32u - len);
    }
    if (rng() % 2 == 0) {
      n.add_rule(dev.id, net::MatchSpec::for_dst(Ipv4Prefix(0, 0)),
                 net::Action::forward({ups[rng() % ups.size()].first}),
                 net::RouteKind::Default, 32);
    }
    if (rng() % 2 == 0) {
      const uint8_t len = static_cast<uint8_t>(8 + rng() % 17);
      net::MatchSpec match = net::MatchSpec::for_dst(Ipv4Prefix(rng(), len));
      match.in_interfaces = ingress[dev.id.value];
      if (match.in_interfaces.empty()) match.in_interfaces.push_back(ups.front().first);
      n.add_rule(dev.id, std::move(match),
                 net::Action::forward({ups[rng() % ups.size()].first}),
                 net::RouteKind::Other, 32u - len);
    }
    if (rng() % 2 == 0) {
      net::MatchSpec match;
      match.src_prefix = Ipv4Prefix(rng(), static_cast<uint8_t>(4 + rng() % 9));
      const auto lo = static_cast<uint16_t>(rng());
      match.dst_port = net::PortRange{
          lo, static_cast<uint16_t>(std::min<uint32_t>(65535, lo + rng() % 4096))};
      n.add_rule(dev.id, std::move(match), net::Action::drop(), net::RouteKind::DropRule, 0);
    }
    if (dev.id != out.source && rng() % 3 == 0) {
      net::MatchSpec deny_src;
      deny_src.src_prefix = Ipv4Prefix(rng(), static_cast<uint8_t>(2 + rng() % 7));
      n.add_rule(dev.id, std::move(deny_src), net::Action::drop(), net::RouteKind::Security,
                 0, net::TableKind::Acl);
      net::MatchSpec deny_port;
      const auto lo = static_cast<uint16_t>(rng());
      deny_port.src_port = net::PortRange{
          lo, static_cast<uint16_t>(std::min<uint32_t>(65535, lo + rng() % 2048))};
      deny_port.proto = static_cast<uint8_t>(rng() % 2 == 0 ? 6 : 17);
      n.add_rule(dev.id, std::move(deny_port), net::Action::drop(), net::RouteKind::Security,
                 1, net::TableKind::Acl);
      n.add_rule(dev.id, net::MatchSpec{}, net::Action::permit(), net::RouteKind::Security, 2,
                 net::TableKind::Acl);
    }
  }
  return out;
}

class RandomNetTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  RandomNetTest()
      : rnet_(make_random_net(GetParam())),
        index_(mgr_, rnet_.network),
        transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  RandomNet rnet_;
  MatchSetIndex index_;
  Transfer transfer_;
};

TEST_P(RandomNetTest, MatchSetsPartitionMatchedSpace) {
  for (const net::Device& dev : rnet_.network.devices()) {
    PacketSet acc = PacketSet::none(mgr_);
    bdd::Uint128 total = 0;
    for (const net::RuleId rid : rnet_.network.table(dev.id)) {
      const PacketSet& ms = index_.match_set(rid);
      EXPECT_TRUE(ms.intersect(acc).empty());
      acc = acc.union_with(ms);
      total += ms.count();
    }
    EXPECT_EQ(acc, index_.matched_space(dev.id));
    EXPECT_EQ(total, index_.matched_space(dev.id).count());
    // Every match set stays within its match field.
    for (const net::RuleId rid : rnet_.network.table(dev.id)) {
      EXPECT_TRUE(index_.match_set(rid).raw().implies(index_.match_field(rid).raw()));
    }
  }
}

TEST_P(RandomNetTest, FloodConservation) {
  // Loop-free single-copy forwarding: every injected packet is delivered,
  // dropped by a rule, or unmatched — exactly once.
  const dataplane::SymbolicSimulator sim(transfer_);
  const PacketSet injected = PacketSet::all(mgr_);
  const auto result = sim.flood(rnet_.source, rnet_.source_port, injected);
  EXPECT_EQ(result.delivered.count() + result.dropped.count() + result.unmatched.count(),
            injected.count());
}

TEST_P(RandomNetTest, SymbolicAgreesWithConcrete) {
  const dataplane::SymbolicSimulator sym(transfer_);
  const dataplane::ConcreteSimulator conc(transfer_);
  std::mt19937 rng(GetParam() * 31 + 7);
  for (int i = 0; i < 16; ++i) {
    ConcretePacket pkt;
    pkt.dst_ip = rng();
    pkt.src_ip = rng();
    pkt.proto = static_cast<uint8_t>(rng());
    const auto trace = conc.run(rnet_.source, rnet_.source_port, pkt);
    const auto flood =
        sym.flood(rnet_.source, rnet_.source_port, PacketSet::from_packet(mgr_, pkt));
    switch (trace.disposition) {
      case dataplane::Disposition::Delivered:
        EXPECT_TRUE(flood.delivered.at(net::to_location(trace.egress)).contains(pkt));
        break;
      case dataplane::Disposition::Dropped:
        EXPECT_EQ(flood.dropped.count(), bdd::Uint128{1});
        break;
      case dataplane::Disposition::NoRule:
        EXPECT_EQ(flood.unmatched.count(), bdd::Uint128{1});
        break;
      case dataplane::Disposition::Loop:
        ADD_FAILURE() << "layered networks cannot loop";
    }
  }
}

TEST_P(RandomNetTest, PathGuardsPartitionInjectedSpace) {
  // Without ECMP fan-out, the maximal paths from one ingress partition the
  // injected header space: guard sizes sum to 2^104.
  const coverage::PathExplorer explorer(transfer_, nullptr);
  bdd::Uint128 total = 0;
  explorer.explore(rnet_.source, rnet_.source_port, PacketSet::all(mgr_),
                   [&](const coverage::ExploredPath& p) {
                     total += p.guard_size;
                     return true;
                   });
  // Packets unmatched at the *first* device traverse no rule and belong to
  // no path; add them back for the balance check.
  const auto stage = transfer_.process(rnet_.source, rnet_.source_port,
                                       PacketSet::all(mgr_));
  PacketSet claimed = PacketSet::none(mgr_);
  for (const auto& s : stage.fib) claimed = claimed.union_with(s.packets);
  total += PacketSet::all(mgr_).minus(claimed).count();
  EXPECT_EQ(total, PacketSet::all(mgr_).count());
}

TEST_P(RandomNetTest, CoverageMonotoneUnderRandomMarks) {
  std::mt19937 rng(GetParam() ^ 0xabcdef);
  coverage::CoverageTrace trace;
  double last_rule = 0.0, last_weighted = 0.0, last_device = 0.0;
  for (int step = 0; step < 6; ++step) {
    // Random mark: either a rule inspection or a packet set somewhere.
    if (rng() % 2 == 0 && rnet_.network.rule_count() > 0) {
      trace.mark_rule(net::RuleId{static_cast<uint32_t>(rng() % rnet_.network.rule_count())});
    } else {
      const auto loc = static_cast<packet::LocationId>(
          rng() % rnet_.network.interface_count());
      trace.mark_packet(loc, PacketSet::dst_prefix(
                                 mgr_, Ipv4Prefix(rng(), static_cast<uint8_t>(rng() % 25))));
    }
    const coverage::CoveredSets covered(index_, trace);
    const coverage::ComponentFactory factory(transfer_);
    const double rule_frac = coverage::collection_coverage(
        covered, factory.all_rules(), coverage::fractional_aggregator());
    const double weighted = coverage::collection_coverage(
        covered, factory.all_rules(), coverage::weighted_average_aggregator());
    const double device = coverage::collection_coverage(
        covered, factory.all_devices(), coverage::simple_average_aggregator());
    EXPECT_GE(rule_frac, last_rule - 1e-12);
    EXPECT_GE(weighted, last_weighted - 1e-12);
    EXPECT_GE(device, last_device - 1e-12);
    EXPECT_GE(rule_frac, 0.0);
    EXPECT_LE(rule_frac, 1.0);
    EXPECT_LE(weighted, 1.0);
    EXPECT_LE(device, 1.0);
    last_rule = rule_frac;
    last_weighted = weighted;
    last_device = device;
  }
}

TEST_P(RandomNetTest, PersistenceRoundTripOnRandomTraces) {
  std::mt19937 rng(GetParam() + 99);
  coverage::CoverageTrace trace;
  for (int i = 0; i < 8; ++i) {
    const auto loc =
        static_cast<packet::LocationId>(rng() % rnet_.network.interface_count());
    trace.mark_packet(
        loc, PacketSet::dst_prefix(mgr_, Ipv4Prefix(rng(), static_cast<uint8_t>(rng() % 33)))
                 .intersect(PacketSet::field_equals(mgr_, packet::Field::Proto,
                                                    static_cast<uint8_t>(rng()))));
  }
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded =
      ys::deserialize_trace(ys::serialize_trace(trace, mgr_), mgr2);
  ASSERT_EQ(loaded.marked_packets().location_count(),
            trace.marked_packets().location_count());
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    EXPECT_EQ(loaded.marked_packets().at(loc).count(), ps.count());
  }
}

// --- Table walks against table-order references with no index ---

/// Transfer::split as a plain walk over every rule of the table.
std::vector<dataplane::RuleSplit> reference_split(const MatchSetIndex& index,
                                                  net::DeviceId device,
                                                  net::InterfaceId in_interface,
                                                  const PacketSet& input,
                                                  net::TableKind table) {
  std::vector<dataplane::RuleSplit> out;
  PacketSet remaining = input;
  for (const net::RuleId rid : index.network().table(device, table)) {
    const auto& allowed = index.network().rule(rid).match.in_interfaces;
    if (in_interface.valid() && !allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), in_interface) == allowed.end()) {
      continue;
    }
    PacketSet claimed = remaining.intersect(index.match_set(rid));
    if (claimed.empty()) continue;
    remaining = remaining.minus(claimed);
    out.push_back({rid, std::move(claimed)});
  }
  return out;
}

/// The ingress interfaces a walk is tried with: none (local injection)
/// and each of the device's interfaces, listed by its restricted rules or
/// not.
std::vector<net::InterfaceId> walk_interfaces(const net::Device& dev) {
  std::vector<net::InterfaceId> out{net::InterfaceId{}};
  out.insert(out.end(), dev.interfaces.begin(), dev.interfaces.end());
  return out;
}

/// A random destination prefix of any length, /0 through /32.
Ipv4Prefix random_prefix(std::mt19937& rng) {
  return {static_cast<uint32_t>(rng()), static_cast<uint8_t>(rng() % 33)};
}

/// An address at or next to a random dst-prefixed rule of the table: its
/// first or last address, one past either end, or one inside. A random
/// address when the table has none.
uint32_t address_near_rules(const net::Network& network, net::DeviceId device,
                            net::TableKind table, std::mt19937& rng) {
  const auto rules = network.table(device, table);
  if (!rules.empty()) {
    const auto& dst = network.rule(rules[rng() % rules.size()]).match.dst_prefix;
    if (dst) {
      switch (rng() % 5) {
        case 0: return dst->first();
        case 1: return dst->last();
        case 2: return dst->first() - 1;
        case 3: return dst->last() + 1;
        default: return dst->first() + static_cast<uint32_t>(rng() % dst->size());
      }
    }
  }
  return static_cast<uint32_t>(rng());
}

/// Random inputs for split: prefixes, non-prefix-aligned ranges, unions of
/// distant prefixes, sets also bound on the source, match fields of the
/// table's own rules, single packets and the full set.
std::vector<PacketSet> split_inputs(bdd::BddManager& mgr, const MatchSetIndex& index,
                                    net::DeviceId device, std::mt19937& rng) {
  std::vector<PacketSet> out{PacketSet::all(mgr)};
  for (int i = 0; i < 4; ++i) {
    out.push_back(PacketSet::dst_prefix(mgr, random_prefix(rng)));
    const uint32_t a = rng(), b = rng();
    out.push_back(PacketSet::field_range(mgr, packet::Field::DstIp, std::min(a, b),
                                         std::max(a, b)));
    const uint32_t lo = address_near_rules(index.network(), device, net::TableKind::Fib, rng);
    out.push_back(PacketSet::field_range(mgr, packet::Field::DstIp, lo,
                                         lo + std::min<uint32_t>(~lo, rng() % 100000)));
    out.push_back(PacketSet::dst_prefix(mgr, random_prefix(rng))
                      .union_with(PacketSet::dst_prefix(mgr, random_prefix(rng))));
    out.push_back(PacketSet::dst_prefix(mgr, random_prefix(rng))
                      .intersect(PacketSet::src_prefix(mgr, random_prefix(rng))));
    ConcretePacket pkt;
    pkt.dst_ip = address_near_rules(index.network(), device, net::TableKind::Fib, rng);
    pkt.src_ip = rng();
    pkt.dst_port = static_cast<uint16_t>(rng());
    out.push_back(PacketSet::from_packet(mgr, pkt));
  }
  for (const net::RuleId rid : index.network().table(device)) {
    out.push_back(index.match_field(rid));
  }
  return out;
}

TEST_P(RandomNetTest, SplitMatchesTableOrderReference) {
  std::mt19937 rng(GetParam() * 7919 + 3);
  const net::Network& network = rnet_.network;
  for (const net::Device& dev : network.devices()) {
    for (const PacketSet& input : split_inputs(mgr_, index_, dev.id, rng)) {
      for (const net::InterfaceId in : walk_interfaces(dev)) {
        for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
          const auto got = transfer_.split(dev.id, in, input, table);
          const auto want = reference_split(index_, dev.id, in, input, table);
          ASSERT_EQ(got.size(), want.size()) << dev.name << " " << input.to_string();
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].rule, want[i].rule) << dev.name;
            EXPECT_EQ(got[i].packets, want[i].packets) << dev.name;
          }
        }
      }
    }
  }
}

TEST_P(RandomNetTest, LookupMatchesTableOrderReference) {
  std::mt19937 rng(GetParam() * 104729 + 11);
  const net::Network& network = rnet_.network;
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (int i = 0; i < 64; ++i) {
        ConcretePacket pkt;
        pkt.dst_ip = i % 2 == 0 ? static_cast<uint32_t>(rng())
                                : address_near_rules(network, dev.id, table, rng);
        pkt.src_ip = rng();
        pkt.proto = static_cast<uint8_t>(rng() % 2 == 0 ? 6 : rng());
        pkt.src_port = static_cast<uint16_t>(rng());
        pkt.dst_port = static_cast<uint16_t>(rng());
        for (const net::InterfaceId in : walk_interfaces(dev)) {
          net::RuleId want;
          for (const net::RuleId rid : network.table(dev.id, table)) {
            if (dataplane::matches(network.rule(rid).match, pkt, in)) {
              want = rid;
              break;
            }
          }
          EXPECT_EQ(transfer_.lookup(dev.id, in, pkt, table), want)
              << dev.name << " " << pkt.to_string();
        }
      }
    }
  }
}

TEST_P(RandomNetTest, FindRuleForPrefixMatchesTableOrderReference) {
  std::mt19937 rng(GetParam() * 15485863 + 5);
  const net::Network& network = rnet_.network;
  for (const net::Device& dev : network.devices()) {
    std::vector<Ipv4Prefix> queries{packet::default_route_prefix()};
    for (const net::RuleId rid : network.table(dev.id)) {
      const auto& dst = network.rule(rid).match.dst_prefix;
      if (!dst) continue;
      queries.push_back(*dst);
      // Same address one bit longer or shorter: same first address, other range.
      if (dst->length() < 32) queries.emplace_back(dst->address(), dst->length() + 1);
      if (dst->length() > 0) queries.emplace_back(dst->address(), dst->length() - 1);
    }
    for (int i = 0; i < 16; ++i) queries.push_back(random_prefix(rng));
    for (const Ipv4Prefix& prefix : queries) {
      std::optional<net::RuleId> want;
      for (const net::RuleId rid : network.table(dev.id)) {
        if (network.rule(rid).match.dst_prefix == prefix) {
          want = rid;
          break;
        }
      }
      EXPECT_EQ(nettest::find_rule_for_prefix(network, dev.id, prefix), want)
          << dev.name << " " << prefix.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetTest, ::testing::Range(0u, 10u));

TEST(RandomNetGenerator, EmitsEveryRuleShape) {
  // Across the seed sweep the generator exercises what the table index
  // must handle: rules with no destination (FIB and ACL), ingress-
  // restricted rules, and default routes.
  int no_dst_fib = 0, no_dst_acl = 0, restricted = 0, defaults = 0;
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const RandomNet rnet = make_random_net(seed);
    for (const net::Rule& rule : rnet.network.rules()) {
      if (!rule.match.dst_prefix) {
        ++(rule.table == net::TableKind::Acl ? no_dst_acl : no_dst_fib);
      } else if (rule.match.dst_prefix->length() == 0) {
        ++defaults;
      }
      if (!rule.match.in_interfaces.empty()) ++restricted;
    }
  }
  EXPECT_GT(no_dst_fib, 0);
  EXPECT_GT(no_dst_acl, 0);
  EXPECT_GT(restricted, 0);
  EXPECT_GT(defaults, 0);
}

}  // namespace
}  // namespace yardstick
