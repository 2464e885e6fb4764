// Incremental recomputation benchmark (DESIGN.md §11): how much of the
// offline phase does the content-hash cache save under realistic churn?
//
// Scenario: a k-ary fat tree with the standard §8.1 test suite's trace.
// After a full (cache-seeding) run, a small fraction of devices sees a FIB
// edit — the daily-operations case the incremental layer exists for — and
// the engine is rebuilt three ways: from scratch, and incrementally.
//
// Gate: the incremental rebuild after small churn must be at least
// YS_INC_MIN_SPEEDUP (default 5.0) times faster than the from-scratch
// rebuild, or the bench exits non-zero. Export YS_INC_K to change the
// topology size and YS_INC_CHURN_PCT for the device-churn percentage.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/tracker.hpp"

using namespace yardstick;

namespace {

using benchutil::env_f64;
using benchutil::env_int;

struct TimedRun {
  double seconds = 0.0;
  size_t match_hits = 0;
  size_t devices = 0;
};

TimedRun build_engine(const net::Network& network, const coverage::CoverageTrace& trace,
                      const std::string& cache_dir) {
  TimedRun result;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const coverage::CoverageTrace local = trace.imported_into(mgr);
  benchutil::Stopwatch watch;
  const ys::CoverageEngine engine(mgr, network, local,
                                  ys::EngineOptions{nullptr, 1, cache_dir});
  result.seconds = watch.seconds();
  if (const ys::CacheStats* stats = engine.cache_stats()) {
    result.match_hits = stats->match_hits;
    result.devices = stats->devices;
  }
  return result;
}

}  // namespace

int main() {
  const int k = env_int("YS_INC_K", 8);
  const double churn_pct = env_f64("YS_INC_CHURN_PCT", 5.0);
  const double floor = env_f64("YS_INC_MIN_SPEEDUP", 5.0);
  const std::string cache_dir = "/tmp/ys_bench_incremental";
  std::remove((cache_dir + "/coverage.cache").c_str());

  topo::FatTree tree = topo::make_fat_tree({.k = k});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);

  // Production-shaped tables: every device carries a 5-tuple ingress ACL
  // (port ranges + prefixes) on top of its FIB. ACL match fields are where
  // the offline phase spends its BDD budget — exactly the work a warm
  // cache avoids. YS_INC_ACL_RULES scales the per-device ACL size.
  const int acl_rules = env_int("YS_INC_ACL_RULES", 24);
  for (const net::Device& dev : tree.network.devices()) {
    for (int i = 0; i < acl_rules; ++i) {
      net::MatchSpec match;
      match.src_prefix = packet::Ipv4Prefix::parse(
          "10." + std::to_string((dev.id.value * 7 + i) % 200) + ".0.0/16");
      match.proto = i % 2 == 0 ? uint8_t{6} : uint8_t{17};
      match.src_port = net::PortRange{static_cast<uint16_t>(1024 + i * 137),
                                      static_cast<uint16_t>(1024 + i * 137 + 99)};
      match.dst_port = net::PortRange{static_cast<uint16_t>(2000 + i * 211),
                                      static_cast<uint16_t>(2000 + i * 211 + 499)};
      tree.network.add_rule(dev.id, match,
                            i % 3 == 0 ? net::Action::drop() : net::Action::permit(),
                            net::RouteKind::Other, static_cast<uint32_t>(i),
                            net::TableKind::Acl);
    }
  }
  std::printf("# bench_incremental (DESIGN.md §11), k=%d: %zu devices, %zu rules "
              "(%d-rule ACL per device)\n",
              k, tree.network.device_count(), tree.network.rule_count(), acl_rules);

  // The trace's packet sets live in this manager for the whole bench; each
  // engine run imports a structural copy into its own manager.
  bdd::BddManager trace_mgr(packet::kNumHeaderBits);
  coverage::CoverageTrace trace;
  {
    const dataplane::MatchSetIndex index(trace_mgr, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    nettest::TestSuite suite("bench");
    suite.add(std::make_unique<nettest::DefaultRouteCheck>());
    suite.add(std::make_unique<nettest::ToRContract>());
    suite.add(std::make_unique<nettest::ToRPingmesh>());
    (void)suite.run_all(transfer, tracker);
    trace = tracker.trace();
  }

  // Telemetry-shaped marks: YS_INC_FLOWS narrow five-tuple flows observed
  // at every device. The offline covered-sets phase intersects each rule
  // with the device's observed-header union, so a rich trace is what makes
  // from-scratch recomputation expensive — while the cached per-rule
  // covered sets (narrow flow slices) stay compact.
  const int flows = env_int("YS_INC_FLOWS", 512);
  for (const net::Device& dev : tree.network.devices()) {
    for (int i = 0; i < flows; ++i) {
      // Exact 5-tuples, the shape real telemetry samples take. Every flow
      // is a distinct BDD path, so the device's observed-header union has
      // no structure to collapse into — scratch recomputation walks it per
      // rule, while the cached intersections stay near-empty.
      const uint32_t d = dev.id.value;
      const packet::PacketSet flow =
          packet::PacketSet::src_prefix(
              trace_mgr, packet::Ipv4Prefix::parse(
                             "10." + std::to_string((d * 5 + i) % 200) + "." +
                             std::to_string(i % 256) + "." +
                             std::to_string((d + i * 13) % 256) + "/32"))
              .intersect(packet::PacketSet::dst_prefix(
                  trace_mgr, packet::Ipv4Prefix::parse(
                                 "10." + std::to_string((d * 11 + i * 3) % 200) +
                                 "." + std::to_string((i * 7) % 256) + "." +
                                 std::to_string((d * 3 + i) % 256) + "/32")))
              .intersect(packet::PacketSet::field_equals(
                  trace_mgr, packet::Field::Proto, i % 2 == 0 ? 6 : 17))
              .intersect(packet::PacketSet::field_equals(
                  trace_mgr, packet::Field::SrcPort, (1024 + i * 97) % 65536))
              .intersect(packet::PacketSet::field_equals(
                  trace_mgr, packet::Field::DstPort, (2000 + i * 53) % 65536));
      trace.mark_packet(net::device_location(dev.id), flow);
    }
  }

  const TimedRun scratch_cold = build_engine(tree.network, trace, "");
  std::printf("  scratch (no cache)            %8.3fs\n", scratch_cold.seconds);
  const TimedRun seed = build_engine(tree.network, trace, cache_dir);
  std::printf("  incremental, cold (seeds)     %8.3fs\n", seed.seconds);
  const TimedRun full_hit = build_engine(tree.network, trace, cache_dir);
  std::printf("  incremental, unchanged        %8.3fs  (%zu/%zu records reused)\n",
              full_hit.seconds, full_hit.match_hits, full_hit.devices);

  // Churn: one route edit on churn_pct% of the ToRs — the daily-operations
  // delta. Each edit invalidates exactly that device.
  size_t churned = 0;
  const size_t target =
      std::max<size_t>(1, static_cast<size_t>(tree.network.device_count() * churn_pct / 100.0));
  for (const net::DeviceId tor : tree.tors) {
    if (churned >= target) break;
    const auto fib = tree.network.table(tor);
    if (fib.empty()) continue;
    tree.network.mutable_rule(fib.front()).action = net::Action::drop();
    ++churned;
  }
  std::printf("  churn: FIB edit on %zu/%zu devices (%.1f%%)\n", churned,
              tree.network.device_count(),
              100.0 * static_cast<double>(churned) /
                  static_cast<double>(tree.network.device_count()));

  if (std::getenv("YS_INC_SPANS") != nullptr) obs::set_enabled(true);
  const TimedRun scratch_churn = build_engine(tree.network, trace, "");
  std::printf("  scratch after churn           %8.3fs\n", scratch_churn.seconds);
  const TimedRun inc_churn = build_engine(tree.network, trace, cache_dir);
  std::printf("  incremental after churn       %8.3fs  (%zu/%zu records reused)\n",
              inc_churn.seconds, inc_churn.match_hits, inc_churn.devices);

  if (std::getenv("YS_INC_SPANS") != nullptr) {
    // Per-span totals for the two churn-phase runs (enabled just before).
    std::unordered_map<std::string, uint64_t> by_name;
    for (const auto& ev : obs::Tracer::global().snapshot()) {
      by_name[ev.name] += ev.dur_us;
    }
    for (const auto& [name, us] : by_name) {
      std::printf("    span %-28s %8.3fms\n", name.c_str(),
                  static_cast<double>(us) / 1000.0);
    }
  }

  const double speedup = scratch_churn.seconds / inc_churn.seconds;
  std::printf("  speedup: %.1fx (floor %.1fx)\n", speedup, floor);
  if (std::getenv("YS_INC_KEEP") == nullptr) {
    std::remove((cache_dir + "/coverage.cache").c_str());
  }

  if (inc_churn.match_hits != inc_churn.devices - churned) {
    std::fprintf(stderr, "FAIL: expected %zu reused records, got %zu\n",
                 inc_churn.devices - churned, inc_churn.match_hits);
    return 1;
  }
  if (speedup < floor) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx below the %.2fx floor\n",
                 speedup, floor);
    return 1;
  }
  return 0;
}
