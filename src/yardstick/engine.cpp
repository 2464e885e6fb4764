#include "yardstick/engine.hpp"

#include <atomic>
#include <chrono>
#include <optional>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::ys {

using coverage::ComponentSpec;

namespace {

/// Attaches the budget to the manager before any member computation runs
/// (init-list ordering), so the node cap is enforced from the very first
/// match-set BDD operation.
const ResourceBudget* attach_budget(bdd::BddManager& mgr, const ResourceBudget* budget) {
  if (budget != nullptr) mgr.set_budget(budget);
  return budget;
}

/// Writes the elapsed steady-clock seconds into `out` on scope exit. In a
/// return statement, locals are destroyed *after* the returned object is
/// constructed, so a guard in a factory function times the construction.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& out) : out_(out), start_(ResourceBudget::Clock::now()) {}
  ~PhaseTimer() {
    out_ = std::chrono::duration<double>(ResourceBudget::Clock::now() - start_).count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& out_;
  ResourceBudget::Clock::time_point start_;
};

/// Samples the primary manager's engine statistics and the budget's
/// consumption into the metrics registry — called at phase boundaries so
/// the BDD hot path itself carries no instrumentation.
void sample_engine_gauges(const bdd::BddManager& mgr, const ResourceBudget* budget) {
  if (!obs::enabled()) return;
  obs::MetricsRegistry& reg = obs::metrics();
  const bdd::BddManager::Stats stats = mgr.stats();
  reg.gauge("ys.bdd.arena_nodes", "nodes in the primary BDD arena")
      .set(static_cast<double>(stats.arena_nodes));
  reg.gauge("ys.bdd.cache_hit_rate", "apply-cache hit fraction [0,1]")
      .set(stats.cache_hit_rate());
  reg.gauge("ys.bdd.cache_hits", "apply-cache hits on the primary manager")
      .set(static_cast<double>(stats.cache_hits));
  reg.gauge("ys.bdd.cache_misses", "apply-cache misses on the primary manager")
      .set(static_cast<double>(stats.cache_misses));
  reg.gauge("ys.bdd.unique_table_growths", "unique-table rehash events")
      .set(static_cast<double>(stats.unique_table_growths));
  reg.gauge("ys.bdd.op_cache_entries", "adaptive apply-cache capacity (entries)")
      .set(static_cast<double>(stats.op_cache_entries));
  reg.gauge("ys.bdd.op_cache_growths", "adaptive apply-cache resize events")
      .set(static_cast<double>(stats.op_cache_growths));
  reg.gauge("ys.bdd.neg_cache_hits", "complement-memo hits on the primary manager")
      .set(static_cast<double>(stats.neg_cache_hits));
  reg.gauge("ys.bdd.neg_cache_misses", "complement-memo misses on the primary manager")
      .set(static_cast<double>(stats.neg_cache_misses));
  if (budget != nullptr) {
    reg.gauge("ys.budget.used_bdd_nodes", "nodes charged against the shared budget")
        .set(static_cast<double>(budget->used_bdd_nodes()));
    reg.gauge("ys.budget.peak_bdd_nodes",
              "high-water mark of concurrent node charge across all managers")
        .set(static_cast<double>(budget->peak_bdd_nodes()));
    reg.gauge("ys.budget.max_bdd_nodes", "node cap (0 = unlimited)")
        .set(static_cast<double>(budget->max_bdd_nodes()));
    reg.gauge("ys.budget.exhausted", "1 when deadline/cancel tripped")
        .set(budget->exhausted() ? 1.0 : 0.0);
  }
}

}  // namespace

dataplane::MatchSetIndex CoverageEngine::timed_match_sets(
    bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options,
    PhaseTimings& timings, const IncrementalSession* incremental) {
  PhaseTimer timer(timings.match_sets_seconds);
  return dataplane::MatchSetIndex(mgr, network, options.budget, options.threads,
                                  incremental != nullptr ? incremental->match_prefill()
                                                         : nullptr,
                                  options.gc_threshold);
}

coverage::CoveredSets CoverageEngine::timed_covered_sets(
    const dataplane::MatchSetIndex& index, const coverage::CoverageTrace& trace,
    const EngineOptions& options, PhaseTimings& timings,
    const IncrementalSession* incremental) {
  PhaseTimer timer(timings.covered_sets_seconds);
  return coverage::CoveredSets(index, trace, options.budget, options.threads,
                               incremental != nullptr ? incremental->cover_prefill()
                                                      : nullptr,
                               options.gc_threshold);
}

std::unique_ptr<IncrementalSession> CoverageEngine::make_incremental(
    bdd::BddManager& mgr, const net::Network& network,
    const coverage::CoverageTrace& trace, const EngineOptions& options) {
  if (options.cache_dir.empty()) return nullptr;
  const uint64_t fingerprint = options_fingerprint(
      options.threads, options.budget != nullptr ? options.budget->max_bdd_nodes() : 0,
      options.budget != nullptr && options.budget->has_deadline());
  return std::make_unique<IncrementalSession>(mgr, network, trace, options.cache_dir,
                                              fingerprint);
}

CoverageEngine::CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                               const coverage::CoverageTrace& trace,
                               const ResourceBudget* budget)
    : CoverageEngine(mgr, network, trace, EngineOptions{budget, 1}) {}

CoverageEngine::CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                               const coverage::CoverageTrace& trace,
                               const EngineOptions& options)
    : network_(network),
      budget_(attach_budget(mgr, options.budget)),
      threads_(options.threads),
      incremental_(make_incremental(mgr, network, trace, options)),
      index_(timed_match_sets(mgr, network, options, timings_, incremental_.get())),
      transfer_(index_),
      covered_(timed_covered_sets(index_, trace, options, timings_, incremental_.get())),
      factory_(transfer_) {
  if (incremental_) {
    incremental_->save(index_, covered_);
    if (obs::enabled()) {
      const CacheStats& cs = incremental_->stats();
      obs::MetricsRegistry& reg = obs::metrics();
      reg.counter("ys.cache.hits", "incremental cache: per-device records reused")
          .add(cs.match_hits + cs.cover_hits);
      reg.counter("ys.cache.misses", "incremental cache: per-device records recomputed")
          .add(cs.match_misses() + cs.cover_misses());
      reg.counter("ys.cache.invalidations",
                  "incremental cache: devices on the invalidation frontier")
          .add(cs.invalidated);
      reg.counter("ys.cache.saves", "incremental cache: files committed")
          .add(cs.saved ? 1 : 0);
    }
  }
  // Offline phase (steps 1-2) just finished: snapshot the primary
  // manager's state and the budget consumption into the registry.
  sample_engine_gauges(mgr, budget_);
}

double CoverageEngine::rule_coverage(net::RuleId id) const {
  return coverage::component_coverage(covered_, factory_.rule(id));
}

double CoverageEngine::device_coverage(net::DeviceId id) const {
  return coverage::component_coverage(covered_, factory_.device(id));
}

double CoverageEngine::interface_coverage(net::InterfaceId id,
                                          coverage::InterfaceDirection direction) const {
  return coverage::component_coverage(covered_, factory_.interface(id, direction));
}

double CoverageEngine::flow_coverage(net::DeviceId device, net::InterfaceId in_interface,
                                     const packet::PacketSet& headers) const {
  return coverage::component_coverage(covered_,
                                      factory_.flow(device, in_interface, headers));
}

std::vector<net::DeviceId> CoverageEngine::filtered_devices(
    const DeviceFilter& filter) const {
  std::vector<net::DeviceId> out;
  for (const net::Device& d : network_.devices()) {
    if (!filter || filter(d)) out.push_back(d.id);
  }
  return out;
}

double CoverageEngine::rules_coverage(const coverage::Aggregator& aggregate,
                                      const DeviceFilter& filter) const {
  return coverage::collection_coverage(covered_, factory_.all_rules(filtered_devices(filter)),
                                       aggregate);
}

double CoverageEngine::devices_coverage(const coverage::Aggregator& aggregate,
                                        const DeviceFilter& filter) const {
  return coverage::collection_coverage(
      covered_, factory_.all_devices(filtered_devices(filter)), aggregate);
}

double CoverageEngine::interfaces_coverage(const coverage::Aggregator& aggregate,
                                           const DeviceFilter& filter,
                                           coverage::InterfaceDirection direction) const {
  return coverage::collection_coverage(
      covered_, factory_.all_interfaces(filtered_devices(filter), direction), aggregate);
}

namespace {

/// Partial sweep results for one ingress port. Serial and parallel runs
/// both compute per-ingress partials with identical arithmetic and fold
/// them in ingress order, so the final counts/ratios are bit-identical
/// regardless of thread count.
struct IngressSweep {
  uint64_t total_paths = 0;
  uint64_t covered_paths = 0;
  double ratio_sum = 0.0;
  bool truncated = false;
};

/// Run the streamed DFS for one ingress port. `emitted_total` is the
/// sweep-global path counter enforcing options.max_paths across every
/// ingress (and every worker); the per-explorer cap is disabled.
IngressSweep sweep_ingress(const dataplane::Transfer& transfer,
                           const coverage::CoveredSets& covered,
                           const coverage::PathExplorerOptions& options,
                           const net::Interface& intf,
                           std::atomic<uint64_t>& emitted_total) {
  IngressSweep sweep;
  coverage::PathExplorerOptions local = options;
  local.max_paths = 0;  // the global cap below governs, not the per-DFS one
  const coverage::PathExplorer explorer(transfer, &covered, local);
  const packet::PacketSet all =
      packet::PacketSet::all(transfer.index().manager());
  try {
    explorer.explore(intf.device, intf.id, all, [&](const coverage::ExploredPath& path) {
      ++sweep.total_paths;
      if (path.covered_ratio > 0.0) ++sweep.covered_paths;
      sweep.ratio_sum += path.covered_ratio;
      // The explorer marks paths it had to cut short when the cooperative
      // budget or the deadline tripped mid-DFS.
      if (path.end == coverage::PathEnd::BudgetExceeded) sweep.truncated = true;
      const uint64_t emitted = emitted_total.fetch_add(1, std::memory_order_relaxed) + 1;
      return options.max_paths == 0 || emitted < options.max_paths;
    });
  } catch (const StatusError& e) {
    // The BDD node cap throws from inside set operations; everything
    // emitted so far is a valid partial sweep.
    if (!is_resource_exhaustion(e.code())) throw;
    sweep.truncated = true;
  }
  return sweep;
}

}  // namespace

PathCoverageResult CoverageEngine::path_coverage(coverage::PathExplorerOptions options,
                                                 double deadline_seconds) const {
  obs::Span sweep_span("path_coverage.sweep", "offline");
  const auto sweep_start = ResourceBudget::Clock::now();
  PathCoverageResult result;
  result.truncated = truncated();  // steps 1-2 already degraded: Eq. 3 inputs partial
  if (options.budget == nullptr) options.budget = budget_;
  if (deadline_seconds > 0.0) {
    const auto limit = ResourceBudget::Clock::now() +
                       std::chrono::duration_cast<ResourceBudget::Clock::duration>(
                           std::chrono::duration<double>(deadline_seconds));
    if (!options.has_deadline || limit < options.deadline) options.deadline = limit;
    options.has_deadline = true;
  }

  // The sweep frontier: every edge ingress port, in network interface
  // order (the fold order that fixes the floating-point sums).
  std::vector<const net::Interface*> frontier;
  for (const net::Interface& intf : network_.interfaces()) {
    if (intf.kind == net::PortKind::HostPort || intf.kind == net::PortKind::ExternalPort) {
      frontier.push_back(&intf);
    }
  }

  const unsigned workers = ys::resolve_threads(threads_, frontier.size());
  std::vector<IngressSweep> sweeps(frontier.size());
  std::atomic<uint64_t> emitted_total{0};
  std::atomic<bool> stopped_early{false};
  const auto out_of_time = [&options] {
    return (options.budget != nullptr && options.budget->exhausted()) ||
           (options.has_deadline &&
            ResourceBudget::Clock::now() >= options.deadline);
  };
  const auto out_of_paths = [&options, &emitted_total] {
    return options.max_paths != 0 &&
           emitted_total.load(std::memory_order_relaxed) >= options.max_paths;
  };

  if (workers <= 1) {
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (out_of_time() || out_of_paths()) {
        stopped_early.store(true, std::memory_order_relaxed);
        break;
      }
      sweeps[i] = sweep_ingress(transfer_, covered_, options, *frontier[i], emitted_total);
    }
  } else {
    // Parallel sweep: workers clone the offline-phase products into private
    // managers (read-only imports from the quiescent primary) and drain a
    // shared ingress cursor; partials land in per-ingress slots.
    std::atomic<size_t> cursor{0};
    std::atomic<bool> clone_failed{false};
    ys::run_workers(workers, [&](unsigned /*worker*/) {
      bdd::BddManager local_mgr(index_.manager().num_vars());
      const bdd::ScopedBudget attach(local_mgr, options.budget);
      std::optional<dataplane::MatchSetIndex> local_index;
      std::optional<dataplane::Transfer> local_transfer;
      std::optional<coverage::CoveredSets> local_covered;
      try {
        local_index.emplace(local_mgr, index_);
        local_transfer.emplace(*local_index);
        local_covered.emplace(*local_index, covered_);
      } catch (const StatusError& e) {
        // A budget too tight to even clone the inputs: this worker
        // contributes nothing and the sweep reports truncated.
        if (!is_resource_exhaustion(e.code())) throw;
        clone_failed.store(true, std::memory_order_relaxed);
        return;
      }
      uint64_t drained = 0;
      while (true) {
        if (out_of_time() || out_of_paths()) {
          stopped_early.store(true, std::memory_order_relaxed);
          break;
        }
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size()) break;
        sweeps[i] =
            sweep_ingress(*local_transfer, *local_covered, options, *frontier[i],
                          emitted_total);
        ++drained;
      }
      // Queue-occupancy signal: how evenly did workers drain the ingress
      // cursor? A skewed histogram means one giant ingress dominated.
      if (obs::enabled()) ys::worker_items_histogram().observe(static_cast<double>(drained));
    });
    if (clone_failed.load(std::memory_order_relaxed)) result.truncated = true;
  }

  // Deterministic fold in ingress order.
  for (const IngressSweep& s : sweeps) {
    result.total_paths += s.total_paths;
    result.covered_paths += s.covered_paths;
    result.mean += s.ratio_sum;
    result.truncated = result.truncated || s.truncated;
  }
  if (stopped_early.load(std::memory_order_relaxed)) result.truncated = true;
  if (options.max_paths != 0 && result.total_paths >= options.max_paths) {
    result.truncated = true;
  }
  // A budget that tripped between paths (or before the first ingress) makes
  // the sweep stop silently; the result is still partial.
  if (options.budget != nullptr && options.budget->exhausted()) result.truncated = true;
  if (result.total_paths > 0) {
    result.fractional = static_cast<double>(result.covered_paths) /
                        static_cast<double>(result.total_paths);
    result.mean /= static_cast<double>(result.total_paths);
  }
  result.seconds =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - sweep_start).count();
  sweep_span.arg("total_paths", result.total_paths);
  sweep_span.arg("covered_paths", result.covered_paths);
  sweep_span.arg("workers", workers);
  sweep_span.arg("truncated", result.truncated ? 1 : 0);
  sample_engine_gauges(index_.manager(), options.budget);
  return result;
}

std::vector<net::RuleId> CoverageEngine::untested_rules(const DeviceFilter& filter) const {
  std::vector<net::RuleId> out;
  for (const net::Device& dev : network_.devices()) {
    if (filter && !filter(dev)) continue;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network_.table(dev.id, table)) {
        if (index_.match_set(rid).empty()) continue;  // shadowed: vacuous
        if (covered_.covered(rid).empty()) out.push_back(rid);
      }
    }
  }
  return out;
}

std::vector<net::InterfaceId> CoverageEngine::untested_interfaces(
    const DeviceFilter& filter) const {
  std::vector<net::InterfaceId> out;
  for (const net::Device& dev : network_.devices()) {
    if (filter && !filter(dev)) continue;
    for (const net::InterfaceId intf : dev.interfaces) {
      if (interface_coverage(intf) == 0.0) out.push_back(intf);
    }
  }
  return out;
}

namespace {

/// Calls `fn` on each rule of the device: ACL, then FIB — the order the
/// device and rule collections list them in.
template <typename Fn>
void for_each_rule(const net::Network& network, net::DeviceId id, Fn&& fn) {
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : network.table(id, table)) fn(rid);
  }
}

}  // namespace

CoverageEngine::ComponentMeasures CoverageEngine::measure_components(
    const std::vector<net::DeviceId>& devices) const {
  ComponentMeasures out;
  // The rules the folds read: each device's tables and the rules
  // forwarding out of its interfaces.
  std::vector<char> wanted(network_.rules().size(), 0);
  for (const net::DeviceId id : devices) {
    for_each_rule(network_, id, [&](net::RuleId rid) { wanted[rid.value] = 1; });
    for (const net::InterfaceId intf : network_.device(id).interfaces) {
      for (const net::RuleId rid : factory_.rules_to(intf)) wanted[rid.value] = 1;
    }
  }

  // µ = fraction_measure(), once per rule: |T[r] ∩ M[r]| / |M[r]|, and
  // {1, 0} for an empty match set. A budget tripping mid-pass leaves the
  // rules not yet measured at value 0 (counting never allocates, so their
  // weights stay exact) and flags every row folded from the table.
  out.rules.resize(wanted.size());
  for (const net::Rule& rule : network_.rules()) {
    if (!wanted[rule.id.value]) continue;
    const packet::PacketSet& match = index_.match_set(rule.id);
    const bdd::Uint128 total = match.count();
    coverage::MeasureResult& m = out.rules[rule.id.value];
    if (total == 0) {
      m = {1.0, 0};
      continue;
    }
    m = {0.0, total};
    if (out.truncated) continue;
    try {
      m.value = bdd::ratio(covered_.covered(rule.id).intersect(match).count(), total);
    } catch (const StatusError& e) {
      if (!is_resource_exhaustion(e.code())) throw;
      out.truncated = true;
    }
  }

  // Equation 1 per component, with the combinator the factory's device
  // and interface specs carry, over their strings in the same order.
  const coverage::Combinator weighted_mean = coverage::weighted_mean_combinator();
  std::vector<coverage::MeasureResult> strings;
  out.devices.resize(network_.device_count());
  out.interfaces.resize(network_.interface_count());
  for (const net::DeviceId id : devices) {
    strings.clear();
    for_each_rule(network_, id, [&](net::RuleId rid) { strings.push_back(out.rules[rid.value]); });
    out.devices[id.value] = weighted_mean(strings);
    for (const net::InterfaceId intf : network_.device(id).interfaces) {
      strings.clear();
      for (const net::RuleId rid : factory_.rules_to(intf)) strings.push_back(out.rules[rid.value]);
      out.interfaces[intf.value] = weighted_mean(strings);
    }
  }
  return out;
}

MetricRow CoverageEngine::fold_row(const ComponentMeasures& measures,
                                   const std::vector<net::DeviceId>& devices) const {
  // Equation 2 with the collection API's aggregators, over components in
  // the order its collections list them. Device and interface weights stay
  // 0: only the weighted rule aggregate reads weights.
  std::vector<coverage::ComponentCoverage> device;
  std::vector<coverage::ComponentCoverage> interface;
  std::vector<coverage::ComponentCoverage> rule;
  for (const net::DeviceId id : devices) {
    device.push_back({measures.devices[id.value], 0});
    for (const net::InterfaceId intf : network_.device(id).interfaces) {
      interface.push_back({measures.interfaces[intf.value], 0});
    }
    for_each_rule(network_, id, [&](net::RuleId rid) {
      rule.push_back({measures.rules[rid.value].value, measures.rules[rid.value].weight});
    });
  }
  const coverage::Aggregator fractional = coverage::fractional_aggregator();
  MetricRow row;
  row.device_fractional = fractional(device);
  row.interface_fractional = fractional(interface);
  row.rule_fractional = fractional(rule);
  row.rule_weighted = coverage::weighted_average_aggregator()(rule);
  row.truncated = truncated() || measures.truncated;
  return row;
}

MetricRow CoverageEngine::metrics(const DeviceFilter& filter) const {
  const std::vector<net::DeviceId> devices = filtered_devices(filter);
  return fold_row(measure_components(devices), devices);
}

CoverageReport CoverageEngine::report() const {
  obs::Span span("analysis.report", "report");
  CoverageReport report;
  report.timings = timings_;
  const std::vector<net::DeviceId> all = filtered_devices(nullptr);
  const ComponentMeasures measures = measure_components(all);
  report.overall = fold_row(measures, all);
  report.truncated = report.overall.truncated;

  // Per-role breakdown in declaration (hierarchy) order, only for roles
  // that exist.
  for (uint8_t r = 0; r <= static_cast<uint8_t>(net::Role::Other); ++r) {
    const auto role = static_cast<net::Role>(r);
    const std::vector<net::DeviceId> members = network_.devices_with_role(role);
    if (members.empty()) continue;
    RoleBreakdown row;
    row.role = role;
    row.device_count = members.size();
    for (const net::DeviceId id : members) {
      row.interface_count += network_.device(id).interfaces.size();
      row.rule_count += network_.table(id, net::TableKind::Acl).size() +
                        network_.table(id, net::TableKind::Fib).size();
    }
    row.metrics = fold_row(measures, members);
    report.by_role.push_back(row);
  }

  // Gap analysis: untested rules grouped by provenance (§7.2).
  std::map<net::RouteKind, RuleGap> gaps;
  for (const net::Rule& rule : network_.rules()) {
    if (index_.match_set(rule.id).empty()) continue;
    RuleGap& gap = gaps[rule.kind];
    gap.kind = rule.kind;
    ++gap.total;
    if (covered_.covered(rule.id).empty()) ++gap.untested;
  }
  for (const auto& [kind, gap] : gaps) report.gaps.push_back(gap);

  for (const net::Device& dev : network_.devices()) {
    if (measures.devices[dev.id.value] == 0.0) ++report.untested_device_count;
    for (const net::InterfaceId intf : dev.interfaces) {
      if (measures.interfaces[intf.value] == 0.0) ++report.untested_interface_count;
    }
  }
  return report;
}

}  // namespace yardstick::ys
