// CoverageEngine — Yardstick's post-processing phase (§5.2).
//
// Given a network snapshot and the coverage trace collected online, the
// engine runs the three steps of §5.2:
//   1. compute disjoint rule match sets (MatchSetIndex),
//   2. compute covered sets T[r] (Algorithm 1),
//   3. compute the requested component and collection metrics via the
//      (G, µ, κ, α) framework.
//
// Metric computation is deliberately off the testing path: the engine can
// be constructed at any time after tests finish, and users can keep asking
// it new questions (different components, filters, aggregations) against
// the same trace.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "coverage/components.hpp"
#include "coverage/covered_sets.hpp"
#include "coverage/path_explorer.hpp"
#include "coverage/trace.hpp"
#include "dataplane/transfer.hpp"
#include "yardstick/cache.hpp"
#include "yardstick/report.hpp"

namespace yardstick::ys {

/// Restricts a metric to a subset of devices (§6: users can zoom in on,
/// say, only leaf routers). Null filter = every device.
using DeviceFilter = std::function<bool(const net::Device&)>;

/// Result of a path-universe sweep (Figure 9's most expensive metric).
struct PathCoverageResult {
  uint64_t total_paths = 0;
  uint64_t covered_paths = 0;  // paths with non-zero Equation-(3) coverage
  double fractional = 0.0;     // covered_paths / total_paths
  double mean = 0.0;           // unweighted mean of per-path coverage
  bool truncated = false;      // hit the max_paths / deadline / budget limit
  double seconds = 0.0;        // wall-clock (steady) cost of this sweep
};

/// Construction-time knobs for the engine's offline phase.
struct EngineOptions {
  /// Non-owning; may be null; must outlive the engine. See the engine
  /// constructor docs for degradation semantics.
  const ResourceBudget* budget = nullptr;
  /// Worker threads for the offline phase (match sets, covered sets and
  /// path-universe sweeps): 1 = serial, 0 = one per hardware thread.
  /// Unbounded results are bit-identical across thread counts — workers
  /// build in private BDD managers, results merge canonically into the
  /// engine's manager, and floating-point folds run in a fixed order.
  unsigned threads = 1;
  /// Directory for the incremental result cache (DESIGN.md §11). Empty =
  /// no cross-run caching. When set, construction loads cached per-device
  /// results whose content keys still match, recomputes only the
  /// invalidation frontier, and re-persists the cache afterwards — with
  /// output bit-identical to a from-scratch run. A missing/corrupt/
  /// mismatched cache silently degrades to a full rebuild.
  std::string cache_dir;
  /// Dead-fraction trigger in (0, 1] for phase-boundary mark-compact GC on
  /// the per-worker shard managers of steps 1-2 (0 = off). Enabling GC
  /// forces the sharded build path even at threads == 1; output stays
  /// bit-identical either way (GC only renumbers shard-private nodes; the
  /// merge canonicalizes). Deliberately NOT part of the incremental
  /// cache's options fingerprint for the same reason.
  double gc_threshold = 0.0;
};

class CoverageEngine {
 public:
  /// Runs steps 1 and 2 (match sets + covered sets) immediately; metric
  /// queries afterwards are step 3.
  ///
  /// `budget` (non-owning, may be null; must outlive the engine) bounds
  /// both construction and later queries. A tripped budget never escapes
  /// as an exception from the engine: construction completes with partial
  /// match/covered sets and truncated() == true, and metric queries return
  /// the values computed so far with their `truncated` flag set.
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const coverage::CoverageTrace& trace,
                 const ResourceBudget* budget = nullptr);

  /// Same, with the full option set (budget + worker threads).
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const coverage::CoverageTrace& trace, const EngineOptions& options);

  /// True when a resource budget degraded steps 1-2; all metrics are
  /// lower bounds in that case.
  [[nodiscard]] bool truncated() const {
    return index_.truncated() || covered_.truncated();
  }

  // --- Single-component metrics ---
  [[nodiscard]] double rule_coverage(net::RuleId id) const;
  [[nodiscard]] double device_coverage(net::DeviceId id) const;
  [[nodiscard]] double interface_coverage(
      net::InterfaceId id,
      coverage::InterfaceDirection direction = coverage::InterfaceDirection::Outgoing) const;
  [[nodiscard]] double flow_coverage(net::DeviceId device, net::InterfaceId in_interface,
                                     const packet::PacketSet& headers) const;

  // --- Collection metrics (Equation 2) ---
  [[nodiscard]] double rules_coverage(const coverage::Aggregator& aggregate,
                                      const DeviceFilter& filter = nullptr) const;
  [[nodiscard]] double devices_coverage(const coverage::Aggregator& aggregate,
                                        const DeviceFilter& filter = nullptr) const;
  [[nodiscard]] double interfaces_coverage(
      const coverage::Aggregator& aggregate, const DeviceFilter& filter = nullptr,
      coverage::InterfaceDirection direction = coverage::InterfaceDirection::Outgoing) const;

  /// Full path-universe sweep; expensive (§8.2). `options.max_paths`
  /// bounds the work; `deadline_seconds` stops the sweep after a wall-time
  /// budget (0 = none), reporting the result truncated.
  [[nodiscard]] PathCoverageResult path_coverage(coverage::PathExplorerOptions options = {},
                                                 double deadline_seconds = 0.0) const;

  // --- Reports ---

  /// The four headline metrics for an arbitrary device subset — the §3.1
  /// "what do our tests say about a particular pod?" query. Null filter =
  /// the whole network. Each rule the subset reads is measured once and
  /// all four numbers fold from that table (DESIGN.md §15).
  [[nodiscard]] MetricRow metrics(const DeviceFilter& filter = nullptr) const;

  /// The standard report: overall + per-role breakdown + gap analysis,
  /// every row folded from one measurement per rule.
  [[nodiscard]] CoverageReport report() const;

  /// Rules with zero coverage, optionally filtered (gap drill-down §7.2).
  [[nodiscard]] std::vector<net::RuleId> untested_rules(
      const DeviceFilter& filter = nullptr) const;

  /// Interfaces with zero outgoing coverage.
  [[nodiscard]] std::vector<net::InterfaceId> untested_interfaces(
      const DeviceFilter& filter = nullptr) const;

  // --- Internals exposed for tests, benches and advanced queries ---
  [[nodiscard]] const dataplane::MatchSetIndex& match_sets() const { return index_; }
  [[nodiscard]] const dataplane::Transfer& transfer() const { return transfer_; }
  [[nodiscard]] const coverage::CoveredSets& covered_sets() const { return covered_; }
  [[nodiscard]] const coverage::ComponentFactory& components() const { return factory_; }
  [[nodiscard]] const net::Network& network() const { return network_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  /// Wall-clock cost of steps 1 and 2, measured at construction (always,
  /// independent of the observability switch).
  [[nodiscard]] const PhaseTimings& timings() const { return timings_; }
  /// Incremental-cache statistics for this construction; null when
  /// EngineOptions::cache_dir was empty.
  [[nodiscard]] const CacheStats* cache_stats() const {
    return incremental_ ? &incremental_->stats() : nullptr;
  }

 private:
  [[nodiscard]] std::vector<net::DeviceId> filtered_devices(const DeviceFilter& filter) const;

  /// Step 3 measured once (DESIGN.md §15): µ for every rule a fold over
  /// some devices reads, and each of their device and outgoing-interface
  /// components derived from it.
  struct ComponentMeasures {
    std::vector<coverage::MeasureResult> rules;  // fraction measure, by RuleId
    std::vector<double> devices;                 // device coverage, by DeviceId
    std::vector<double> interfaces;              // outgoing coverage, by InterfaceId
    bool truncated = false;  // a budget tripped during the per-rule pass
  };
  [[nodiscard]] ComponentMeasures measure_components(
      const std::vector<net::DeviceId>& devices) const;
  /// The four headline metrics over `devices`, folded from `measures`.
  [[nodiscard]] MetricRow fold_row(const ComponentMeasures& measures,
                                   const std::vector<net::DeviceId>& devices) const;

  /// Init-list helpers: build step 1 / step 2 while timing them into
  /// `timings` (guaranteed copy elision constructs the member in place;
  /// the timing guard's destructor fires after construction completes).
  [[nodiscard]] static dataplane::MatchSetIndex timed_match_sets(
      bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options,
      PhaseTimings& timings, const IncrementalSession* incremental);
  [[nodiscard]] static coverage::CoveredSets timed_covered_sets(
      const dataplane::MatchSetIndex& index, const coverage::CoverageTrace& trace,
      const EngineOptions& options, PhaseTimings& timings,
      const IncrementalSession* incremental);
  /// Null when options.cache_dir is empty; never throws (cache failures
  /// degrade to a full rebuild, recorded in the session's stats).
  [[nodiscard]] static std::unique_ptr<IncrementalSession> make_incremental(
      bdd::BddManager& mgr, const net::Network& network,
      const coverage::CoverageTrace& trace, const EngineOptions& options);

  const net::Network& network_;
  const ResourceBudget* budget_;
  unsigned threads_;
  PhaseTimings timings_;  // declared before index_/covered_: written during their init
  // Declared before index_: its prefills feed index_'s and covered_'s
  // construction in the init list below.
  std::unique_ptr<IncrementalSession> incremental_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
  coverage::CoveredSets covered_;
  coverage::ComponentFactory factory_;
};

/// Convenience device filter: keep only devices of one role.
[[nodiscard]] inline DeviceFilter role_filter(net::Role role) {
  return [role](const net::Device& d) { return d.role == role; };
}

}  // namespace yardstick::ys
