#include "yardstick/analysis.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/parallel.hpp"
#include "coverage/covered_sets.hpp"
#include "dataplane/match_sets.hpp"
#include "obs/trace.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {

namespace {

/// One isolated test evaluation against `index`: timed run, covered-set
/// build, reduction to a boolean row. Shared by the serial and the
/// per-worker parallel paths — the row only records set emptiness, so it
/// is identical whichever manager `index` lives in. Returns true when the
/// covered-set build was budget-truncated (the caller owns m.truncated;
/// workers write only their own i-th slots of seconds/covers).
[[nodiscard]] bool evaluate_test(const dataplane::MatchSetIndex& index,
                                 const dataplane::Transfer& transfer,
                                 const nettest::NetworkTest& test,
                                 const ResourceBudget* budget, unsigned build_threads,
                                 SuiteCoverageMatrix& m, size_t i) {
  CoverageTracker tracker;
  // Time the isolated run only: trace bookkeeping and the covered-set
  // build below are analysis overhead, not test cost.
  const auto test_start = ResourceBudget::Clock::now();
  (void)test.run(transfer, tracker);
  m.seconds[i] =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - test_start).count();
  const coverage::CoveredSets covered(index, tracker.trace(), budget, build_threads);
  std::vector<char> row(m.rule_count, 0);
  for (size_t r = 0; r < m.rule_count; ++r) {
    if (m.vacuous[r]) continue;
    // Covered sets are subsets of the disjoint match sets, so
    // non-emptiness is exactly the fraction measure's |T ∩ M| > 0.
    if (!covered.covered(net::RuleId{static_cast<uint32_t>(r)}).empty()) {
      row[r] = 1;
    }
  }
  m.covers[i] = std::move(row);
  return covered.truncated();
}

}  // namespace

size_t SuiteCoverageMatrix::covered_by(size_t i) const {
  const std::vector<char>& row = covers[i];
  size_t count = 0;
  for (const char c : row) count += (c != 0);
  return count;
}

SuiteCoverageMatrix build_suite_matrix(const dataplane::Transfer& transfer,
                                       const nettest::TestSuite& suite,
                                       const ResourceBudget* budget,
                                       unsigned threads) {
  const size_t n = suite.size();
  obs::Span span("analysis.suite_matrix", "analysis");
  span.arg("tests", n);
  span.arg("threads", threads);

  const dataplane::MatchSetIndex& index = transfer.index();
  const net::Network& network = index.network();

  SuiteCoverageMatrix m;
  m.rule_count = network.rule_count();
  m.truncated = index.truncated();
  m.names.resize(n);
  m.seconds.resize(n, 0.0);
  m.covers.resize(n);
  m.vacuous.assign(m.rule_count, 0);
  for (size_t r = 0; r < m.rule_count; ++r) {
    if (index.match_set(net::RuleId{static_cast<uint32_t>(r)}).empty()) {
      m.vacuous[r] = 1;
      ++m.vacuous_count;
    }
  }

  for (size_t i = 0; i < n; ++i) m.names[i] = suite.test(i).name();

  // An empty suite stays serial too: resolve_threads(t, 0) returns t.
  const unsigned workers = n == 0 ? 1 : resolve_threads(threads, n);
  if (workers <= 1) {
    try {
      for (size_t i = 0; i < n; ++i) {
        if (evaluate_test(index, transfer, suite.test(i), budget, threads, m, i)) {
          m.truncated = true;
        }
      }
    } catch (const StatusError& e) {
      // A budget tripping outside the degradable covered-set builds (e.g.
      // while running a test) leaves the rows computed so far; never-built
      // rows stay all-zero (coverage under-reported, flagged truncated).
      if (!is_resource_exhaustion(e.code())) throw;
      m.truncated = true;
    }
  } else {
    // Whole-test sharding: each worker owns a private manager, match-set
    // index and transfer, and pulls tests off a shared counter. Rows are
    // emptiness facts about canonical sets, so they do not depend on which
    // worker (or manager) computed them — the serial and parallel paths
    // agree bit for bit. A non-budget failure abandons that worker's
    // remaining tests (their rows backfill to zero below) and is rethrown
    // once every worker has joined.
    std::atomic<size_t> next{0};
    std::atomic<bool> truncated{false};
    run_workers(workers, [&](unsigned /*worker*/) {
      try {
        bdd::BddManager worker_mgr(packet::kNumHeaderBits);
        const dataplane::MatchSetIndex worker_index(worker_mgr, network, budget);
        const dataplane::Transfer worker_transfer(worker_index);
        if (worker_index.truncated()) truncated.store(true, std::memory_order_relaxed);
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          try {
            if (evaluate_test(worker_index, worker_transfer, suite.test(i), budget, 1,
                              m, i)) {
              truncated.store(true, std::memory_order_relaxed);
            }
          } catch (const StatusError& e) {
            if (!is_resource_exhaustion(e.code())) throw;
            truncated.store(true, std::memory_order_relaxed);
          }
        }
      } catch (const StatusError& e) {
        if (!is_resource_exhaustion(e.code())) throw;
        truncated.store(true, std::memory_order_relaxed);
      }
    });
    if (truncated.load(std::memory_order_relaxed)) m.truncated = true;
  }
  for (std::vector<char>& row : m.covers) {
    if (row.empty()) row.assign(m.rule_count, 0);
  }
  return m;
}

SuiteAnalysis SuiteAnalyzer::analyze(const dataplane::Transfer& transfer,
                                     const nettest::TestSuite& suite,
                                     double epsilon) const {
  const size_t n = suite.size();
  obs::Span span("analysis.analyze", "analysis");
  span.arg("tests", n);
  span.arg("threads", threads_);
  const auto analyze_start = ResourceBudget::Clock::now();
  SuiteAnalysis analysis;

  const SuiteCoverageMatrix m = build_suite_matrix(transfer, suite, budget_, threads_);
  analysis.truncated = m.truncated;
  analysis.tests.resize(n);

  // Per-rule cover multiplicity across the whole suite: leave-one-out
  // coverage for test i drops rule r exactly when cover_count[r] == 1 and
  // covers[i][r] is set.
  std::vector<uint32_t> cover_count(m.rule_count, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < m.rule_count; ++r) cover_count[r] += (m.covers[i][r] != 0);
  }
  size_t full_covered = 0;
  for (size_t r = 0; r < m.rule_count; ++r) full_covered += (cover_count[r] > 0);
  analysis.full = m.coverage_of(full_covered);

  for (size_t i = 0; i < n; ++i) {
    analysis.tests[i].name = m.names[i];
    analysis.tests[i].seconds = m.seconds[i];
    analysis.tests[i].solo = m.coverage_of(m.covered_by(i));
    size_t sole = 0;  // rules only test i covers
    for (size_t r = 0; r < m.rule_count; ++r) {
      sole += (m.covers[i][r] != 0 && cover_count[r] == 1);
    }
    const double rest = m.coverage_of(full_covered - sole);
    // Clamp at 0: under a tripped budget the leave-one-out run can cover
    // *more* than the degraded full-suite run, and a negative "value of
    // this test" is meaningless.
    analysis.tests[i].marginal = std::max(0.0, analysis.full - rest);
    analysis.tests[i].redundant = analysis.tests[i].marginal <= epsilon;
  }

  // Greedy maximum-marginal ordering (first index wins ties, matching the
  // pre-matrix implementation; the optimizer's by-name tie-break lives in
  // optimize.cpp).
  std::vector<bool> selected(n, false);
  std::vector<char> running(m.rule_count, 0);
  size_t running_covered = 0;
  double current = m.coverage_of(0);
  for (size_t step = 0; step < n; ++step) {
    double best_gain = -1.0;
    size_t best = 0;
    for (size_t i = 0; i < n; ++i) {
      if (selected[i]) continue;
      size_t added = 0;
      for (size_t r = 0; r < m.rule_count; ++r) {
        added += (m.covers[i][r] != 0 && running[r] == 0);
      }
      const double gain = m.coverage_of(running_covered + added) - current;
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    selected[best] = true;
    for (size_t r = 0; r < m.rule_count; ++r) {
      if (m.covers[best][r] != 0 && running[r] == 0) {
        running[r] = 1;
        ++running_covered;
      }
    }
    current += best_gain;
    analysis.greedy_order.push_back(best);
    analysis.greedy_cumulative.push_back(current);
  }

  analysis.analyze_seconds =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - analyze_start).count();
  return analysis;
}

std::string TestSuggestion::to_string(const net::Network& network) const {
  return "inject at " + network.device(device).name + ": " + sample.to_string() +
         " (exercises " + network.rule(rule).to_string() + ")";
}

std::vector<TestSuggestion> suggest_tests(const CoverageEngine& engine,
                                          size_t max_suggestions,
                                          const DeviceFilter& filter) {
  std::vector<TestSuggestion> out;
  const net::Network& network = engine.network();
  for (const net::RuleId rid : engine.untested_rules(filter)) {
    if (out.size() >= max_suggestions) break;
    const net::Rule& rule = network.rule(rid);
    // Sample from the space behavioral tests can actually reach: the
    // disjoint match set, clipped by the ACL stage for FIB rules.
    packet::PacketSet space = engine.match_sets().match_set(rid);
    if (rule.table == net::TableKind::Fib && network.has_acl(rule.device)) {
      space = space.intersect(engine.match_sets().acl_permitted_space(rule.device));
    }
    if (space.empty()) continue;  // only state inspection can cover it
    out.push_back({rid, rule.device, space.sample()});
  }
  return out;
}

}  // namespace yardstick::ys
