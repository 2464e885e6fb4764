// Observability layer invariants (DESIGN.md §9):
//   * counters and histograms are exact under concurrent updates — sharded
//     workers may hammer the same handles,
//   * spans nest correctly in the recorded timeline (complete events nest
//     by [ts, ts+dur] containment, which is what the Chrome viewer draws),
//   * disabled mode allocates nothing — the switch is off by default in
//     production runs, so its cost must be a load-and-branch,
//   * both expositions (JSON, Prometheus text) are well-formed, because
//     dashboards and scrapers consume them unvalidated.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// --- Global allocation counting (for the disabled-mode zero-alloc test) ---
//
// Replacing the global operator new/delete pair counts every allocation in
// the process; the test reads the counter before and after the code under
// test. Counting is always on — it is two relaxed atomic ops per
// allocation, which does not perturb what the tests assert.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace yardstick::obs {
namespace {

/// Enables observability for one test and restores the default (off) and
/// a clean tracer/registry state on the way out, even on assertion failure.
class ScopedObservability {
 public:
  ScopedObservability() { set_enabled(true); }
  ~ScopedObservability() {
    Tracer::global().clear();
    metrics().reset_values();
    set_enabled(false);
  }
};

using testutil::JsonChecker;

TEST(ObsMetricsTest, CounterIsExactUnderConcurrentIncrements) {
  ScopedObservability on;
  Counter& counter = metrics().counter("ys.obs_test.concurrent_counter");
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(ObsMetricsTest, HistogramIsExactUnderConcurrentObserves) {
  ScopedObservability on;
  Histogram& hist =
      metrics().histogram("ys.obs_test.concurrent_histogram", {1.0, 10.0, 100.0});
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kObservesPerThread = 20'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hist] {
      for (uint64_t i = 0; i < kObservesPerThread; ++i) {
        hist.observe(5.0);   // lands in (1, 10]
        hist.observe(500.0); // lands in +Inf
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const uint64_t per_value = kThreads * kObservesPerThread;
  EXPECT_EQ(hist.count(), 2 * per_value);
  EXPECT_EQ(hist.bucket(0), 0u);          // (-inf, 1]
  EXPECT_EQ(hist.bucket(1), per_value);   // (1, 10]
  EXPECT_EQ(hist.bucket(2), 0u);          // (10, 100]
  EXPECT_EQ(hist.bucket(3), per_value);   // +Inf
  // The CAS-loop sum is exact for these integral observations.
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0 * per_value + 500.0 * per_value);
}

TEST(ObsMetricsTest, DisabledUpdatesAreDropped) {
  Counter& counter = metrics().counter("ys.obs_test.disabled_counter");
  Gauge& gauge = metrics().gauge("ys.obs_test.disabled_gauge");
  ASSERT_FALSE(enabled());
  counter.add(42);
  gauge.set(7.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(ObsMetricsTest, NameReuseAcrossTypesThrows) {
  (void)metrics().counter("ys.obs_test.typed_once");
  EXPECT_THROW((void)metrics().gauge("ys.obs_test.typed_once"), std::logic_error);
  (void)metrics().histogram("ys.obs_test.bounded_once", {1.0, 2.0});
  // Same name, same bounds: the existing histogram comes back.
  (void)metrics().histogram("ys.obs_test.bounded_once", {1.0, 2.0});
  EXPECT_THROW((void)metrics().histogram("ys.obs_test.bounded_once", {3.0}),
               std::logic_error);
}

TEST(ObsMetricsTest, ResetValuesKeepsHandlesValid) {
  ScopedObservability on;
  Counter& counter = metrics().counter("ys.obs_test.reset_counter");
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
  metrics().reset_values();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(1);  // the cached handle still works after reset
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsTracerTest, SpansNestAndSortParentFirst) {
  ScopedObservability on;
  {
    Span outer("obs_test.outer", "test");
    outer.arg("k", 4);
    {
      Span inner("obs_test.inner", "test");
    }
  }
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "obs_test.outer") == 0) outer = &e;
    if (std::strcmp(e.name, "obs_test.inner") == 0) inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  // Same thread, and the inner interval is contained in the outer one —
  // the containment the trace viewers use to draw nesting.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  // snapshot() orders parent before child even at equal timestamps.
  EXPECT_EQ(events[0].name, outer->name);

  ASSERT_EQ(outer->num_args, 1);
  EXPECT_STREQ(outer->args[0].key, "k");
  EXPECT_EQ(outer->args[0].value, 4u);
}

TEST(ObsTracerTest, EventsFromMultipleThreadsAllLand) {
  ScopedObservability on;
  constexpr unsigned kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("obs_test.worker_span", "test");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(Tracer::global().event_count(), kThreads * kSpansPerThread);
  EXPECT_EQ(Tracer::global().dropped_count(), 0u);
}

TEST(ObsTracerTest, DisabledModeAllocatesNothing) {
  // Warm the cold paths first: registration allocates by design, and the
  // calling thread's trace buffer is created on first enabled use.
  Counter& counter = metrics().counter("ys.obs_test.zero_alloc_counter");
  Gauge& gauge = metrics().gauge("ys.obs_test.zero_alloc_gauge");
  Histogram& hist = metrics().histogram("ys.obs_test.zero_alloc_histogram", {1.0, 2.0});
  ASSERT_FALSE(enabled());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    Span span("obs_test.disabled_span", "test");
    span.arg("i", static_cast<uint64_t>(i));
    counter.add();
    gauge.set(static_cast<double>(i));
    hist.observe(static_cast<double>(i));
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled-mode hot path must not allocate";
}

TEST(ObsExpositionTest, JsonIsWellFormedAndComplete) {
  ScopedObservability on;
  metrics().counter("ys.obs_test.json_counter", "a counter").add(3);
  metrics().gauge("ys.obs_test.json_gauge", "a gauge").set(1.5);
  Histogram& hist = metrics().histogram("ys.obs_test.json_histogram", {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  // Non-finite gauge values must serialize as 0 (repo-wide JSON contract).
  metrics().gauge("ys.obs_test.json_degraded_gauge")
      .set(std::numeric_limits<double>::quiet_NaN());

  const std::string json = metrics().to_json();
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_NE(json.find("\"ys.obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"ys.obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"ys.obs_test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos) << "only the quoted \"+Inf\" le label may "
                                                    "contain inf";
}

TEST(ObsExpositionTest, PrometheusFormatAndCumulativeBuckets) {
  ScopedObservability on;
  metrics().counter("ys.obs_test.prom_counter", "events seen").add(7);
  metrics().gauge("ys.obs_test.prom_gauge", "current level").set(2.5);
  Histogram& hist = metrics().histogram("ys.obs_test.prom_histogram", {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(50.0);

  const std::string text = metrics().to_prometheus();
  // Names map '.' → '_' and each series carries HELP/TYPE headers.
  EXPECT_NE(text.find("# HELP ys_obs_test_prom_counter events seen"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_histogram histogram"), std::string::npos);
  // Cumulative buckets: le="1" has 1 observation, le="10" has 2, +Inf all 3.
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_count 3"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_sum 55.5"), std::string::npos);
  // Every non-comment line is `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0]))) << line;
    // The series name (everything before the value) has every '.' mapped.
    EXPECT_EQ(line.substr(0, space).find('.'), std::string::npos)
        << "unmapped '.' in: " << line;
  }
}

}  // namespace
}  // namespace yardstick::obs
