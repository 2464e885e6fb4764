// Network test framework — the "testing tool" side of Yardstick.
//
// Mirrors the taxonomy of Figure 2: tests either inspect forwarding state
// directly or analyze behavior; behavioral tests are local or end-to-end,
// concrete or symbolic. Every test reports coverage through the two
// tracker calls (markPacket / markRule) using information it already has
// (§5.1) — see instrument.hpp for the call sites.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataplane/transfer.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::nettest {

/// Where a test sits in the Figure 2 taxonomy.
enum class TestCategory : uint8_t {
  StateInspection,
  LocalConcrete,
  LocalSymbolic,
  EndToEndConcrete,
  EndToEndSymbolic,
};

[[nodiscard]] inline const char* to_string(TestCategory c) {
  switch (c) {
    case TestCategory::StateInspection: return "state-inspection";
    case TestCategory::LocalConcrete: return "local-concrete";
    case TestCategory::LocalSymbolic: return "local-symbolic";
    case TestCategory::EndToEndConcrete: return "end-to-end-concrete";
    case TestCategory::EndToEndSymbolic: return "end-to-end-symbolic";
  }
  return "?";
}

struct TestResult {
  std::string name;
  TestCategory category = TestCategory::StateInspection;
  size_t checks = 0;
  size_t failures = 0;
  /// First few failure descriptions (capped to keep results readable).
  std::vector<std::string> failure_messages;

  [[nodiscard]] bool passed() const { return failures == 0; }

  static constexpr size_t kMaxMessages = 16;
  void fail(std::string message) {
    ++failures;
    if (failure_messages.size() < kMaxMessages) {
      failure_messages.push_back(std::move(message));
    }
  }
};

/// Base class for all network tests. Tests are pure functions of the
/// forwarding-state snapshot; the tracker records what they exercised.
class NetworkTest {
 public:
  virtual ~NetworkTest() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual TestCategory category() const = 0;

  /// Run the test, then fold the tracker's pending marks into its trace, so
  /// tracking cost stays inside the test wherever the test is timed.
  [[nodiscard]] TestResult run(const dataplane::Transfer& transfer,
                               ys::CoverageTracker& tracker) const {
    TestResult result = execute(transfer, tracker);
    tracker.fold();
    return result;
  }

 protected:
  /// The test body: checks the snapshot and reports through `tracker`.
  [[nodiscard]] virtual TestResult execute(const dataplane::Transfer& transfer,
                                           ys::CoverageTracker& tracker) const = 0;

  [[nodiscard]] TestResult make_result() const {
    TestResult r;
    r.name = name();
    r.category = category();
    return r;
  }
};

/// An ordered collection of tests run against one snapshot.
class TestSuite {
 public:
  TestSuite() = default;
  explicit TestSuite(std::string name) : name_(std::move(name)) {}

  TestSuite& add(std::unique_ptr<NetworkTest> test) {
    tests_.push_back(std::move(test));
    return *this;
  }

  [[nodiscard]] std::vector<TestResult> run_all(const dataplane::Transfer& transfer,
                                                ys::CoverageTracker& tracker) const {
    std::vector<TestResult> results;
    results.reserve(tests_.size());
    for (const auto& test : tests_) results.push_back(test->run(transfer, tracker));
    return results;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] size_t size() const { return tests_.size(); }
  /// Access an individual test (for per-test contribution analysis).
  [[nodiscard]] const NetworkTest& test(size_t i) const { return *tests_[i]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<NetworkTest>> tests_;
};

}  // namespace yardstick::nettest
