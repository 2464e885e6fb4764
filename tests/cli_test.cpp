// End-to-end tests of the yardstick CLI binary (spawned as a subprocess).
// Skipped gracefully when the binary is not where the build puts it.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "json_checker.hpp"

namespace {

const char* cli_path() {
  // ctest runs test binaries from build/tests; the CLI lives next door.
  static const std::array<const char*, 3> candidates{
      "../tools/yardstick", "build/tools/yardstick", "./tools/yardstick"};
  for (const char* path : candidates) {
    if (std::ifstream(path).good()) return path;
  }
  return nullptr;
}

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  CommandResult result;
  const std::string command = std::string(cli_path()) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

#define REQUIRE_CLI()                                             \
  if (cli_path() == nullptr) {                                    \
    GTEST_SKIP() << "yardstick CLI binary not found; run from the \
build tree";                                                      \
  }

TEST(CliTest, UsageOnBadArguments) {
  REQUIRE_CLI();
  EXPECT_EQ(run_cli("bogus").exit_code, 2);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_NE(run_cli("fattree --k").exit_code, 0);
  EXPECT_NE(run_cli("regional --suite").exit_code, 0);
}

TEST(CliTest, FatTreeSuitePasses) {
  REQUIRE_CLI();
  const CommandResult r = run_cli("fattree --k 4 --suite fattree");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ToRReachability"), std::string::npos);
  EXPECT_NE(r.output.find("coverage report"), std::string::npos);
  EXPECT_EQ(r.output.find("FAIL"), std::string::npos);
}

TEST(CliTest, JsonOutputIsWellFormedish) {
  REQUIRE_CLI();
  const CommandResult r = run_cli("fattree --k 4 --suite original --json");
  EXPECT_EQ(r.exit_code, 0);
  const size_t json_start = r.output.find('{');
  ASSERT_NE(json_start, std::string::npos);
  const std::string json = r.output.substr(json_start);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"tests\""), std::string::npos);
}

TEST(CliTest, TraceSaveAndLoadRoundTrip) {
  REQUIRE_CLI();
  const std::string trace = ::testing::TempDir() + "/cli_trace.txt";
  const CommandResult save =
      run_cli("fattree --k 4 --suite original --save-trace " + trace);
  EXPECT_EQ(save.exit_code, 0) << save.output;
  const CommandResult load = run_cli("fattree --k 4 --load-trace " + trace);
  EXPECT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("coverage report"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliTest, NetworkFileMode) {
  REQUIRE_CLI();
  const std::string net_file = ::testing::TempDir() + "/cli_net.txt";
  {
    std::ofstream out(net_file);
    out << "network v1\n"
        << "device wan role wan\n"
        << "device tor role tor\n"
        << "interface wan internet0 kind external\n"
        << "interface wan eth0\n"
        << "interface tor host0 kind host\n"
        << "interface tor eth0\n"
        << "link tor:eth0 wan:eth0 subnet 172.16.0.0/31\n"
        << "host-prefix tor 10.0.1.0/24\n";
  }
  const CommandResult r = run_cli("file " + net_file + " --suite original");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("devices=2"), std::string::npos);
  // A malformed network file maps to the invalid-input exit code.
  {
    std::ofstream out(net_file);
    out << "network v1\ndevice tor role sprocket\n";
  }
  const CommandResult malformed = run_cli("file " + net_file);
  EXPECT_EQ(malformed.exit_code, 3);
  EXPECT_NE(malformed.output.find("unknown role"), std::string::npos);
  std::remove(net_file.c_str());
  // Missing file is a clean I/O error exit, not a crash.
  const CommandResult missing = run_cli("file /nonexistent.net");
  EXPECT_EQ(missing.exit_code, 5);
  EXPECT_NE(missing.output.find("error"), std::string::npos);
}

TEST(CliTest, CorruptTraceMapsToItsExitCode) {
  REQUIRE_CLI();
  const std::string trace = ::testing::TempDir() + "/cli_corrupt.trace";
  {
    std::ofstream out(trace);
    out << "yardstick-trace v2\nnodes 0\nrules 0\nlocations 0\nchecksum feedfacefeedface\n";
  }
  const CommandResult r = run_cli("fattree --k 4 --load-trace " + trace);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("corrupt-trace"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliTest, BudgetFlagsProduceTruncatedPartialResults) {
  REQUIRE_CLI();
  // Offline phase (--load-trace) under a tiny node cap: metric computation
  // cannot stop the run — it degrades to a truncated report, exit 0.
  const std::string trace = ::testing::TempDir() + "/cli_budget.trace";
  ASSERT_EQ(run_cli("fattree --k 4 --suite original --save-trace " + trace).exit_code, 0);
  const CommandResult r =
      run_cli("fattree --k 4 --load-trace " + trace + " --max-bdd-nodes 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TRUNCATED"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("budget exhausted"), std::string::npos);
  // JSON output carries the machine-readable flag.
  const CommandResult js = run_cli("fattree --k 4 --load-trace " + trace +
                                   " --max-bdd-nodes 64 --json");
  EXPECT_EQ(js.exit_code, 0) << js.output;
  EXPECT_NE(js.output.find("\"truncated\":true"), std::string::npos) << js.output;
  std::remove(trace.c_str());
  // Bad budget values are usage errors.
  EXPECT_EQ(run_cli("fattree --deadline 0").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --max-bdd-nodes -3").exit_code, 2);
}

TEST(CliTest, BudgetTripInsideATestFoldDegradesTheAnalysis) {
  REQUIRE_CLI();
  // --analyze re-runs each test in isolation under the node cap. The cap
  // sits below the arena the first suite run left, so the first per-test
  // fold (or covered-set build) that needs a fresh node trips it: the
  // analysis comes back partial and the run still exits 0 with its report.
  const CommandResult r = run_cli(
      "fattree --k 4 --suite fattree --analyze --threads 1 --max-bdd-nodes 5000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("suite analysis is partial"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("suite analysis (fractional rule coverage"), std::string::npos);
  EXPECT_NE(r.output.find("coverage report"), std::string::npos);
}

TEST(CliTest, NumericFlagsRejectGarbageAndOutOfRangeValues) {
  REQUIRE_CLI();
  // Every numeric flag goes through a checked parser: non-numeric tokens,
  // trailing junk, and out-of-range values are usage errors (exit 2), not
  // silently-wrapped integers.
  EXPECT_EQ(run_cli("fattree --k banana").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 4x").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 0").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k -4").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 99999999999999999999").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --threads -1").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --paths 5x").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --paths nan").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --suggest 1.5").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --deadline abc").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --max-bdd-nodes 1e9").exit_code, 2);
  EXPECT_EQ(run_cli("serve --tcp 0").exit_code, 2);
  EXPECT_EQ(run_cli("serve --queue -1").exit_code, 2);
  // The original wrap bug: 70000 % 65536 = 4464 used to bind a wrong port.
  EXPECT_EQ(run_cli("serve --tcp 70000").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --tcp-port 70000").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --tcp-port 0").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --shard 3 2").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --batch-events 0").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --max-attempts 0").exit_code, 2);
}

TEST(CliTest, IncrementalCacheRoundTrip) {
  REQUIRE_CLI();
  const std::string dir = ::testing::TempDir() + "/cli_cache";
  const std::string cache = dir + "/coverage.cache";
  std::remove(cache.c_str());
  const std::string base = "fattree --k 4 --suite original --json --cache-dir " + dir;

  const CommandResult cold = run_cli(base);
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("cache: full rebuild"), std::string::npos) << cold.output;
  EXPECT_TRUE(std::ifstream(cache).good());

  const CommandResult warm = run_cli(base);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("records reused"), std::string::npos) << warm.output;
  EXPECT_NE(warm.output.find("0 device(s) invalidated"), std::string::npos)
      << warm.output;

  // The cache stats line goes to stderr; the JSON report on stdout must be
  // byte-identical between warm and cache-free runs (timings aside — they
  // are wall-clock measurements, keyed out by the CI normalizer too).
  const CommandResult scratch = run_cli("fattree --k 4 --suite original --json");
  const auto strip = [](const std::string& output) {
    // Keep only the JSON object; the human-readable lines differ.
    const size_t start = output.find('{');
    std::string json = output.substr(start == std::string::npos ? 0 : start);
    const size_t timings = json.find("\"timings\"");
    return timings == std::string::npos ? json : json.substr(0, timings);
  };
  EXPECT_EQ(strip(warm.output), strip(scratch.output));
  std::remove(cache.c_str());
}

TEST(CliTest, AnalyzeAndSuggestFlags) {
  REQUIRE_CLI();
  const CommandResult r =
      run_cli("fattree --k 4 --suite original --analyze --suggest 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("suite analysis"), std::string::npos);
  EXPECT_NE(r.output.find("suggested probes"), std::string::npos);
}

TEST(CliTest, RunModeRejectsOtherModesFlags) {
  REQUIRE_CLI();
  // Scenario and optimize flags used to be accepted and ignored here.
  for (const char* flag :
       {"--scenario-spec x.spec", "--random-links 2", "--seed 1", "--links-per-scenario 1",
        "--minimize", "--prioritize", "--gap-report", "--min-coverage 0.5"}) {
    EXPECT_EQ(run_cli(std::string("fattree --k 4 --suite original ") + flag).exit_code, 2)
        << flag;
  }
}

TEST(CliTest, ScenariosAndOptimizeRejectFlagsTheyDoNotRead) {
  REQUIRE_CLI();
  const std::string scenarios = "scenarios fattree --k 4 --suite fattree --random-links 1 ";
  const std::string optimize = "optimize fattree --k 4 --suite fattree --minimize ";
  for (const char* flag : {"--paths", "--paths 5", "--analyze", "--suggest 2",
                           "--save-trace x.trace", "--load-trace x.trace"}) {
    EXPECT_EQ(run_cli(scenarios + flag).exit_code, 2) << flag;
    EXPECT_EQ(run_cli(optimize + flag).exit_code, 2) << flag;
  }
  for (const char* flag : {"--minimize", "--prioritize", "--gap-report", "--min-coverage 0.5"}) {
    EXPECT_EQ(run_cli(scenarios + flag).exit_code, 2) << flag;
  }
  for (const char* flag :
       {"--scenario-spec x.spec", "--random-links 2", "--seed 1", "--links-per-scenario 1"}) {
    EXPECT_EQ(run_cli(optimize + flag).exit_code, 2) << flag;
  }
}

TEST(CliTest, ScenariosAndOptimizeWriteObservabilityArtifacts) {
  REQUIRE_CLI();
  const auto slurp = [](const std::string& path) {
    std::ostringstream text;
    text << std::ifstream(path).rdbuf();
    return text.str();
  };
  for (const char* mode : {"optimize fattree --k 4 --suite fattree --minimize",
                           "scenarios fattree --k 4 --suite fattree --random-links 1"}) {
    const std::string trace = ::testing::TempDir() + "/cli_obs_trace.json";
    const std::string metrics = ::testing::TempDir() + "/cli_obs_metrics.json";
    for (const std::string& path : {trace, metrics, metrics + ".prom"}) {
      std::remove(path.c_str());
    }
    const CommandResult r = run_cli(std::string(mode) + " --trace-out " + trace +
                                    " --metrics-out " + metrics);
    EXPECT_EQ(r.exit_code, 0) << mode << "\n" << r.output;
    const std::string timeline = slurp(trace);
    EXPECT_NE(timeline.find("\"traceEvents\""), std::string::npos) << mode;
    EXPECT_TRUE(yardstick::testutil::JsonChecker(timeline).well_formed()) << mode;
    EXPECT_TRUE(yardstick::testutil::JsonChecker(slurp(metrics)).well_formed()) << mode;
    EXPECT_TRUE(std::ifstream(metrics + ".prom").good()) << mode;
    for (const std::string& path : {trace, metrics, metrics + ".prom"}) {
      std::remove(path.c_str());
    }
  }
}

TEST(CliTest, FlagTableEdgeCases) {
  REQUIRE_CLI();
  // --paths takes its budget only when the next token is not a flag.
  const CommandResult bare = run_cli("fattree --k 4 --suite original --paths --json");
  EXPECT_EQ(bare.exit_code, 0) << bare.output;
  EXPECT_NE(bare.output.find("\"paths\":{"), std::string::npos) << bare.output;
  const CommandResult budgeted = run_cli("fattree --k 4 --suite original --paths 5");
  EXPECT_EQ(budgeted.exit_code, 0) << budgeted.output;
  EXPECT_NE(budgeted.output.find("path coverage:"), std::string::npos) << budgeted.output;
  // --shard takes two values; a missing second one is a usage error.
  EXPECT_EQ(run_cli("ingest fattree --socket /nonexistent.sock --shard 1").exit_code, 2);
  // Subcommands that need a source or a destination say so with exit 2.
  EXPECT_EQ(run_cli("ingest-replay").exit_code, 2);
  EXPECT_EQ(run_cli("ingest-replay --json").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --k 4 --suite fattree").exit_code, 2);
}

}  // namespace
