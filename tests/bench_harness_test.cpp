// bench::run exit codes: every requested export must land on disk or fail
// the process loudly, and an audit violation keeps its own exit code.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/shard_audit.hpp"

namespace tussle::bench {
namespace {

namespace fs = std::filesystem;

const Experiment kExp{"T0", "harness test", "exports fail loudly"};

int run_args(std::vector<std::string> args, const std::function<void(Harness&)>& body) {
  args.insert(args.begin(), "bench_harness_test");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return run(static_cast<int>(argv.size()), argv.data(), kExp, body);
}

void no_cases(Harness&) {}

TEST(HarnessExit, UnwritableJsonPathExitsTwo) {
  const fs::path missing = fs::temp_directory_path() / "tussle-harness-no-such-dir";
  fs::remove_all(missing);
  EXPECT_EQ(run_args({"--json", (missing / "x.json").string()}, no_cases), 2);
  EXPECT_EQ(run_args({"--scale-json", (missing / "x.json").string()}, no_cases), 2);
}

TEST(HarnessExit, WritableJsonPathExitsZeroAndWritesTheReport) {
  const fs::path out = fs::temp_directory_path() / "tussle-harness-test.json";
  fs::remove(out);
  EXPECT_EQ(run_args({"--json", out.string()}, no_cases), 0);
  EXPECT_TRUE(fs::exists(out));
  EXPECT_GT(fs::file_size(out), 0u);
  fs::remove(out);
}

TEST(HarnessExit, AuditViolationExitsOne) {
  EXPECT_EQ(run_args({}, [](Harness&) { throw sim::ShardViolation("violation", {}); }), 1);
}

}  // namespace
}  // namespace tussle::bench
