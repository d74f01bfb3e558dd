// bench::run exit codes: every requested export must land on disk or fail
// the process loudly, and an audit violation keeps its own exit code. Every
// option is accepted in its valid form and a malformed or missing argument
// exits 2 with the usage text. And the serial-backend rule: flags whose
// reports model one global event stream write the serial report under
// --shards.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "net/network.hpp"
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

/// Every option in a valid form: nullptr for a switch, and a value that
/// starts with '@' names a file under the test's temp dir.
const std::pair<const char*, const char*> kEveryOption[] = {
    {"--list", nullptr},
    {"--case", "trivial"},
    {"--replicas", "2"},
    {"--seed", "7"},
    {"--jobs", "1"},
    {"--shards", "1"},
    {"--json", "@report.json"},
    {"--trace", "@trace.jsonl"},
    {"--trace-level", "debug"},
    {"--profile", nullptr},
    {"--heartbeat", "0.5"},
    {"--chrome-trace", "@chrome.json"},
    {"--span-tree", "@spans.txt"},
    {"--explain", "1"},
    {"--timeseries", "0.5"},
    {"--ts-csv", "@ts.csv"},
    {"--ts-json", "@ts.json"},
    {"--dashboard", "@ts.html"},
    {"--audit", nullptr},
    {"--audit-json", "@audit.json"},
    {"--scale-profile", nullptr},
    {"--scale-json", "@scale.json"},
    {"--scale-dashboard", "@scale.html"},
    {"--exec-profile", nullptr},
    {"--exec-json", "@exec.json"},
    {"--exec-trace", "@exec.trace.json"},
    {"--exec-dashboard", "@exec.html"},
    {"--mem-profile", nullptr},
    {"--mem-json", "@mem.json"},
    {"--mem-dashboard", "@mem.html"},
};

void trivial_case(Harness& h) {
  core::ScenarioSpec spec;
  spec.name = "trivial";
  spec.body = [](core::RunContext& ctx) { ctx.put("value", 1); };
  h.scenario(spec);
}

TEST(HarnessOptions, EveryOptionInAValidFormExitsZero) {
  ASSERT_EQ(std::size(kEveryOption), 30u);
  const fs::path dir = fs::temp_directory_path() / "tussle-harness-options";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, value] : kEveryOption) {
    std::vector<std::string> args{name};
    fs::path file;
    if (value != nullptr && value[0] == '@') file = dir / (value + 1);
    if (value != nullptr) args.push_back(file.empty() ? value : file.string());
    EXPECT_EQ(run_args(args, trivial_case), 0) << name;
    if (!file.empty()) {
      EXPECT_TRUE(fs::exists(file)) << name;
    }
  }
  fs::remove_all(dir);
}

TEST(HarnessOptions, EveryValueOptionGivenLastExitsTwo) {
  int value_options = 0;
  for (const auto& [name, value] : kEveryOption) {
    if (value == nullptr) continue;
    ++value_options;
    EXPECT_EQ(run_args({name}, trivial_case), 2) << name;
  }
  EXPECT_EQ(value_options, 24);
}

TEST(HarnessOptions, MalformedOrOutOfRangeArgumentsExitTwo) {
  const std::vector<std::vector<std::string>> bad = {
      // Malformed numbers: each of these once ran with a number never typed.
      {"--seed", "abc"}, {"--jobs", "2x"}, {"--replicas", "two"}, {"--shards", "x"},
      {"--explain", "flow"}, {"--heartbeat", "1s"}, {"--timeseries", "0.5s"},
      {"--seed", "-1"}, {"--replicas", "+2"}, {"--seed", ""}, {"--seed", "99999999999999999999"},
      {"--heartbeat", "inf"}, {"--timeseries", "nan"},
      // Out of range, or not one of the words.
      {"--jobs", "0"}, {"--replicas", "-1"}, {"--timeseries", "0"}, {"--heartbeat", "-2"},
      {"--trace-level", "loud"}, {"--no-such-option"}};
  for (const auto& args : bad) {
    EXPECT_EQ(run_args(args, trivial_case), 2) << args[0] << " " << args.back();
  }
}

TEST(HarnessOptions, UsageNamesEveryOption) {
  testing::internal::CaptureStderr();
  ASSERT_EQ(run_args({"--jobs", "2x"}, trivial_case), 2);
  const std::string usage = testing::internal::GetCapturedStderr();
  for (const auto& [name, value] : kEveryOption) {
    EXPECT_NE(usage.find(std::string(name) + (value ? " " : "\n")), std::string::npos) << name;
  }
}

/// One case: a two-AS link carrying three probes per run, instrumented the
/// way every bench body instruments its simulator.
void two_as_case(Harness& h) {
  core::ScenarioSpec spec;
  spec.name = "two-as";
  spec.replicas = 2;
  spec.body = [](core::RunContext& ctx) {
    sim::Simulator sim;
    ctx.instrument(sim);
    net::Network net(sim);
    const net::NodeId a = net.add_node(1);
    const net::NodeId b = net.add_node(2);
    net.connect(a, b, 1e7, sim::Duration::millis(1));
    const net::Address dst{.provider = 2, .subscriber = 1, .host = 1};
    net.node(b).add_address(dst);
    net.node(b).set_local_handler([](const net::Packet&) {});
    net.node(a).forwarding().set_default_route(0);
    for (int i = 0; i < 3; ++i) {
      sim.schedule_for(1, sim::Duration::millis(1 + i), sim::TaskTag{"test", "probe"},
                       [&net, a, dst] {
                         net::Packet p;
                         p.src = net::Address{.provider = 1, .subscriber = 1, .host = 1};
                         p.dst = dst;
                         net.node(a).originate(p);
                       });
    }
    ctx.add_events(sim.run());
  };
  h.scenario(spec);
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(HarnessShards, ScaleAndMemReportsUnderShardsAreTheSerialOnes) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path scale[2] = {dir / "tussle-harness-scale-0.json",
                             dir / "tussle-harness-scale-2.json"};
  const fs::path mem[2] = {dir / "tussle-harness-mem-0.json", dir / "tussle-harness-mem-2.json"};
  ASSERT_EQ(run_args({"--scale-json", scale[0].string(), "--mem-json", mem[0].string()},
                     two_as_case),
            0);
  ASSERT_EQ(run_args({"--shards", "2", "--scale-json", scale[1].string(), "--mem-json",
                      mem[1].string()},
                     two_as_case),
            0);
  EXPECT_NE(slurp(scale[0]).find("\"runs\":2,"), std::string::npos);
  EXPECT_EQ(slurp(scale[0]), slurp(scale[1]));
  EXPECT_EQ(slurp(mem[0]), slurp(mem[1]));
  for (const auto& p : {scale[0], scale[1], mem[0], mem[1]}) fs::remove(p);
}

}  // namespace
}  // namespace tussle::bench
