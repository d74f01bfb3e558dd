// ParallelOptions: the flag > environment > default ladder shared by every
// experiment binary, and the jobs-x-shards composition rules the harness
// relies on (--shards drops auto --jobs to 1; serial sinks force 1; trace/
// span instrumentation blocks sharding while heartbeats do not).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parallel_options.hpp"

namespace tussle::bench {
namespace {

constexpr const char* kVars[] = {"TUSSLE_SEED", "TUSSLE_JOBS",
                                 "TUSSLE_REPLICAS", "TUSSLE_SHARDS"};

/// Clears the TUSSLE_* knobs for one test and restores them after, so the
/// suite does not leak configuration between tests (or into the caller's
/// shell view of reality, when ctest exports any of them).
class EnvGuard {
 public:
  EnvGuard() {
    for (const char* v : kVars) {
      const char* cur = std::getenv(v);
      saved_.emplace_back(v, cur != nullptr ? std::optional<std::string>(cur)
                                            : std::nullopt);
      ::unsetenv(v);
    }
  }
  ~EnvGuard() {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(ParallelOptions, DefaultsWhenNothingConfigured) {
  EnvGuard guard;
  const ParallelOptions o =
      ParallelOptions::resolve(std::nullopt, std::nullopt, std::nullopt, std::nullopt);
  EXPECT_EQ(o.seed, 1u);
  EXPECT_EQ(o.jobs, 0u);      // auto
  EXPECT_EQ(o.replicas, 0u);  // keep each spec's count
  EXPECT_EQ(o.shards, 0u);    // serial backend
}

TEST(ParallelOptions, EnvironmentBeatsDefault) {
  EnvGuard guard;
  ::setenv("TUSSLE_SEED", "77", 1);
  ::setenv("TUSSLE_JOBS", "3", 1);
  ::setenv("TUSSLE_REPLICAS", "5", 1);
  ::setenv("TUSSLE_SHARDS", "8", 1);
  const ParallelOptions o =
      ParallelOptions::resolve(std::nullopt, std::nullopt, std::nullopt, std::nullopt);
  EXPECT_EQ(o.seed, 77u);
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_EQ(o.replicas, 5u);
  EXPECT_EQ(o.shards, 8u);
}

TEST(ParallelOptions, FlagBeatsEnvironment) {
  EnvGuard guard;
  ::setenv("TUSSLE_SEED", "77", 1);
  ::setenv("TUSSLE_JOBS", "3", 1);
  ::setenv("TUSSLE_REPLICAS", "5", 1);
  ::setenv("TUSSLE_SHARDS", "8", 1);
  const ParallelOptions o = ParallelOptions::resolve(2u, 4u, 6u, 2u);
  EXPECT_EQ(o.seed, 2u);
  EXPECT_EQ(o.jobs, 4u);
  EXPECT_EQ(o.replicas, 6u);
  EXPECT_EQ(o.shards, 2u);
}

TEST(ParallelOptions, MalformedEnvironmentFallsThrough) {
  EnvGuard guard;
  ::setenv("TUSSLE_SEED", "abc", 1);
  ::setenv("TUSSLE_JOBS", "0", 1);   // zero means "not configured"
  ::setenv("TUSSLE_REPLICAS", "", 1);
  ::setenv("TUSSLE_SHARDS", "4x", 1);
  const ParallelOptions o =
      ParallelOptions::resolve(std::nullopt, std::nullopt, std::nullopt, std::nullopt);
  EXPECT_EQ(o.seed, 1u);
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.replicas, 0u);
  EXPECT_EQ(o.shards, 0u);
}

TEST(ParallelOptions, NegativeOrSuffixedEnvironmentIsNotConfigured) {
  // Digits only, as the count options read them: a leading '-' must not
  // wrap around to a huge count, and a suffix must not be cut off.
  EnvGuard guard;
  for (const char* v : kVars) ::setenv(v, "-1", 1);
  const ParallelOptions o =
      ParallelOptions::resolve(std::nullopt, std::nullopt, std::nullopt, std::nullopt);
  EXPECT_EQ(o.seed, 1u);
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.replicas, 0u);
  EXPECT_EQ(o.shards, 0u);  // the parse result only: no run starts with it
  ::setenv("TUSSLE_JOBS", "2x", 1);
  EXPECT_EQ(ParallelOptions::resolve(std::nullopt, std::nullopt, std::nullopt, std::nullopt)
                .jobs,
            0u);
}

TEST(ParallelOptions, AutoJobsDropToOneUnderShards) {
  EnvGuard guard;
  // Auto jobs + in-run sharding: each run's k workers already fill the
  // machine, so the sweep pool must not multiply on top.
  ParallelOptions o;
  o.shards = 8;
  EXPECT_EQ(o.sweep_jobs(/*serial_sinks=*/false), 1u);
  // An explicit --jobs always wins over the drop rule.
  o.jobs = 4;
  EXPECT_EQ(o.sweep_jobs(false), 4u);
  // Without shards, auto stays auto (0 = size to the machine later).
  o.shards = 0;
  o.jobs = 0;
  EXPECT_EQ(o.sweep_jobs(false), 0u);
}

TEST(ParallelOptions, SerialSinksForceOneJob) {
  EnvGuard guard;
  ParallelOptions o;
  o.jobs = 16;
  EXPECT_EQ(o.sweep_jobs(/*serial_sinks=*/true), 1u);
}

TEST(ParallelOptions, RunShardsBlockedOnlyBySerialInstrumentation) {
  EnvGuard guard;
  ParallelOptions o;
  o.shards = 8;
  // --trace/span collection assumes the serial backend's single dispatch
  // thread, so it zeroes the shard request...
  EXPECT_EQ(o.run_shards(/*serial_only_instrumentation=*/true), 0u);
  // ...but plain sharding (including with --heartbeat, which only forces
  // --jobs 1 via sweep_jobs) passes through.
  EXPECT_EQ(o.run_shards(false), 8u);
  EXPECT_EQ(o.sweep_jobs(/*serial_sinks=*/true), 1u);  // heartbeat's stderr sink
}

}  // namespace
}  // namespace tussle::bench
