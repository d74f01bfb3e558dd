#include "parallel_options.hpp"

#include "core/sweep.hpp"

namespace tussle::bench {

ParallelOptions ParallelOptions::resolve(std::optional<std::uint64_t> seed_flag,
                                         std::optional<std::size_t> jobs_flag,
                                         std::optional<std::size_t> replicas_flag,
                                         std::optional<std::size_t> shards_flag) {
  ParallelOptions o;
  if (seed_flag) {
    o.seed = *seed_flag;
  } else if (auto e = core::env_count("TUSSLE_SEED")) {
    o.seed = *e;
  }
  if (jobs_flag) {
    o.jobs = *jobs_flag;
  } else if (auto e = core::env_count("TUSSLE_JOBS")) {
    o.jobs = static_cast<std::size_t>(*e);
  }
  if (replicas_flag) {
    o.replicas = *replicas_flag;
  } else if (auto e = core::env_count("TUSSLE_REPLICAS")) {
    o.replicas = static_cast<std::size_t>(*e);
  }
  if (shards_flag) {
    o.shards = *shards_flag;
  } else if (auto e = core::env_count("TUSSLE_SHARDS")) {
    o.shards = static_cast<std::size_t>(*e);
  }
  return o;
}

std::size_t ParallelOptions::sweep_jobs(bool serial_sinks) const noexcept {
  if (serial_sinks) return 1;
  if (shards > 0 && jobs == 0) return 1;
  return jobs;
}

std::size_t ParallelOptions::run_shards(bool serial_only_instrumentation) const noexcept {
  return serial_only_instrumentation ? 0 : shards;
}

}  // namespace tussle::bench
