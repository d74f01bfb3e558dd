// Unified resolution of the parallelism / reproducibility knobs every
// experiment binary shares. Each knob resolves flag > environment > default,
// in one place — previously --seed, --jobs, and --replicas each had an
// ad-hoc code path (and only --jobs consulted its environment variable):
//
//   knob        flag         environment       default
//   seed        --seed       TUSSLE_SEED       1
//   jobs        --jobs       TUSSLE_JOBS       0 = auto (hardware threads)
//   replicas    --replicas   TUSSLE_REPLICAS   0 = keep each spec's count
//   shards      --shards     TUSSLE_SHARDS     0 = serial backend
//
// `jobs` is across-run parallelism (sweep worker threads); `shards` is
// in-run parallelism (the sharded execution backend's worker threads, see
// sim/sharded_backend.hpp). The two multiply, so sweep_jobs() resolves
// them together instead of letting a k-sharded simulator times an
// auto-sized pool oversubscribe the machine.
#pragma once

#include <cstdint>
#include <optional>

namespace tussle::bench {

struct ParallelOptions {
  std::uint64_t seed = 1;
  std::size_t jobs = 0;      ///< 0 = auto-size to the machine at sweep time
  std::size_t replicas = 0;  ///< 0 = keep each ScenarioSpec's own count
  std::size_t shards = 0;    ///< 0 = serial execution backend

  /// Applies the flag > environment > default ladder. Pass nullopt for any
  /// flag the command line did not set. Environment values are read by
  /// core::env_count: digits only and positive, as the count options are;
  /// anything else (a sign, a suffix, zero) is ignored and the default
  /// stands.
  static ParallelOptions resolve(std::optional<std::uint64_t> seed_flag,
                                 std::optional<std::size_t> jobs_flag,
                                 std::optional<std::size_t> replicas_flag,
                                 std::optional<std::size_t> shards_flag);

  /// Sweep worker threads to request, given whether a serial-only sink
  /// (--trace's shared file, --heartbeat's stderr stream) is active:
  /// serial sinks force 1; otherwise an *auto* jobs request combined with
  /// in-run sharding resolves to 1 (each run's k shard workers already
  /// fill the machine), while an explicit --jobs always wins.
  std::size_t sweep_jobs(bool serial_sinks) const noexcept;

  /// In-run shard count to request, given whether serial-only
  /// instrumentation (trace or span collection, or the scale and memory
  /// profilers, which assume the serial backend's single event stream) is
  /// active: that forces 0 (serial backend); otherwise the resolved shards
  /// value. Heartbeats do NOT
  /// block sharding — the sharded coordinator ticks them between barrier
  /// windows (they still force --jobs 1 via sweep_jobs, a shared stderr
  /// stream).
  std::size_t run_shards(bool serial_only_instrumentation) const noexcept;
};

}  // namespace tussle::bench
