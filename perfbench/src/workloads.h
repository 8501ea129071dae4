// The benchmark's workloads: config generation from the seed, the timed
// (untraced) measurement loop and the traced per-layer run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/scenario.h"

namespace perfbench {

/// The seed the digest pins hold for.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 20.0;  ///< measurement budget of one invocation
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer
  std::string root = ".";  ///< checkout root (maps/town.csv lives there)
  int threads = 1;         ///< usable hardware threads (sweep jobs, shards)
};

struct Outcome {
  std::vector<Metric> metrics;
  Context context;
  Ledger ledger;
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload for opt.seconds. Throws std::invalid_argument for an
/// unknown workload name.
Outcome run_workload(const Options& opt);

/// A Manhattan-lattice scenario with bench_scenario_throughput's common
/// knobs: AODV, unit disk, 20 CBR flows at 4 pps from t = 1 s, reachability
/// oracle on. The lattice workloads start from it, and so do the self-tests.
vanet::sim::ScenarioConfig lattice_config(std::uint64_t seed,
                                          double duration_s, int streets,
                                          double block_m, int vehicles);

}  // namespace perfbench
