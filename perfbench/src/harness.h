// Statistics, output checks and metric reporting shared by every workload.
//
// Nothing here touches the simulator's internals: the ledger judges a run
// only by its public ScenarioReport, digest and event count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics ---

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// A percentile read off a sample set, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  double q = 0.0;           ///< the percentile actually used, in (0, 1)
  std::size_t beyond = 0;   ///< samples strictly above its rank
  std::size_t samples = 0;  ///< sample count
};

/// The highest percentile of {p99, p95, p90, p75, p50} that is <= `cap` and
/// has at least `min_beyond` samples beyond it (nearest-rank: the value at
/// rank ceil(q * n), with n - rank samples beyond). Falls back to the median
/// when no candidate qualifies; `beyond` then shows the shortfall.
Percentile tail_percentile(std::vector<double> v, double cap,
                           std::size_t min_beyond = 10);

/// Share of the pool's capacity spent inside runs: sum of per-run walls
/// divided by (jobs x sweep wall). 0 when the sweep took no time.
double worker_busy_frac(const std::vector<double>& run_walls_s, int jobs,
                        double sweep_wall_s);

/// Fastest time of each input over repeated passes. Host noise on a shared
/// machine only ever adds time, so the best of a few passes over the same
/// inputs moves far less from one invocation to the next than their median.
class BestTimes {
 public:
  /// Record one timing of input `input` (inputs are numbered from 0).
  void add(std::size_t input, double seconds);
  /// Per-input bests, indexed by input.
  const std::vector<double>& best() const { return best_; }
  /// Sum of the per-input bests.
  double sum() const;
  /// Mean of the per-input bests; 0 when nothing was recorded.
  double mean() const;

 private:
  std::vector<double> best_;
};

/// Seconds since an arbitrary steady epoch.
double now_s();

/// Process high-water resident set size in MiB.
double peak_rss_mb();

// ---------------------------------------------------------- output checks ---

/// What a finished (or failed) run produced, as far as the checks go.
struct RunOutcome {
  std::string key;  ///< workload-level identity of the configuration
  std::string digest;
  std::uint64_t events = 0;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::string error;  ///< non-empty: the run threw or tripped a guard
};

/// Digest and event count a configuration must reproduce at the default seed.
struct Pin {
  std::string digest;
  std::uint64_t events = 0;
};

/// Counts attempted and failed runs. A run fails when it threw, delivered
/// more than it originated, missed its pin (default seed only) or produced a
/// digest different from an earlier run of the same key in this process
/// (reps, and traced against untraced, must agree bit for bit).
class Ledger {
 public:
  /// `pins` apply only when `pinned_seed` is true.
  Ledger(std::map<std::string, Pin> pins, bool pinned_seed);

  /// Check one run; returns true when it passed.
  bool check(const RunOutcome& run);
  /// False only when `key` is pinned, the seed is the pinned one and the
  /// digest or event count differs (a sweep pins its combined digest).
  bool pin_matches(const std::string& key, const std::string& digest,
                   std::uint64_t events);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_frac() const;
  const std::vector<std::string>& failures() const { return failures_; }
  /// Keys checked against a pin (for the run-context printout).
  const std::vector<std::string>& pinned_keys() const { return pinned_keys_; }

 private:
  void fail(const std::string& why);

  std::map<std::string, Pin> pins_;
  bool pinned_seed_;
  std::map<std::string, std::string> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> pinned_keys_;
};

/// 64-bit FNV-1a of `text`, as 16 lowercase hex chars (combines per-run
/// digests into one sweep digest).
std::string fnv1a_hex(const std::string& text);

// -------------------------------------------------------------- reporting ---

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string note;         ///< how the value was formed
};

/// Key/value run context printed with every result.
using Context = std::vector<std::pair<std::string, std::string>>;

/// Human-readable block: context, then one line per metric with unit and
/// sample count, then any failures.
std::string format_table(const std::string& title, const Context& context,
                         const std::vector<Metric>& metrics,
                         const Ledger& ledger);

/// The one-line machine-readable result:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string format_json(const std::vector<Metric>& metrics,
                        const Ledger& ledger);

}  // namespace perfbench
