#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "routing/registry.h"

namespace vanet::sim {

namespace {

/// Thrown by the watchdog installed via Simulator::set_abort_check. Derives
/// runtime_error so fail-fast mode (guards.capture == false) propagates it
/// like any other run failure.
struct GuardAbort : std::runtime_error {
  GuardAbort(std::string k, const std::string& msg)
      : std::runtime_error(msg), kind(std::move(k)) {}
  std::string kind;
};

/// Install the per-run watchdog. The event budget is checked first so that
/// when both guards are armed the deterministic one wins the race; the
/// wall-clock deadline exists purely to kill runaway runs and never feeds
/// sim state. Failure messages mention only configured parameters (never
/// elapsed time or event counts), so captured failures are byte-identical
/// across jobs=1 and jobs=N.
///
/// The check sits on the scenario's own loop (the coordinator on sharded
/// runs, which also polls it between windows) and counts events across every
/// loop of the run, so the budget means the same on both engines and does
/// not depend on the shard worker count.
void arm_watchdog(Scenario& scenario, const RunGuards& guards) {
  if (guards.max_events == 0 && guards.timeout_s <= 0.0) return;
  // NOLINT-vanet(wall-clock): watchdog deadline; aborts runaway runs, never feeds sim state
  using WallClock = std::chrono::steady_clock;
  const auto deadline =
      WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                             std::chrono::duration<double>(guards.timeout_s));
  const std::uint64_t max_events = guards.max_events;
  const double timeout_s = guards.timeout_s;
  scenario.simulator().set_abort_check([&scenario, deadline, max_events,
                                        timeout_s] {
    if (max_events > 0 && scenario.events_dispatched() >= max_events) {
      throw GuardAbort{
          "event-budget",
          "event budget exceeded: max_events=" + std::to_string(max_events)};
    }
    // NOLINT-vanet(wall-clock): watchdog poll; aborts runaway runs, never feeds sim state
    if (timeout_s > 0.0 && WallClock::now() >= deadline) {
      throw GuardAbort{"timeout", "watchdog timeout: timeout_s=" +
                                      format_double(timeout_s)};
    }
  }, max_events > 0 && max_events < 1024 ? max_events : 1024);
}

}  // namespace

std::uint64_t derive_retry_seed(std::uint64_t seed, int attempt) {
  if (attempt <= 0) return seed;
  // SplitMix64 of the attempt'th step from `seed`: the standard finalizer,
  // chosen because every distinct (seed, attempt) maps to an effectively
  // independent master seed without any shared-state generator.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<ExperimentCell> expand(const ExperimentSpec& spec) {
  if (spec.seeds.empty()) {
    throw std::invalid_argument("ExperimentSpec: seed list is empty");
  }
  if (spec.guards.timeout_s < 0.0) {
    throw std::invalid_argument("ExperimentSpec: guards.timeout_s < 0");
  }
  if (spec.guards.retries < 0) {
    throw std::invalid_argument("ExperimentSpec: guards.retries < 0");
  }
  std::vector<std::string> protocols = spec.protocols;
  if (protocols.empty()) protocols.push_back(spec.base.protocol);
  for (const std::string& p : protocols) {
    if (routing::ProtocolRegistry::find(p) == nullptr) {
      throw std::invalid_argument("ExperimentSpec: unknown protocol '" + p +
                                  "'");
    }
  }
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.axes.size(); ++j) {
      if (spec.axes[i].key == spec.axes[j].key) {
        // Later axes overwrite earlier ones via config_set, so duplicate
        // keys would label rows with values that never actually ran.
        throw std::invalid_argument("ExperimentSpec: axis key '" +
                                    spec.axes[i].key + "' appears twice");
      }
    }
  }
  for (const SweepAxis& axis : spec.axes) {
    if (!config_has_key(axis.key)) {
      throw std::invalid_argument("ExperimentSpec: unknown axis key '" +
                                  axis.key + "'");
    }
    if (axis.values.empty()) {
      throw std::invalid_argument("ExperimentSpec: axis '" + axis.key +
                                  "' has no values");
    }
    if (axis.key == "seed") {
      // The engine assigns cfg.seed per run from spec.seeds; a seed axis
      // would be silently overwritten and mislabel every row.
      throw std::invalid_argument(
          "ExperimentSpec: 'seed' cannot be a sweep axis — use the seeds "
          "list");
    }
    if (axis.key == "protocol") {
      if (!spec.protocols.empty()) {
        // The axis would overwrite every cell's protocol, silently discarding
        // the protocols list and duplicating cells.
        throw std::invalid_argument(
            "ExperimentSpec: use either the protocols list or a 'protocol' "
            "sweep axis, not both");
      }
      // Catch typos up front rather than mid-matrix inside a worker thread.
      for (const std::string& p : axis.values) {
        if (routing::ProtocolRegistry::find(p) == nullptr) {
          throw std::invalid_argument("ExperimentSpec: unknown protocol '" + p +
                                      "' on the protocol axis");
        }
      }
    }
  }
  // Which protocols actually appear in the matrix (list or protocol axis)?
  std::vector<std::string> matrix_protocols = protocols;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.key == "protocol") matrix_protocols = axis.values;
  }
  for (const auto& [protocol, overrides] : spec.protocol_overrides) {
    if (std::find(matrix_protocols.begin(), matrix_protocols.end(),
                  protocol) == matrix_protocols.end()) {
      // A typo here would silently run the protocol without its overrides.
      throw std::invalid_argument("ExperimentSpec: protocol override for '" +
                                  protocol + "', which is not in the matrix");
    }
    for (const auto& [key, value] : overrides) {
      (void)value;
      if (!config_has_key(key)) {
        throw std::invalid_argument("ExperimentSpec: protocol override '" +
                                    protocol + "' uses unknown key '" + key +
                                    "'");
      }
      if (key == "seed") {
        throw std::invalid_argument(
            "ExperimentSpec: 'seed' cannot be overridden — use the seeds "
            "list");
      }
      for (const SweepAxis& axis : spec.axes) {
        if (axis.key == key) {
          // The override would clobber the swept value, mislabeling rows.
          throw std::invalid_argument("ExperimentSpec: protocol override '" +
                                      protocol + "." + key +
                                      "' collides with a sweep axis");
        }
      }
    }
  }

  std::vector<ExperimentCell> cells;
  // Odometer over the axes: index[i] counts through axes[i].values, with the
  // last axis spinning fastest.
  std::vector<std::size_t> index(spec.axes.size(), 0);
  for (const std::string& protocol : protocols) {
    while (true) {
      ExperimentCell cell;
      cell.protocol = protocol;
      cell.config = spec.base;
      cell.config.seed = 0;
      config_set(cell.config, "protocol", protocol);
      for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const std::string& value = spec.axes[i].values[index[i]];
        config_set(cell.config, spec.axes[i].key, value);
        cell.axes.emplace_back(spec.axes[i].key, value);
      }
      // Axes may themselves sweep `protocol`; overrides key off the final one.
      const auto overrides = spec.protocol_overrides.find(cell.config.protocol);
      if (overrides != spec.protocol_overrides.end()) {
        for (const auto& [key, value] : overrides->second) {
          config_set(cell.config, key, value);
        }
      }
      cell.protocol = cell.config.protocol;
      cell.digest = config_digest(cell.config);
      cells.push_back(std::move(cell));

      std::size_t i = spec.axes.size();
      while (i > 0 && ++index[i - 1] == spec.axes[i - 1].values.size()) {
        index[--i] = 0;
      }
      if (spec.axes.empty() || i == 0) break;
    }
  }
  return cells;
}

ExperimentEngine::ExperimentEngine(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

ExperimentResult ExperimentEngine::run(const ExperimentSpec& spec) {
  return run(spec, std::vector<ReportSink*>{});
}

ExperimentResult ExperimentEngine::run(const ExperimentSpec& spec,
                                       ReportSink& sink) {
  return run(spec, std::vector<ReportSink*>{&sink});
}

ExperimentResult ExperimentEngine::run(const ExperimentSpec& spec,
                                       const std::vector<ReportSink*>& sinks) {
  const std::vector<ExperimentCell> cells = expand(spec);
  const std::size_t n_seeds = spec.seeds.size();
  const std::size_t n_runs = cells.size() * n_seeds;

  // Results live at their matrix index; completion order is irrelevant.
  std::vector<ScenarioReport> reports(n_runs);
  // Failure slots mirror the report slots: disjoint per-job writes, read
  // only after the join (same threading contract as `reports`).
  std::vector<std::optional<FailureRecord>> failures(n_runs);
  // Profile slots (spec.profile): same disjoint-write contract. Kept as
  // parallel arrays rather than widening ScenarioReport, which is digest
  // material and must not grow nondeterministic fields.
  struct RunProfile {
    double wall_s = 0.0;
    std::uint64_t events = 0;
    int shards = 1;
    int threads = 1;
  };
  std::vector<RunProfile> profiles(spec.profile ? n_runs : 0);

  auto execute = [&](std::size_t job) {
    const std::size_t cell_idx = job / n_seeds;
    const std::size_t seed_idx = job % n_seeds;
    const std::uint64_t base_seed = spec.seeds[seed_idx];
    const int attempts = spec.guards.retries + 1;
    std::string kind;
    std::string error;
    std::uint64_t last_seed = base_seed;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      last_seed = derive_retry_seed(base_seed, attempt);
      try {
        ScenarioConfig cfg = cells[cell_idx].config;
        cfg.seed = last_seed;
        Scenario scenario{cfg};
        arm_watchdog(scenario, spec.guards);
        if (spec.profile) {
          // NOLINT-vanet(wall-clock): throughput capture (events/sec); never feeds sim state or digests
          const auto t0 = std::chrono::steady_clock::now();
          scenario.run();
          // NOLINT-vanet(wall-clock): throughput capture (events/sec); never feeds sim state or digests
          const auto t1 = std::chrono::steady_clock::now();
          RunProfile& prof = profiles[job];
          prof.wall_s = std::chrono::duration<double>(t1 - t0).count();
          prof.events = scenario.events_dispatched();
          prof.shards = scenario.shard_count();
          prof.threads = scenario.shard_thread_count();
        } else {
          scenario.run();
        }
        reports[job] = scenario.report();
        return;  // success — no failure record for this job
      } catch (const GuardAbort& e) {
        if (!spec.guards.capture && attempt + 1 == attempts) throw;
        kind = e.kind;
        error = e.what();
      } catch (const std::exception& e) {
        if (!spec.guards.capture && attempt + 1 == attempts) throw;
        kind = "exception";
        error = e.what();
      } catch (...) {
        if (!spec.guards.capture && attempt + 1 == attempts) throw;
        kind = "exception";
        error = "unknown non-exception throw";
      }
    }
    FailureRecord fail;
    fail.protocol = cells[cell_idx].protocol;
    fail.axes = cells[cell_idx].axes;
    fail.seed = base_seed;
    fail.last_seed = last_seed;
    fail.attempts = attempts;
    fail.kind = std::move(kind);
    fail.error = std::move(error);
    failures[job] = std::move(fail);
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(jobs_), n_runs));
  if (workers <= 1) {
    for (std::size_t job = 0; job < n_runs; ++job) execute(job);
  } else {
    // The whole multi-threaded surface of the repo (see the threading
    // contract in experiment.h; TSan-covered by test_engine_concurrency.cpp
    // and the CI tsan job): each job index is claimed exactly once via
    // `next`, each worker writes only its claimed reports[job] slots, and
    // nothing below runs until every worker has joined.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (std::size_t job = next.fetch_add(1);
               job < n_runs && !failed.load(std::memory_order_relaxed);
               job = next.fetch_add(1)) {
            execute(job);
          }
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Aggregate and report in matrix order — deterministic by construction.
  std::vector<std::string> axis_keys;
  for (const SweepAxis& axis : spec.axes) axis_keys.push_back(axis.key);
  for (ReportSink* sink : sinks) sink->begin(axis_keys);

  ExperimentResult result;
  result.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    // Successful seeds aggregate; failed seeds become on_failure records.
    // Both are visited in seed order, so the sink stream (and therefore
    // every byte of output) is independent of worker scheduling.
    std::vector<ScenarioReport> cell_runs;
    cell_runs.reserve(n_seeds);
    std::uint64_t cell_failed = 0;
    ScenarioConfig run_cfg = cells[c].config;
    analysis::RunningStats cell_wall;
    analysis::RunningStats cell_eps;
    for (std::size_t s = 0; s < n_seeds; ++s) {
      const std::size_t job = c * n_seeds + s;
      if (failures[job].has_value()) {
        ++cell_failed;
        for (ReportSink* sink : sinks) sink->on_failure(*failures[job]);
        result.failures.push_back(std::move(*failures[job]));
        continue;
      }
      cell_runs.push_back(reports[job]);
      if (spec.profile) {
        const RunProfile& prof = profiles[job];
        cell_wall.add(prof.wall_s);
        if (prof.wall_s > 0.0) {
          cell_eps.add(static_cast<double>(prof.events) / prof.wall_s);
        }
      }
      if (!sinks.empty()) {
        // Per-run records (and their config copies/digests) are only worth
        // building when someone is listening.
        RunRecord rec;
        rec.protocol = cells[c].protocol;
        rec.axes = cells[c].axes;
        rec.seed = spec.seeds[s];
        run_cfg.seed = spec.seeds[s];
        rec.config_digest = config_digest(run_cfg);
        rec.report = reports[job];
        if (spec.profile) {
          const RunProfile& prof = profiles[job];
          rec.profiled = true;
          rec.wall_s = prof.wall_s;
          rec.events_dispatched = prof.events;
          rec.shards = prof.shards;
          rec.threads = prof.threads;
        }
        for (ReportSink* sink : sinks) sink->on_run(rec);
      }
    }
    AggregateRecord agg_rec;
    agg_rec.protocol = cells[c].protocol;
    agg_rec.axes = cells[c].axes;
    agg_rec.config_digest = cells[c].digest;
    agg_rec.agg = aggregate_runs(cells[c].protocol, cell_runs);
    agg_rec.failed_runs = cell_failed;
    if (spec.profile) {
      agg_rec.profiled = true;
      agg_rec.wall_s = cell_wall;
      agg_rec.events_per_sec = cell_eps;
    }
    for (ReportSink* sink : sinks) sink->on_aggregate(agg_rec);
    result.cells.push_back(std::move(agg_rec));
  }
  for (ReportSink* sink : sinks) sink->end();
  return result;
}

}  // namespace vanet::sim
