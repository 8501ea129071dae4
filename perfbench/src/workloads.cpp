#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "map/region_partition.h"
#include "map/segment_index.h"
#include "sim/experiment.h"
#include "sim/sharded/sharded_scenario.h"
#include "tracer.h"

namespace perfbench {

namespace sim = vanet::sim;

namespace {

// ---------------------------------------------------------------- configs ---

// Simulated seconds per workload run, and the sweep's seed count.
constexpr double kLossyDuration = 3.0;
constexpr double kCityDuration = 3.0;
constexpr double kTownDuration = 10.0;
constexpr int kTownSeeds = 13;  // 8 cells x 13 seeds = 104 runs per sweep

// Inputs per untraced invocation of lossy-etx. Each pass runs every input
// once (~6-8 s on a 4-vCPU VM), so a 40 s budget gives every input five
// timings to take the best of, while the mean over the inputs damps their
// seed-to-seed differences in work.
constexpr std::size_t kLossyInputs = 4;
// city-sharded's work hardly depends on the seed (event counts within 1%
// across seeds), so it runs one input and spends the budget on passes.
constexpr std::size_t kCityInputs = 1;

/// Digests and event counts of input 0 (and of the whole town sweep) at
/// kPinnedSeed. A change that alters physics on purpose re-pins these and
/// says so; any other mismatch is a failed run. The sharded result depends
/// on the shard count, so city-sharded/kN is pinned only for the N measured
/// so far; other counts run unpinned.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> table = {
      {"lossy-etx/0", {"d65c3cc95d18e99b", 8206}},
      {"city-sharded/k1/0", {"22b8b6e67c61c524", 112236}},
      {"city-sharded/k2/0", {"e2c8c2a10f62f0a0", 112324}},
      {"city-sharded/k3/0", {"5cd071096dfe3279", 112474}},
      {"city-sharded/k4/0", {"b0649110e343a070", 113023}},
      {"town-sweep", {"1223c81918e55f75", 3544663}},
  };
  return table;
}

/// Scenario seed of input `rep`, drawn from the bench seed. The pins hold
/// input 0 at the pinned bench seed.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  return seed * 1000 + rep;
}

sim::ScenarioConfig lossy_etx_config(std::uint64_t seed) {
  // The lossy family's etx/500 row (100 m blocks, Nakagami m=1), shortened.
  sim::ScenarioConfig cfg =
      lattice_config(seed, kLossyDuration, 10, 100.0, 500);
  cfg.protocol = "etx";
  cfg.phy = sim::PhyModel::kNakagami;
  cfg.nakagami_m = 1;
  return cfg;
}

sim::ScenarioConfig city_sharded_config(std::uint64_t seed, int shards) {
  // The scale family's 10k band (22x22 lattice, 300 m blocks), shortened:
  // greedy forwarding keeps per-packet work local, no reachability BFS.
  sim::ScenarioConfig cfg =
      lattice_config(seed, kCityDuration, 22, 300.0, 10000);
  cfg.protocol = "greedy";
  cfg.traffic.flows = 50;
  cfg.sample_reachability = false;
  cfg.shards = shards;
  cfg.shard_threads = shards;
  return cfg;
}

sim::ExperimentSpec town_sweep_spec(std::uint64_t seed,
                                    const std::string& root) {
  sim::ExperimentSpec spec;
  sim::ScenarioConfig& base = spec.base;
  base.duration_s = kTownDuration;
  base.map.source = sim::MapSource::kFile;
  base.map.file = root + "/maps/town.csv";
  base.mobility = sim::MobilityKind::kGraph;
  base.zone_geometry = vanet::routing::GeometryMode::kRoute;
  base.gvgrid_geometry = vanet::routing::GeometryMode::kRoute;
  base.traffic.flows = 10;
  base.traffic.rate_pps = 2.0;
  base.traffic.start_s = 1.0;
  base.traffic.stop_s = kTownDuration;
  spec.protocols = {"aodv", "yan", "zone", "gvgrid"};
  spec.axes = {{"vehicles", {"150", "300"}}};
  spec.seeds.clear();
  for (int i = 0; i < kTownSeeds; ++i) {
    spec.seeds.push_back(rep_seed(seed, static_cast<std::size_t>(i)));
  }
  spec.guards.capture = true;
  spec.guards.timeout_s = 60.0;
  spec.profile = true;
  return spec;
}

// ----------------------------------------------------------- measurement ---

/// Decides whether another rep (or pass) fits the invocation's budget.
class Budget {
 public:
  explicit Budget(double seconds) : end_{now_s() + seconds} {}
  /// Always for the first; then while one of the last length still fits,
  /// so an invocation ends close to its budget and never far past it.
  bool more(std::size_t done, double last_rep_s) const {
    return done == 0 || now_s() + last_rep_s <= end_;
  }

 private:
  double end_;
};

/// Per-layer totals, summed over the traced reps of one invocation.
class LayerSums {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  void keep_max(const std::string& name, double v) {
    double& x = sums_[name];
    x = std::max(x, v);
  }
  double get(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }

  /// Fold in one traced serial scenario after its run.
  void add_serial(sim::Scenario& s, const LayerTimes& t) {
    const vanet::net::NetCounters& c = s.network().counters();
    const vanet::routing::ProtocolEvents& ev = s.events();
    const auto sched = s.scheduler_stats();
    add("core.events", static_cast<double>(s.events_dispatched()));
    keep_max("core.peak_pending", static_cast<double>(sched.peak_pending));
    add("core.sched_allocs", static_cast<double>(sched.slab_allocations +
                                                 sched.oversize_callbacks));
    add("net.mac_s", t.mac_s);
    add("net.frames_sent", static_cast<double>(c.frames_sent));
    add("net.receptions_ok", static_cast<double>(c.receptions_ok));
    add("net.receptions_collided", static_cast<double>(c.receptions_collided));
    add("net.receptions_faded", static_cast<double>(c.receptions_faded));
    add("net.queue_drops", static_cast<double>(c.frames_dropped_queue));
    add("net.unicast_retries", static_cast<double>(c.unicast_retries));
    add("net.unicast_failures", static_cast<double>(c.unicast_failures));
    add("mobility.ticks", static_cast<double>(t.ticks));
    add("mobility.tick_s", t.tick_s);
    add("hello.frames", static_cast<double>(c.hello_frames_sent));
    add("hello.beacon_s", t.beacon_s);
    add("hello.rx_s", t.hello_rx_s);
    add("hello.rx_calls", static_cast<double>(t.hello_rx_calls));
    add("routing.rx_s", t.routing_rx_s);
    add("routing.rx_calls", static_cast<double>(t.routing_rx_calls));
    add("routing.fail_s", t.fail_s);
    add("routing.originate_s", t.originate_s);
    add("routing.timer_s", t.timer_s);
    add("routing.discoveries", static_cast<double>(ev.discoveries_started));
    add("routing.route_breaks", static_cast<double>(ev.route_breaks));
    add("routing.data_forwarded", static_cast<double>(ev.data_forwarded));
    add("routing.drops_no_route",
        static_cast<double>(ev.data_dropped_no_route));
    add("routing.drops_ttl", static_cast<double>(ev.data_dropped_ttl));
    add("routing.rrep_stranded", static_cast<double>(ev.rrep_stranded));
    add("routing.suppressed_rebroadcasts",
        static_cast<double>(ev.suppressed_rebroadcasts));
    if (const auto* snap = s.segment_snapshot()) {
      add("map.seg_snapshot_queries", static_cast<double>(snap->stats().queries));
      add("map.seg_snapshot_served", static_cast<double>(snap->stats().hits +
                                                         snap->stats().proven));
    }
    if (const auto* memo = s.lifetime_memo()) {
      add("analysis.lifetime_memo_lookups",
          static_cast<double>(memo->stats().hits + memo->stats().misses));
      add("analysis.lifetime_memo_hits",
          static_cast<double>(memo->stats().hits));
    }
    add("trace.run_s", t.run_s);
    event_us.insert(event_us.end(), t.event_us.begin(), t.event_us.end());
  }

  /// Time the map build (road graph plus segment index) of `cfg`.
  void add_map_build(const sim::ScenarioConfig& cfg) {
    const double t0 = now_s();
    const auto graph = sim::build_road_graph(cfg);
    const vanet::map::SegmentIndex index{*graph};
    add("map.build_s", now_s() - t0);
  }

  std::size_t reps = 0;
  std::vector<double> event_us;

 private:
  std::map<std::string, double> sums_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics in BENCHMARK.json order: totals are means per traced
/// rep; ratios are formed from the summed totals.
std::vector<Metric> layer_metrics(const LayerSums& L) {
  const double reps = static_cast<double>(std::max<std::size_t>(L.reps, 1));
  const std::size_t n = L.reps;
  std::vector<Metric> out;
  const auto per_rep = [&](const char* name, const char* unit) {
    out.push_back({name, unit, L.get(name) / reps, n, "mean per traced rep"});
  };
  const auto value = [&](const char* name, const char* unit, double v,
                         std::size_t samples, const char* note) {
    out.push_back({name, unit, v, samples, note});
  };
  std::vector<double> ev(L.event_us.begin(), L.event_us.end());
  const double untraced = L.get("untraced.run_s");

  per_rep("core.events", "count");
  value("core.events_per_s", "1/s", ratio(L.get("core.events"), untraced), n,
        "events / untraced run wall");
  value("core.peak_pending", "count", L.get("core.peak_pending"), n, "max");
  per_rep("core.sched_allocs", "count");
  const Percentile p50 = tail_percentile(ev, 0.5, 0);
  const Percentile p99 = tail_percentile(ev, 0.99);
  value("core.event_us_p50", "us", p50.value, ev.size(), "per-event wall");
  value("core.event_us_p99", "us", p99.value, ev.size(),
        p99.q == 0.99 ? "per-event wall" : "p99 lacks 10 samples beyond");
  per_rep("net.mac_s", "s");
  per_rep("net.frames_sent", "count");
  per_rep("net.receptions_ok", "count");
  per_rep("net.receptions_collided", "count");
  per_rep("net.receptions_faded", "count");
  const double rx_all = L.get("net.receptions_ok") +
                        L.get("net.receptions_collided") +
                        L.get("net.receptions_faded");
  value("net.rx_ok_ratio", "ratio", ratio(L.get("net.receptions_ok"), rx_all),
        n, "ok / attempted receptions");
  per_rep("net.queue_drops", "count");
  per_rep("net.unicast_retries", "count");
  per_rep("net.unicast_failures", "count");
  per_rep("mobility.ticks", "count");
  per_rep("mobility.tick_s", "s");
  per_rep("hello.frames", "count");
  per_rep("hello.beacon_s", "s");
  per_rep("hello.rx_s", "s");
  per_rep("hello.rx_calls", "count");
  per_rep("routing.rx_s", "s");
  per_rep("routing.rx_calls", "count");
  per_rep("routing.fail_s", "s");
  per_rep("routing.originate_s", "s");
  per_rep("routing.timer_s", "s");
  per_rep("routing.discoveries", "count");
  per_rep("routing.route_breaks", "count");
  per_rep("routing.data_forwarded", "count");
  per_rep("routing.drops_no_route", "count");
  per_rep("routing.drops_ttl", "count");
  per_rep("routing.rrep_stranded", "count");
  per_rep("routing.suppressed_rebroadcasts", "count");
  per_rep("map.build_s", "s");
  per_rep("map.seg_snapshot_queries", "count");
  value("map.seg_snapshot_hit_rate", "ratio",
        ratio(L.get("map.seg_snapshot_served"),
              L.get("map.seg_snapshot_queries")),
        n, "served without the index / queries");
  per_rep("analysis.lifetime_memo_lookups", "count");
  value("analysis.lifetime_memo_hit_rate", "ratio",
        ratio(L.get("analysis.lifetime_memo_hits"),
              L.get("analysis.lifetime_memo_lookups")),
        n, "hits / lookups");
  // The sharded engine runs once per traced invocation (city-sharded only).
  const auto once = [&](const char* name, const char* unit, const char* note) {
    const double v = L.get(name);
    value(name, unit, v, v > 0.0 ? 1 : 0, note);
  };
  once("sharded.partition_s", "s", "one partition_regions call");
  once("sharded.coord_events", "count", "coordinator loop, one run");
  once("sharded.handoff_receptions", "count", "one run");
  once("sharded.handoff_verdicts", "count", "one run");
  once("sharded.owned_imbalance", "ratio", "max / mean owned nodes");
  value("experiment.worker_busy_frac", "ratio",
        L.get("experiment.worker_busy_frac") / reps, n, "mean per sweep");
  per_rep("trace.run_s", "s");
  value("trace.overhead_frac", "ratio",
        untraced > 0.0 ? L.get("trace.run_s") / untraced - 1.0 : 0.0, n,
        "traced / untraced run wall - 1");
  return out;
}

/// End-to-end samples of one untraced invocation. It makes a fixed set of
/// inputs from the seed and runs each once per pass; a time is the best of
/// that input's passes.
struct EndToEnd {
  std::vector<double> setup_s;  ///< scenario constructions
  BestTimes run_s;              ///< per input: the timed phase
  BestTimes per_run_s;          ///< per Scenario::run() of an input
  /// shards=1 run time over the sharded one, per back-to-back pair
  /// (city-sharded): a ratio of runs a second apart cancels the host's
  /// slower drifts.
  std::vector<double> speedups;
  double runs_per_input = 1.0;  ///< Scenario::run() calls per timed phase
  std::size_t passes = 0;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  std::vector<Metric> out;
  const std::size_t inputs = e.run_s.best().size();
  const std::string best_of =
      "best of " + std::to_string(e.passes) + " passes";
  out.push_back({"setup_s", "s", median(e.setup_s), e.setup_s.size(),
                 "median Scenario construction"});
  out.push_back({"run_s", "s", e.run_s.mean(), inputs * e.passes,
                 "mean over " + std::to_string(inputs) + " inputs of the " +
                     best_of});
  const std::vector<double>& runs = e.per_run_s.best();
  out.push_back({"run_p50_s", "s", median(runs), runs.size() * e.passes,
                 "median over " + std::to_string(runs.size()) +
                     " runs of Scenario::run(), each the " + best_of});
  const Percentile tail = tail_percentile(runs, 0.90);
  out.push_back({"run_p90_s", "s", tail.value, tail.samples * e.passes,
                 "p" + std::to_string(static_cast<int>(tail.q * 100)) +
                     " of the same, " + std::to_string(tail.beyond) +
                     " runs beyond" +
                     (tail.q < 0.9 ? " (too few runs for p90)" : "")});
  out.push_back({"sweep_runs_per_s", "1/s",
                 ratio(e.runs_per_input, e.run_s.mean()), inputs * e.passes,
                 "Scenario::run() calls per timed phase / run_s"});
  if (e.speedups.empty()) {
    out.push_back({"shard_speedup", "x", 1.0, 0, "no sharded run: 1"});
  } else {
    out.push_back({"shard_speedup", "x", median(e.speedups),
                   e.speedups.size(),
                   "median run wall at shards=1 / at shards=N, same input "
                   "back to back"});
  }
  out.push_back({"peak_rss_mb", "MiB", peak_rss_mb(), 1, "process high water"});
  return out;
}

RunOutcome outcome_of(const std::string& key, sim::Scenario& s) {
  const sim::ScenarioReport r = s.report();
  return {key, sim::report_digest(r), s.events_dispatched(), r.originated,
          r.delivered, ""};
}

/// Record a configuration's digest in the run context (the value to pin).
void note_digest(Outcome& out, const std::string& key,
                 const std::string& digest, std::uint64_t events) {
  const std::string label = "digest " + key;
  for (const auto& [k, v] : out.context) {
    if (k == label) return;
  }
  out.context.push_back({label, digest + " events " + std::to_string(events)});
}

void note_digest(Outcome& out, const RunOutcome& o) {
  if (o.error.empty()) note_digest(out, o.key, o.digest, o.events);
}

/// One build + run of a scenario config.
struct Timed {
  double setup_s = 0.0;
  double run_s = 0.0;
  RunOutcome outcome;
};

/// Builds and runs `cfg` untraced, or traced into `layers` when non-null;
/// `inspect` (optional) sees the finished scenario.
template <typename Inspect>
Timed run_once(const std::string& key, const sim::ScenarioConfig& cfg,
               LayerSums* layers, Inspect&& inspect) {
  Timed t;
  t.outcome.key = key;
  try {
    const double t0 = now_s();
    sim::Scenario s{cfg};
    const double t1 = now_s();
    t.setup_s = t1 - t0;
    if (layers != nullptr) {
      const LayerTimes lt = run_traced(s);
      t.run_s = lt.run_s;
      layers->add_serial(s, lt);
    } else {
      s.run();
      t.run_s = now_s() - t1;
    }
    t.outcome = outcome_of(key, s);
    inspect(s);
  } catch (const std::exception& e) {
    t.outcome.error = e.what();
  }
  return t;
}

Timed run_once(const std::string& key, const sim::ScenarioConfig& cfg,
               LayerSums* layers) {
  return run_once(key, cfg, layers, [](sim::Scenario&) {});
}

std::string rep_key(const std::string& base, std::size_t rep) {
  return base + "/" + std::to_string(rep);
}

/// Constructions (built, never run) so setup_s is a median of many samples
/// even when few reps fit the budget.
void sample_setups(const sim::ScenarioConfig& cfg, std::vector<double>& out,
                   std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const double t0 = now_s();
    const sim::Scenario s{cfg};
    out.push_back(now_s() - t0);
  }
}

// ------------------------------------------------------------- workloads ---

/// lossy-etx: one serial scenario per input.
void run_lossy(const Options& opt, Outcome& out) {
  const Budget budget{opt.seconds};
  double last = 0.0;
  if (!opt.trace) {
    EndToEnd e;
    std::vector<sim::ScenarioConfig> cfgs;
    for (std::size_t i = 0; i < kLossyInputs; ++i) {
      cfgs.push_back(lossy_etx_config(rep_seed(opt.seed, i)));
    }
    bool ok = true;
    while (ok && budget.more(e.passes, last)) {
      const double t0 = now_s();
      for (std::size_t i = 0; i < kLossyInputs; ++i) {
        const Timed t = run_once(rep_key(opt.workload, i), cfgs[i], nullptr);
        if (e.passes == 0 && i == 0) note_digest(out, t.outcome);
        ok = out.ledger.check(t.outcome);
        if (!ok) break;
        // Setup is a few ms here: sample it several times per run, spread
        // over the invocation like the runs.
        sample_setups(cfgs[i], e.setup_s, 4);
        e.setup_s.push_back(t.setup_s);
        e.run_s.add(i, t.run_s);
        e.per_run_s.add(i, t.run_s);
      }
      if (ok) ++e.passes;
      last = now_s() - t0;
    }
    out.metrics = end_to_end_metrics(e);
  } else {
    LayerSums layers;
    for (std::size_t rep = 0; budget.more(rep, last); ++rep) {
      const double t0 = now_s();
      const std::string key = rep_key(opt.workload, rep);
      const sim::ScenarioConfig cfg =
          lossy_etx_config(rep_seed(opt.seed, rep));
      const Timed u = run_once(key, cfg, nullptr);
      const Timed t = run_once(key, cfg, &layers);
      if (rep == 0) note_digest(out, u.outcome);
      // Same key: the traced digest must equal the untraced one.
      if (!out.ledger.check(u.outcome) || !out.ledger.check(t.outcome)) break;
      layers.add("untraced.run_s", u.run_s);
      layers.add_map_build(cfg);
      ++layers.reps;
      last = now_s() - t0;
    }
    out.metrics = layer_metrics(layers);
  }
  out.context.push_back({"jobs", "1"});
  out.context.push_back({"shards", "1"});
  out.context.push_back({"shard_threads", "1"});
}

/// Sharded-engine telemetry of one run: coordinator events, handoffs and
/// how evenly the partition spread the nodes.
void add_sharded_counters(sim::Scenario& s, LayerSums& layers) {
  layers.add("sharded.coord_events",
             static_cast<double>(s.simulator().events_dispatched()));
  const auto* engine = s.sharded_engine();
  if (engine == nullptr) return;
  layers.add("sharded.handoff_receptions",
             static_cast<double>(engine->handoff_receptions()));
  layers.add("sharded.handoff_verdicts",
             static_cast<double>(engine->handoff_verdicts()));
  std::size_t total = 0;
  std::size_t most = 0;
  for (int i = 0; i < engine->shards(); ++i) {
    const std::size_t owned = engine->owned_ids(i).size();
    total += owned;
    most = std::max(most, owned);
  }
  layers.add("sharded.owned_imbalance",
             ratio(static_cast<double>(most) * engine->shards(),
                   static_cast<double>(total)));
}

/// city-sharded: each input runs at shards=1 and at shards = shard
/// threads = N, one per usable CPU but one. The coordinator (the calling
/// thread) keeps a CPU of its own for its serial phase and the barrier
/// hand-offs: at N = nproc on a 4-vCPU VM a 25k-vehicle run took
/// 1.0-1.4 s, against 0.83-1.06 s at nproc - 1.
void run_city(const Options& opt, Outcome& out) {
  const int k = std::max(1, opt.threads - 1);
  const std::string base1 = "city-sharded/k1";
  const std::string base_k = "city-sharded/k" + std::to_string(k);
  const Budget budget{opt.seconds};
  double last = 0.0;
  if (!opt.trace) {
    EndToEnd e;
    sample_setups(city_sharded_config(rep_seed(opt.seed, 0), k), e.setup_s, 2);
    bool ok = true;
    while (ok && budget.more(e.passes, last)) {
      const double t0 = now_s();
      for (std::size_t i = 0; i < kCityInputs; ++i) {
        const std::uint64_t seed = rep_seed(opt.seed, i);
        const Timed s1 = run_once(rep_key(base1, i),
                                  city_sharded_config(seed, 1), nullptr);
        const Timed sk = run_once(rep_key(base_k, i),
                                  city_sharded_config(seed, k), nullptr);
        if (e.passes == 0 && i == 0) {
          note_digest(out, s1.outcome);
          note_digest(out, sk.outcome);
        }
        ok = out.ledger.check(s1.outcome) && out.ledger.check(sk.outcome);
        if (!ok) break;
        sample_setups(city_sharded_config(seed, k), e.setup_s, 1);
        e.setup_s.push_back(sk.setup_s);
        e.run_s.add(i, sk.run_s);
        e.per_run_s.add(i, sk.run_s);
        e.speedups.push_back(ratio(s1.run_s, sk.run_s));
      }
      if (ok) ++e.passes;
      last = now_s() - t0;
    }
    out.metrics = end_to_end_metrics(e);
  } else {
    LayerSums layers;
    // The sharded engine once, at rep 0: the partition timed on its own,
    // then one run for its counters.
    const sim::ScenarioConfig sharded =
        city_sharded_config(rep_seed(opt.seed, 0), k);
    {
      const auto graph = sim::build_road_graph(sharded);
      const double t0 = now_s();
      vanet::map::partition_regions(*graph, k);
      layers.add("sharded.partition_s", now_s() - t0);
    }
    const Timed sk =
        run_once(rep_key(base_k, 0), sharded, nullptr,
                 [&](sim::Scenario& s) { add_sharded_counters(s, layers); });
    note_digest(out, sk.outcome);
    if (out.ledger.check(sk.outcome)) {
      for (std::size_t rep = 0; budget.more(rep, last); ++rep) {
        const double t0 = now_s();
        const std::string key = rep_key(base1, rep);
        const sim::ScenarioConfig cfg =
            city_sharded_config(rep_seed(opt.seed, rep), 1);
        const Timed u = run_once(key, cfg, nullptr);
        const Timed t = run_once(key, cfg, &layers);
        if (rep == 0) note_digest(out, u.outcome);
        if (!out.ledger.check(u.outcome) || !out.ledger.check(t.outcome)) {
          break;
        }
        layers.add("untraced.run_s", u.run_s);
        layers.add_map_build(cfg);
        ++layers.reps;
        last = now_s() - t0;
      }
    }
    out.metrics = layer_metrics(layers);
  }
  out.context.push_back({"jobs", "1"});
  out.context.push_back({"shards", "1 and " + std::to_string(k)});
  out.context.push_back({"shard_threads", "1 and " + std::to_string(k)});
}

/// Collects the engine's per-run records in matrix order.
class CollectSink final : public sim::ReportSink {
 public:
  void on_run(const sim::RunRecord& rec) override { runs.push_back(rec); }
  void on_failure(const sim::FailureRecord& rec) override {
    failures.push_back(rec);
  }
  std::vector<sim::RunRecord> runs;
  std::vector<sim::FailureRecord> failures;
};

std::string run_key(const std::string& protocol,
                    const std::vector<std::pair<std::string, std::string>>& axes,
                    std::uint64_t seed) {
  std::string key = "town-sweep/" + protocol;
  for (const auto& [k, v] : axes) key += "/" + k + "=" + v;
  return key + "/seed=" + std::to_string(seed);
}

/// One engine sweep: checks every run, returns the sweep's wall time and
/// fills `run_walls` with the profiled per-run Scenario::run() times, in
/// matrix order.
double sweep_once(const sim::ExperimentSpec& spec, int jobs, Outcome& out,
                  std::vector<double>& run_walls) {
  run_walls.clear();
  Ledger& ledger = out.ledger;
  CollectSink sink;
  sim::ExperimentEngine engine{jobs};
  const double t0 = now_s();
  engine.run(spec, sink);
  const double wall = now_s() - t0;

  std::string joined;
  std::uint64_t events = 0;
  for (const sim::RunRecord& r : sink.runs) {
    joined += r.report.protocol + " " + sim::report_digest(r.report) + "\n";
    events += r.events_dispatched;
  }
  const std::string sweep_digest = fnv1a_hex(joined);
  if (sink.failures.empty()) {
    note_digest(out, "town-sweep", sweep_digest, events);
  }
  const bool pin_ok = sink.failures.empty() &&
                      ledger.pin_matches("town-sweep", sweep_digest, events);
  for (const sim::RunRecord& r : sink.runs) {
    RunOutcome o{run_key(r.protocol, r.axes, r.seed),
                 sim::report_digest(r.report),
                 r.events_dispatched,
                 r.report.originated,
                 r.report.delivered,
                 pin_ok ? "" : "sweep digest differs from the pin"};
    ledger.check(o);
    run_walls.push_back(r.wall_s);
  }
  for (const sim::FailureRecord& f : sink.failures) {
    ledger.check({run_key(f.protocol, f.axes, f.seed), "", 0, 0, 0,
                  f.kind + ": " + f.error});
  }
  return wall;
}

/// town-sweep: the engine over the committed town map at jobs = threads.
void run_town(const Options& opt, Outcome& out) {
  const sim::ExperimentSpec spec = town_sweep_spec(opt.seed, opt.root);
  const std::vector<sim::ExperimentCell> cells = sim::expand(spec);
  const std::uint64_t first_seed = spec.seeds.front();
  const auto cell_config = [&](const sim::ExperimentCell& cell) {
    sim::ScenarioConfig cfg = cell.config;
    cfg.seed = first_seed;
    return cfg;
  };
  const int jobs = std::max(1, opt.threads);
  const Budget budget{opt.seconds};
  if (!opt.trace) {
    // One input, the sweep, repeated: the best sweep wall and, per run of
    // the matrix, its best Scenario::run() over the sweeps.
    EndToEnd e;
    double last = 0.0;
    std::vector<double> walls;
    while (budget.more(e.passes, last)) {
      const double t0 = now_s();
      for (const sim::ExperimentCell& cell : cells) {
        sample_setups(cell_config(cell), e.setup_s, 1);
      }
      const std::uint64_t failed_before = out.ledger.failed();
      const double wall = sweep_once(spec, jobs, out, walls);
      if (out.ledger.failed() != failed_before) break;
      e.run_s.add(0, wall);
      for (std::size_t i = 0; i < walls.size(); ++i) {
        e.per_run_s.add(i, walls[i]);
      }
      e.runs_per_input = static_cast<double>(walls.size());
      ++e.passes;
      last = now_s() - t0;
    }
    out.metrics = end_to_end_metrics(e);
  } else {
    LayerSums layers;
    double last = 0.0;
    while (budget.more(layers.reps, last)) {
      const double t0 = now_s();
      std::vector<double> walls;
      const std::uint64_t failed_before = out.ledger.failed();
      const double wall = sweep_once(spec, jobs, out, walls);
      if (out.ledger.failed() != failed_before) break;
      layers.add("experiment.worker_busy_frac",
                 worker_busy_frac(walls, jobs, wall));
      // Each cell once, at the sweep's first seed, untraced and traced; both
      // must reproduce the engine's digest for that run.
      bool ok = true;
      for (const sim::ExperimentCell& cell : cells) {
        const std::string key = run_key(cell.protocol, cell.axes, first_seed);
        const sim::ScenarioConfig cfg = cell_config(cell);
        const Timed u = run_once(key, cfg, nullptr);
        const Timed t = run_once(key, cfg, &layers);
        ok = out.ledger.check(u.outcome) && out.ledger.check(t.outcome) && ok;
        layers.add("untraced.run_s", u.run_s);
        layers.add_map_build(cfg);
      }
      if (!ok) break;
      ++layers.reps;
      last = now_s() - t0;
    }
    out.metrics = layer_metrics(layers);
  }
  out.context.push_back({"jobs", std::to_string(jobs)});
  out.context.push_back({"shards", "1"});
  out.context.push_back({"shard_threads", "1"});
  out.context.push_back(
      {"matrix", std::to_string(cells.size()) + " cells x " +
                     std::to_string(spec.seeds.size()) + " seeds"});
}

}  // namespace

// ------------------------------------------------------------ public API ---

sim::ScenarioConfig lattice_config(std::uint64_t seed, double duration_s,
                                   int streets, double block_m,
                                   int vehicles) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = duration_s;
  cfg.protocol = "aodv";
  cfg.traffic.flows = 20;
  cfg.traffic.rate_pps = 4.0;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = duration_s;
  cfg.sample_reachability = true;
  cfg.mobility = sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = streets;
  cfg.manhattan.streets_y = streets;
  cfg.manhattan.block = block_m;
  cfg.vehicles = vehicles;
  return cfg;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lossy-etx", "city-sharded", "town-sweep"};
  return names;
}

Outcome run_workload(const Options& opt) {
  Outcome out{{}, {}, Ledger{pins(), opt.seed == kPinnedSeed}};
  if (opt.workload == "lossy-etx") {
    run_lossy(opt, out);
  } else if (opt.workload == "city-sharded") {
    run_city(opt, out);
  } else if (opt.workload == "town-sweep") {
    run_town(opt, out);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  return out;
}

}  // namespace perfbench
