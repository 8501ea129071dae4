#include "sim/config_kv.h"

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace vanet::sim {

std::string format_double(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

namespace {

std::string fmt_value(double v) { return format_double(v); }
std::string fmt_value(bool v) { return v ? "true" : "false"; }
template <typename T>
std::string fmt_value(T v)
  requires std::is_integral_v<T>
{
  return std::to_string(v);
}

std::string fmt_value(MobilityKind k) {
  switch (k) {
    case MobilityKind::kHighway: return "highway";
    case MobilityKind::kManhattan: return "manhattan";
    case MobilityKind::kTrace: return "trace";
    case MobilityKind::kGraph: return "graph";
  }
  return "highway";
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("config key '" + key + "': invalid value '" +
                              value + "' (expected " + expected + ")");
}

struct Field {
  std::string key;
  std::function<std::string(const ScenarioConfig&)> get;
  std::function<void(ScenarioConfig&, const std::string&, const std::string&)>
      set;  ///< (cfg, key-for-errors, value)
};

template <typename T>
Field numeric_field(std::string key, T& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return fmt_value(ref(const_cast<ScenarioConfig&>(cfg)));
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string& k,
                const std::string& v) {
    if constexpr (std::is_same_v<T, double>) {
      const auto parsed = parse_double_checked(v);
      if (!parsed) bad_value(k, v, "a real number");
      ref(cfg) = *parsed;
    } else if constexpr (std::is_same_v<T, bool>) {
      const auto parsed = parse_bool_checked(v);
      if (!parsed) bad_value(k, v, "true|false");
      ref(cfg) = *parsed;
    } else {
      const auto parsed = parse_int_checked(v);
      if (!parsed) bad_value(k, v, "an integer");
      if constexpr (std::is_unsigned_v<T>) {
        if (*parsed < 0 ||
            static_cast<unsigned long long>(*parsed) >
                std::numeric_limits<T>::max()) {
          bad_value(k, v, "a non-negative integer in range");
        }
      } else {
        if (*parsed < std::numeric_limits<T>::min() ||
            *parsed > std::numeric_limits<T>::max()) {
          bad_value(k, v, "an integer in range");
        }
      }
      ref(cfg) = static_cast<T>(*parsed);
    }
  };
  return f;
}

Field string_field(std::string key, std::string& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return ref(const_cast<ScenarioConfig&>(cfg));
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string&, const std::string& v) {
    ref(cfg) = v;
  };
  return f;
}

/// A routing::GeometryMode field: line (legacy plane) | route (map-aware).
Field geometry_field(std::string key,
                     routing::GeometryMode& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return ref(const_cast<ScenarioConfig&>(cfg)) == routing::GeometryMode::kRoute
               ? std::string("route")
               : std::string("line");
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string& k,
                const std::string& v) {
    if (v == "line") {
      ref(cfg) = routing::GeometryMode::kLine;
    } else if (v == "route") {
      ref(cfg) = routing::GeometryMode::kRoute;
    } else {
      bad_value(k, v, "line|route");
    }
  };
  return f;
}

/// A SimTime field exposed in seconds.
Field simtime_field(std::string key, core::SimTime& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return fmt_value(ref(const_cast<ScenarioConfig&>(cfg)).as_seconds());
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string& k,
                const std::string& v) {
    const auto parsed = parse_double_checked(v);
    if (!parsed) bad_value(k, v, "seconds as a real number");
    ref(cfg) = core::SimTime::seconds(*parsed);
  };
  return f;
}

// Accessor shorthands. Each returns a reference into the config so one
// function serves both get and set.
#define REF(expr) +[](ScenarioConfig& c) -> decltype(c.expr)& { return c.expr; }

std::vector<Field> build_fields() {
  std::vector<Field> fields;
  auto num = [&fields](std::string key, auto ref) {
    fields.push_back(numeric_field(std::move(key), ref));
  };

  // --- top level -----------------------------------------------------------
  num("seed", REF(seed));
  num("duration_s", REF(duration_s));
  num("mobility_tick_s", REF(mobility_tick_s));
  {
    // Sharded engine selector: a count, or "auto" for the hardware thread
    // count (stored as 0; see resolve_shard_count). Serializes back as
    // "auto" so a round-tripped config resolves on the machine that runs
    // it, not the one that wrote it.
    Field f;
    f.key = "scenario.shards";
    f.get = [](const ScenarioConfig& cfg) {
      return cfg.shards == 0 ? std::string("auto") : fmt_value(cfg.shards);
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "auto") {
        cfg.shards = 0;
        return;
      }
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed <= 0 ||
          *parsed > std::numeric_limits<int>::max()) {
        bad_value(k, v, "a positive integer or 'auto'");
      }
      cfg.shards = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  {
    Field f;
    f.key = "scenario.shard_threads";
    f.get = [](const ScenarioConfig& cfg) {
      return fmt_value(cfg.shard_threads);
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed < 0 ||
          *parsed > std::numeric_limits<int>::max()) {
        bad_value(k, v, "a non-negative integer (0 = one thread per shard)");
      }
      cfg.shard_threads = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  {
    // `map.source` precedes `mobility` so the parse order lets an explicit
    // mobility line re-settle the alias (see the header comment).
    Field f;
    f.key = "map.source";
    f.get = [](const ScenarioConfig& cfg) {
      return cfg.map.source == MapSource::kFile ? std::string("file")
                                                : std::string("grid");
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "grid") {
        cfg.map.source = MapSource::kGrid;
      } else if (v == "file") {
        cfg.map.source = MapSource::kFile;
        // Alias: an imported map implies driving on it. Set mobility
        // afterwards to override (e.g. trace playback recorded on the map).
        cfg.mobility = MobilityKind::kGraph;
      } else {
        bad_value(k, v, "grid|file");
      }
    };
    fields.push_back(std::move(f));
  }
  fields.push_back(string_field("map.file", REF(map.file)));
  num("map.trace_tolerance_m", REF(map.trace_tolerance_m));
  {
    Field f;
    f.key = "mobility";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.mobility); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "highway") {
        cfg.mobility = MobilityKind::kHighway;
      } else if (v == "manhattan") {
        cfg.mobility = MobilityKind::kManhattan;
      } else if (v == "trace") {
        cfg.mobility = MobilityKind::kTrace;
      } else if (v == "graph") {
        cfg.mobility = MobilityKind::kGraph;
      } else {
        bad_value(k, v, "highway|manhattan|trace|graph");
      }
    };
    fields.push_back(std::move(f));
  }
  {
    // `vehicles` first so `vehicles_per_direction` re-settles it on parse
    // (see header comment about the alias).
    Field f;
    f.key = "vehicles";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.vehicles); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed <= 0 ||
          *parsed > std::numeric_limits<int>::max()) {
        bad_value(k, v, "a positive integer");
      }
      cfg.vehicles = static_cast<int>(*parsed);
      cfg.vehicles_per_direction = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  {
    // A zero population builds a nodeless network; reject it here so sweeps
    // and --set fail loudly instead of tripping the Scenario invariant.
    Field f;
    f.key = "vehicles_per_direction";
    f.get = [](const ScenarioConfig& cfg) {
      return fmt_value(cfg.vehicles_per_direction);
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed <= 0 ||
          *parsed > std::numeric_limits<int>::max()) {
        bad_value(k, v, "a positive integer");
      }
      cfg.vehicles_per_direction = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  num("comm_range_m", REF(comm_range_m));
  {
    // Legacy alias predating `phy.model`: reads as "is the PHY the shadowing
    // model", writes the unitdisk/shadowing subset. Registered before
    // `phy.model` so a later explicit phy.model line re-settles it on parse.
    Field f;
    f.key = "shadowing";
    f.get = [](const ScenarioConfig& cfg) {
      return fmt_value(cfg.phy == PhyModel::kShadowing);
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_bool_checked(v);
      if (!parsed) bad_value(k, v, "true|false");
      cfg.phy = *parsed ? PhyModel::kShadowing : PhyModel::kUnitDisk;
    };
    fields.push_back(std::move(f));
  }
  {
    Field f;
    f.key = "phy.model";
    f.get = [](const ScenarioConfig& cfg) {
      switch (cfg.phy) {
        case PhyModel::kShadowing: return std::string("shadowing");
        case PhyModel::kNakagami: return std::string("nakagami");
        case PhyModel::kUnitDisk: break;
      }
      return std::string("unitdisk");
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "unitdisk") {
        cfg.phy = PhyModel::kUnitDisk;
      } else if (v == "shadowing") {
        cfg.phy = PhyModel::kShadowing;
      } else if (v == "nakagami") {
        cfg.phy = PhyModel::kNakagami;
      } else {
        bad_value(k, v, "unitdisk|shadowing|nakagami");
      }
    };
    fields.push_back(std::move(f));
  }
  {
    // Validated here (not asserted in the scenario) so a bad sweep value
    // fails as a catchable config error.
    Field f;
    f.key = "phy.nakagami_m";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.nakagami_m); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      // Accept integral-valued reals too ("1.0"): m is mathematically a real
      // shape parameter, the closed-form Erlang tail just needs it integer.
      auto parsed = parse_int_checked(v);
      if (!parsed) {
        const auto real = parse_double_checked(v);
        if (real && *real == static_cast<long long>(*real)) {
          parsed = static_cast<long long>(*real);
        }
      }
      if (!parsed || *parsed < 1 || *parsed > 64) {
        bad_value(k, v, "an integer in [1, 64]");
      }
      cfg.nakagami_m = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  num("rsu_count", REF(rsu_count));
  num("bus_count", REF(bus_count));
  fields.push_back(string_field("protocol", REF(protocol)));
  num("yan_tickets", REF(yan_tickets));
  num("car_cell_m", REF(car_cell_m));
  num("sample_reachability", REF(sample_reachability));
  num("density.incremental", REF(density_incremental));
  num("lifetime.memo", REF(lifetime_memo));
  num("lifetime.interp", REF(lifetime_interp));
  fields.push_back(geometry_field("zone.geometry", REF(zone_geometry)));
  fields.push_back(geometry_field("grid.geometry", REF(grid_geometry)));
  fields.push_back(geometry_field("gvgrid.geometry", REF(gvgrid_geometry)));

  // --- etx.* / flood.* (link-quality family; routing/linkquality/) ---------
  {
    // Bounds mirror the LinkQualityTable assertions so a bad sweep value
    // fails as a catchable config error, not a crash inside the estimator.
    Field f;
    f.key = "etx.window";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.etx.window); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed < 1 || *parsed > 64) {
        bad_value(k, v, "an integer in [1, 64]");
      }
      cfg.etx.window = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  {
    Field f;
    f.key = "etx.hello_weight";
    f.get = [](const ScenarioConfig& cfg) {
      return fmt_value(cfg.etx.hello_weight);
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_double_checked(v);
      if (!parsed || !(*parsed > 0.0) || *parsed > 1.0) {
        bad_value(k, v, "a real number in (0, 1]");
      }
      cfg.etx.hello_weight = *parsed;
    };
    fields.push_back(std::move(f));
  }
  {
    Field f;
    f.key = "flood.suppression";
    f.get = [](const ScenarioConfig& cfg) {
      return cfg.flood_suppression == routing::FloodSuppression::kEtx
                 ? std::string("etx")
                 : std::string("none");
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "none") {
        cfg.flood_suppression = routing::FloodSuppression::kNone;
      } else if (v == "etx") {
        cfg.flood_suppression = routing::FloodSuppression::kEtx;
      } else {
        bad_value(k, v, "none|etx");
      }
    };
    fields.push_back(std::move(f));
  }

  // --- highway.* -----------------------------------------------------------
  num("highway.length", REF(highway.length));
  num("highway.lanes_per_direction", REF(highway.lanes_per_direction));
  num("highway.bidirectional", REF(highway.bidirectional));
  num("highway.lane_width", REF(highway.lane_width));
  num("highway.median_gap", REF(highway.median_gap));
  num("highway.lane_change_prob", REF(highway.lane_change_prob));
  num("highway.idm.desired_speed", REF(highway.idm.desired_speed));
  num("highway.idm.desired_speed_stddev", REF(highway.idm.desired_speed_stddev));
  num("highway.idm.time_headway", REF(highway.idm.time_headway));
  num("highway.idm.min_gap", REF(highway.idm.min_gap));
  num("highway.idm.max_accel", REF(highway.idm.max_accel));
  num("highway.idm.comfortable_decel", REF(highway.idm.comfortable_decel));
  num("highway.idm.vehicle_length", REF(highway.idm.vehicle_length));

  // --- manhattan.* ---------------------------------------------------------
  num("manhattan.streets_x", REF(manhattan.streets_x));
  num("manhattan.streets_y", REF(manhattan.streets_y));
  num("manhattan.block", REF(manhattan.block));
  num("manhattan.speed_mean", REF(manhattan.speed_mean));
  num("manhattan.speed_stddev", REF(manhattan.speed_stddev));
  num("manhattan.turn_prob_left", REF(manhattan.turn_prob_left));
  num("manhattan.turn_prob_right", REF(manhattan.turn_prob_right));

  // --- graph.* (graph-constrained mobility) --------------------------------
  num("graph.speed_mean", REF(graph.speed_mean));
  num("graph.speed_stddev", REF(graph.speed_stddev));
  num("graph.replan_prob", REF(graph.replan_prob));
  num("graph.min_trip_m", REF(graph.min_trip_m));

  // --- traffic.* -----------------------------------------------------------
  num("traffic.flows", REF(traffic.flows));
  num("traffic.rate_pps", REF(traffic.rate_pps));
  num("traffic.payload_bytes", REF(traffic.payload_bytes));
  num("traffic.start_s", REF(traffic.start_s));
  num("traffic.stop_s", REF(traffic.stop_s));
  num("traffic.min_pair_distance_m", REF(traffic.min_pair_distance_m));

  // --- hello.* (times in seconds) ------------------------------------------
  fields.push_back(simtime_field("hello.interval_s", REF(hello.interval)));
  num("hello.jitter_fraction", REF(hello.jitter_fraction));
  fields.push_back(simtime_field("hello.expiry_s", REF(hello.expiry)));
  num("hello.beacon_bytes", REF(hello.beacon_bytes));

  // --- net.* ---------------------------------------------------------------
  num("net.bitrate_bps", REF(net.bitrate_bps));
  fields.push_back(simtime_field("net.slot_time_s", REF(net.slot_time)));
  num("net.contention_window", REF(net.contention_window));
  num("net.unicast_retry_limit", REF(net.unicast_retry_limit));
  num("net.queue_capacity", REF(net.queue_capacity));
  num("net.phy_overhead_bytes", REF(net.phy_overhead_bytes));
  fields.push_back(simtime_field("net.backbone_delay_s", REF(net.backbone_delay)));
  num("net.interference_range_factor", REF(net.interference_range_factor));

  // --- signal.* ------------------------------------------------------------
  num("signal.tx_power_dbm", REF(signal.tx_power_dbm));
  num("signal.ref_distance_m", REF(signal.ref_distance_m));
  num("signal.ref_loss_db", REF(signal.ref_loss_db));
  num("signal.path_loss_exponent", REF(signal.path_loss_exponent));
  num("signal.shadowing_sigma_db", REF(signal.shadowing_sigma_db));
  num("signal.rx_threshold_dbm", REF(signal.rx_threshold_dbm));

  // --- fault.* (deterministic fault injection; sim/fault_plan.h) -----------
  num("fault.enabled", REF(fault.enabled));
  fields.push_back(string_field("fault.plan", REF(fault.plan)));
  num("fault.vehicle_mtbf_s", REF(fault.vehicle_mtbf_s));
  num("fault.vehicle_downtime_s", REF(fault.vehicle_downtime_s));
  num("fault.rsu_mtbf_s", REF(fault.rsu_mtbf_s));
  num("fault.rsu_downtime_s", REF(fault.rsu_downtime_s));

  return fields;
}

#undef REF

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = build_fields();
  return kFields;
}

const Field* find_field(const std::string& key) {
  for (const Field& f : fields()) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

const Field& field_or_throw(const std::string& key) {
  const Field* f = find_field(key);
  if (f == nullptr) {
    throw std::invalid_argument("unknown config key '" + key + "'");
  }
  return *f;
}

}  // namespace

std::optional<long long> parse_int_checked(const std::string& s) {
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double_checked(const std::string& s) {
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<bool> parse_bool_checked(const std::string& s) {
  if (s == "true" || s == "1" || s == "on" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "off" || s == "no") return false;
  return std::nullopt;
}

const std::vector<std::string>& config_keys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (const Field& f : fields()) keys.push_back(f.key);
    return keys;
  }();
  return kKeys;
}

bool config_has_key(const std::string& key) {
  return find_field(key) != nullptr;
}

std::string config_get(const ScenarioConfig& cfg, const std::string& key) {
  return field_or_throw(key).get(cfg);
}

void config_set(ScenarioConfig& cfg, const std::string& key,
                const std::string& value) {
  field_or_throw(key).set(cfg, key, value);
}

std::string serialize_config(const ScenarioConfig& cfg) {
  std::string out;
  for (const Field& f : fields()) {
    out += f.key;
    out += '=';
    out += f.get(cfg);
    out += '\n';
  }
  return out;
}

ScenarioConfig parse_config(const std::string& text) {
  ScenarioConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line without '=': '" + line + "'");
    }
    config_set(cfg, line.substr(0, eq), line.substr(eq + 1));
  }
  return cfg;
}

std::string config_digest(const ScenarioConfig& cfg) {
  const std::string text = serialize_config(cfg);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  static const char* kHex = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return hex;
}

}  // namespace vanet::sim
