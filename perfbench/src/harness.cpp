#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile tail_percentile(std::vector<double> v, double cap,
                           std::size_t min_beyond) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank_of = [n](double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return std::clamp<std::size_t>(rank, 1, n);
  };
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (q > cap + 1e-12) continue;
    const std::size_t rank = rank_of(q);
    if (n - rank >= min_beyond) {
      p.q = q;
      p.value = v[rank - 1];
      p.beyond = n - rank;
      return p;
    }
  }
  p.q = 0.5;
  p.value = median(v);
  p.beyond = n - rank_of(0.5);
  return p;
}

double worker_busy_frac(const std::vector<double>& run_walls_s, int jobs,
                        double sweep_wall_s) {
  if (jobs <= 0 || sweep_wall_s <= 0.0) return 0.0;
  double busy = 0.0;
  for (const double w : run_walls_s) busy += w;
  return busy / (static_cast<double>(jobs) * sweep_wall_s);
}

void BestTimes::add(std::size_t input, double seconds) {
  if (input >= best_.size()) {
    best_.resize(input + 1, std::numeric_limits<double>::infinity());
  }
  best_[input] = std::min(best_[input], seconds);
}

double BestTimes::sum() const {
  double total = 0.0;
  for (const double b : best_) total += b;
  return total;
}

double BestTimes::mean() const {
  return best_.empty() ? 0.0 : sum() / static_cast<double>(best_.size());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- ledger ---

Ledger::Ledger(std::map<std::string, Pin> pins, bool pinned_seed)
    : pins_{std::move(pins)}, pinned_seed_{pinned_seed} {}

void Ledger::fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

bool Ledger::pin_matches(const std::string& key, const std::string& digest,
                         std::uint64_t events) {
  if (!pinned_seed_) return true;
  const auto pin = pins_.find(key);
  if (pin == pins_.end()) return true;
  if (std::find(pinned_keys_.begin(), pinned_keys_.end(), key) ==
      pinned_keys_.end()) {
    pinned_keys_.push_back(key);
  }
  return digest == pin->second.digest && events == pin->second.events;
}

bool Ledger::check(const RunOutcome& run) {
  ++attempted_;
  if (!run.error.empty()) {
    fail(run.key + ": " + run.error);
    return false;
  }
  if (run.delivered > run.originated) {
    fail(run.key + ": delivered " + std::to_string(run.delivered) +
         " > originated " + std::to_string(run.originated));
    return false;
  }
  if (!pin_matches(run.key, run.digest, run.events)) {
    const Pin& pin = pins_.at(run.key);
    fail(run.key + ": digest " + run.digest + " / events " +
         std::to_string(run.events) + " differ from the pin " + pin.digest +
         " / " + std::to_string(pin.events));
    return false;
  }
  const auto [it, first] = seen_.emplace(run.key, run.digest);
  if (!first && it->second != run.digest) {
    fail(run.key + ": digest " + run.digest +
         " differs from an earlier run of the same config (" + it->second +
         ")");
    return false;
  }
  return true;
}

double Ledger::failed_frac() const {
  return attempted_ > 0 ? static_cast<double>(failed_) /
                              static_cast<double>(attempted_)
                        : 0.0;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------- reporting ---

namespace {

std::string number(double v) {
  // JSON has no NaN/Inf; a metric that cannot be formed reads 0 and the
  // table's note says why.
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string format_table(const std::string& title, const Context& context,
                         const std::vector<Metric>& metrics,
                         const Ledger& ledger) {
  std::ostringstream os;
  os << "== " << title << "\n";
  for (const auto& [k, v] : context) os << "   " << k << ": " << v << "\n";
  char line[256];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "   %-34s %16.6g %-6s n=%-6zu %s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                  m.note.c_str());
    os << line;
  }
  std::snprintf(line, sizeof line,
                "   %-34s %16.6g %-6s n=%-6llu failed=%llu\n", "failed_frac",
                ledger.failed_frac(), "ratio",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
  os << line;
  for (const std::string& f : ledger.failures()) os << "   FAILED " << f << "\n";
  return os.str();
}

std::string format_json(const std::vector<Metric>& metrics,
                        const Ledger& ledger) {
  std::ostringstream os;
  os << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted()
     << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
