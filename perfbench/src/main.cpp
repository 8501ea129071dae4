// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--root DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --root is the checkout root (the town workload reads maps/town.csv there).
// The human-readable table goes first; the last stdout line is the JSON
// result. Exit 0 with a result (check `correct`), 2 on a usage error.
#include <sched.h>

#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--root DIR]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--root") {
        opt.root = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage("unknown or missing --workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
  opt.threads = usable_cpus();

  const perfbench::Outcome out = perfbench::run_workload(opt);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  perfbench::Context context = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"mode", opt.trace ? "traced (per-layer)" : "untraced (end-to-end)"},
      {"seconds", std::to_string(opt.seconds)},
      {"nproc", std::to_string(opt.threads)},
      {"hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
      {"build_type", build_type},
      {"compiler", __VERSION__},
  };
  if (build_type != "Release") {
    context.push_back({"WARNING", "build type " + build_type +
                                      " is not Release; timings are not "
                                      "comparable with Release numbers"});
  }
  context.insert(context.end(), out.context.begin(), out.context.end());
  std::string pinned = out.ledger.pinned_keys().empty() ? "none" : "";
  for (const std::string& k : out.ledger.pinned_keys()) {
    pinned += (pinned.empty() ? "" : ", ") + k;
  }
  context.push_back({"digest pins checked", pinned});

  std::cout << perfbench::format_table("perfbench " + opt.workload, context,
                                       out.metrics, out.ledger)
            << perfbench::format_json(out.metrics, out.ledger) << std::endl;
  return 0;
}
