// e2ebench: one end-to-end benchmark run of the UCTR stack.
//
//   e2ebench --bin-dir DIR --out-dir DIR --config workloads.json
//            --workload NAME --seed N --seconds S --trace 0|1
//
// Normally started by e2ebench/run.py, which builds everything first. With
// --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// runs the workload once more with the in-process traced replay and
// reports the per-layer metrics. Every output is checked; the process
// exits nonzero when a check fails. The last stdout line is the JSON
// result.
#include <sys/prctl.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "serving.h"

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "e2ebench: unexpected argument " << key << "\n";
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"bin-dir", "out-dir", "config", "workload", "seed", "seconds"}) {
    if (flags.count(required) == 0) {
      std::cerr << "e2ebench: --" << required << " is required\n";
      return 2;
    }
  }
  e2e::Env env;
  env.bin_dir = flags["bin-dir"];
  env.out_dir = flags["out-dir"];
  env.workload = flags["workload"];
  env.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  env.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  env.trace = flags.count("trace") != 0 && flags["trace"] == "1";
  if (env.seconds <= 0) {
    std::cerr << "e2ebench: --seconds must be positive\n";
    return 2;
  }
  // Open-loop sends are scheduled to the microsecond; the default 50 us
  // timer slack would make every wake-up late.
  prctl(PR_SET_TIMERSLACK, 1);
  auto config = e2e::LoadWorkload(flags["config"], env.workload);
  if (!config.ok()) {
    std::cerr << "e2ebench: " << config.status().ToString() << "\n";
    return 2;
  }
  return e2e::RunWorkload(env, *config);
}
