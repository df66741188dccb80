// Workload definitions (read from e2ebench/workloads.json) and the runner
// that drives one workload against the real binaries.
#ifndef E2EBENCH_SERVING_H_
#define E2EBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "inputs.h"

namespace e2e {

struct Env {
  std::string bin_dir;  ///< build tree holding serve/, net/, selftrain/
  std::string out_dir;  ///< scratch space of the run
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workload;
};

/// Fixed parameters of one workload. Rates, sizes and thread counts are
/// stored, never derived at run time, so two commits see the same load.
/// Only what differs between workloads is here; the rest are constants
/// of serving.cc.
struct WorkloadConfig {
  std::string name;
  /// "distinct": every request is a new (table, query) pair over tables
  /// registered at set-up; "hot": inline tables, a warm-up pass over a hot
  /// set, then `repeat_share` of requests repeat a hot pair; "ingest":
  /// fresh tables are put and then read by table_ref, 1 put to 4 reads.
  std::string stream;
  TableShape tables;
  bool by_ref = true;      ///< requests name tables by table_ref
  bool routed = false;     ///< uctr_router --put-replicas 2 over 2 backends
  bool durable = false;    ///< backends run with --store-dir
  size_t backends = 0;
  size_t workers = 0;      ///< --workers per backend
  size_t depth = 0;        ///< closed-loop pipeline per connection
  /// Requests of the closed loop: a fixed count, sized to take about
  /// `closed_share` of --seconds on the seed commit.
  uint64_t closed_requests = 0;
  double closed_share = 0;  ///< of --seconds; the open loop gets the rest
  double open_rate = 0;     ///< requests per second in the open loop
  double repeat_share = 0;  ///< "hot" only
  size_t hot_pairs = 0;     ///< "hot" only
  size_t replay_requests = 0;  ///< traced in-process replay length
  size_t digest_requests = 0;
  std::string digest;  ///< ordered-answer digest at the digest seed
  /// selftrain_fv only: the uctr_selftrain flags (sizes, rounds, threads).
  std::vector<std::string> selftrain_args;
};

uctr::Result<WorkloadConfig> LoadWorkload(const std::string& path,
                                          const std::string& name);

/// Runs the workload, prints the report, and returns the exit code: 0 when
/// every output check passed.
int RunWorkload(const Env& env, const WorkloadConfig& config);

}  // namespace e2e

#endif  // E2EBENCH_SERVING_H_
