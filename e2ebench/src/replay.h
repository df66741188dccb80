// The traced run's in-process replay: the workload's generated requests
// go through each module's public functions, timed from the benchmark's
// own files, so the program under test is unchanged.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "inputs.h"
#include "util.h"

namespace e2e {

struct ReplayInput {
  const std::vector<BenchTable>* tables = nullptr;
  std::vector<Op> ops;  ///< a prefix of the workload's stream
  bool by_ref = true;
  std::string verifier_weights, qa_weights;  ///< weight file contents
  std::string work_dir;     ///< scratch directory for an in-process store
  std::string recover_dir;  ///< a stopped backend's store dir, or empty
  std::string spans_path;   ///< where the span log is written
};

/// Replays `in` and adds every per-layer metric to `report`.
void RunReplay(const ReplayInput& in, Report* report);

}  // namespace e2e

#endif  // E2EBENCH_REPLAY_H_
