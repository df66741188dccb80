#ifndef UCTR_IR_PLAN_CACHE_H_
#define UCTR_IR_PLAN_CACHE_H_

#include <cstddef>

namespace uctr::obs {
class MetricsRegistry;
}

namespace uctr::ir {

/// \brief Inert stand-in for the retired compiled-plan cache. Programs
/// always run on their family's tree-walk executor, so this class holds
/// no state and does nothing; it exists only because the end-to-end
/// benchmark driver (e2ebench/src/replay.cc) still constructs one and
/// hands it to ExecOptions::plan_cache. Nothing else may use it; it goes
/// away together with that use.
class PlanCache {
 public:
  explicit PlanCache(size_t /*capacity*/, size_t /*num_shards*/ = 8,
                     obs::MetricsRegistry* /*metrics*/ = nullptr) {}
};

}  // namespace uctr::ir

#endif  // UCTR_IR_PLAN_CACHE_H_
