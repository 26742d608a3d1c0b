// Entry points of the three workloads.
#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include "bench_util.hpp"

namespace perfbench {

Report RunPowerlawRange(const RunConfig& cfg);
Report RunMoleculeChurn(const RunConfig& cfg);
Report RunPairEstimate(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
