#include "sched/CycleModel.h"

#include <algorithm>

#include "gpusim/Calibration.h"
#include "gpusim/Device.h"

namespace bzk::sched {

CycleModel::CycleModel(const StageGraph &graph, const gpusim::Device &dev,
                       bool overlap_transfers)
{
    double cores = dev.spec().cuda_cores;
    comp_ms_ = graph.totalCycles() / (cores * dev.spec().cyclesPerMs()) +
               gpusim::kKernelLaunchMs;
    comm_ms_ = dev.copyDurationMs(graph.h2dBytes());
    cycle_ms_ = overlap_transfers ? std::max(comp_ms_, comm_ms_)
                                  : comp_ms_ + comm_ms_;
    depth_ = graph.totalDepth();
}

} // namespace bzk::sched
