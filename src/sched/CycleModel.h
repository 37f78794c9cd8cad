#ifndef BZK_SCHED_CYCLEMODEL_H_
#define BZK_SCHED_CYCLEMODEL_H_

/**
 * @file
 * Closed-form steady-state pacing of the pipeline on a given device:
 * one task is admitted per cycle, and the cycle is bounded by the
 * slower of its computation and its (optionally overlapped) input
 * transfer. This is the analytic counterpart of one PipelineScheduler
 * cycle, used by front-ends that need the admission interval without
 * stepping the device timeline (the proof server's in-flight window,
 * the multi-GPU dispatcher's makespan predictions).
 */

#include <cstddef>

#include "sched/StageGraph.h"

namespace bzk::gpusim {
class Device;
} // namespace bzk::gpusim

namespace bzk::sched {

/** Steady-state cycle timing for one task shape on one device. */
class CycleModel
{
  public:
    CycleModel(const StageGraph &graph, const gpusim::Device &dev,
               bool overlap_transfers);

    /** Healthy per-cycle compute time, ms (incl. launch overhead). */
    double
    compMs() const
    {
        return comp_ms_;
    }

    /** Healthy per-cycle input-transfer time, ms. */
    double
    commMs() const
    {
        return comm_ms_;
    }

    /** Healthy admission interval, ms. */
    double
    cycleMs() const
    {
        return cycle_ms_;
    }

    /** Pipeline depth in cycles (graph total depth). */
    size_t
    depth() const
    {
        return depth_;
    }

  private:
    double comp_ms_ = 0.0;
    double comm_ms_ = 0.0;
    double cycle_ms_ = 0.0;
    size_t depth_ = 0;
};

} // namespace bzk::sched

#endif // BZK_SCHED_CYCLEMODEL_H_
