#ifndef BZK_SCHED_PIPELINESCHEDULER_H_
#define BZK_SCHED_PIPELINESCHEDULER_H_

/**
 * @file
 * The cycle-stepping pipeline engine of the paper's Figure 7, extracted
 * from PipelinedZkpSystem into a reusable layer. The scheduler owns the
 * policy the paper welds together:
 *
 *  - one task admitted per cycle, priority-first then FIFO;
 *  - static proportional lane partition across module groups, with the
 *    whole partition re-scaled onto the survivors on degraded cycles
 *    (LaneAllocator);
 *  - dynamic loading: one task's streamed input per cycle on a
 *    dedicated h2d stream, one task's staged layers back per
 *    completion on a d2h stream (or everything bulk-preloaded when the
 *    ablation disables it);
 *  - multi-stream transfer/compute overlap (or a single stream when
 *    the ablation disables it);
 *  - fault hooks against gpusim::Device: failed-lane degradation and a
 *    Merkle root re-check on every admission's staged layers, with
 *    detected corruption re-enqueuing the task.
 *
 * Tasks may have heterogeneous stage graphs (mixed n_vars): each
 * in-flight task holds its static 1/depth share of the device, the
 * cycle is paced by the costliest in-flight shape, and per-task
 * admission/completion cycles are reported in TaskStats. For uniform
 * batches the engine reproduces the pre-refactor PipelinedZkpSystem
 * loop operation for operation (pinned by test_sched goldens).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/ProofTask.h"

namespace bzk::gpusim {
class Device;
} // namespace bzk::gpusim

namespace bzk::obs {
class MetricsRegistry;
class TraceRecorder;
} // namespace bzk::obs

namespace bzk::sched {

/**
 * How the lane budget is partitioned across module groups.
 *
 * Proportional is the legacy per-class policy: each task class gets a
 * partition proportional to its own stage costs, which makes the cycle
 * pace exactly total_cycles / lanes (pinned bit-identical by the
 * test_sched goldens). The other two policies compute one global
 * kind->lanes partition for the whole batch, so the most-contended
 * module group paces each class — the setting where a hard-coded ratio
 * calibrated for one protocol loses to a measured split on a
 * heterogeneous-protocol batch.
 */
enum class LanePolicy
{
    /** Per-class proportional split (legacy, bit-identical goldens). */
    Proportional,
    /** The paper's hard-coded 35:12:113 module-group ratio. */
    FixedRatio,
    /** Global split from amortized per-stage costs over the batch. */
    MeasuredCost,
};

/** Scheduler policy knobs (mirrors the system-level ablations). */
struct SchedulerOptions
{
    /** Seed for the Merkle root re-check's staged-layer sampling. */
    uint64_t seed = 2024;
    /** Overlap host transfers with compute via multi-stream. */
    bool overlap_transfers = true;
    /** Dynamic loading (one task's data resident per region). */
    bool dynamic_loading = true;
    /** Lane-partition policy across module groups. */
    LanePolicy lane_policy = LanePolicy::Proportional;
};

/** Aggregate outcome of one scheduler run. */
struct SchedulerResult
{
    /** Device time when the last cycle's output finished, ms. */
    double total_ms = 0.0;
    /** Device time when the first task completed, ms. */
    double first_latency_ms = 0.0;
    /** Pipeline cycles stepped. */
    size_t cycles_run = 0;
    /** Admissions, including re-runs after failed re-checks. */
    size_t admitted = 0;
    /** Host-to-device bytes attributed to admissions. */
    uint64_t h2d_bytes_streamed = 0;
    /** Peak device allocation over the run. */
    uint64_t peak_device_bytes = 0;
    /** Lane-milliseconds of busy compute. */
    double busy_lane_ms = 0.0;
    /** busy_lane_ms over makespan times the lane budget. */
    double utilization = 0.0;

    /// @name Fault outcomes (all zero without an injector)
    /// @{

    /** Cycles run with part of the lane budget failed. */
    size_t degraded_cycles = 0;
    /** Mean lane fraction re-allocated per degraded cycle. */
    double relocated_lane_fraction = 0.0;
    /** Corrupted staged Merkle layers caught by the root re-check. */
    size_t corrupt_detected = 0;
    /** Tasks re-run after their staged layers failed the re-check. */
    size_t retried_tasks = 0;

    /// @}

    /** Per-task accounting, in admission order. */
    std::vector<TaskStats> tasks;
};

/** Cycle-stepping pipeline engine against a simulated device. */
class PipelineScheduler
{
  public:
    PipelineScheduler(gpusim::Device &dev, SchedulerOptions opt = {});

    /**
     * Attach observability sinks (either may be nullptr, the default).
     * @p metrics receives the per-cycle bzk_cycle_ms histogram plus
     * per-task queue-wait and turnaround histograms; @p trace receives
     * per-cycle spans on the encoder / Merkle / sum-check lane tracks
     * and fault/retry instants. Pure observers; neither is owned.
     */
    void
    setObservability(obs::MetricsRegistry *metrics,
                     obs::TraceRecorder *trace)
    {
        metrics_ = metrics;
        trace_ = trace;
    }

    /**
     * Step the pipeline until every task (and every re-run forced by a
     * failed re-check) has drained. Admission order is priority-first,
     * ties in submission order.
     */
    SchedulerResult run(std::vector<ProofTask> tasks);

  private:
    gpusim::Device &dev_;
    SchedulerOptions opt_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace bzk::sched

#endif // BZK_SCHED_PIPELINESCHEDULER_H_
