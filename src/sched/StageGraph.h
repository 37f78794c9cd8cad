#ifndef BZK_SCHED_STAGEGRAPH_H_
#define BZK_SCHED_STAGEGRAPH_H_

/**
 * @file
 * The per-task dataflow the scheduler executes: an ordered chain of
 * module-group stages (linear-time encoder -> Merkle forest ->
 * Fiat-Shamir -> sum-check, the paper's Figure 7) with per-stage
 * lane-cycle costs, pipeline depths, and host-transfer byte budgets.
 *
 * A StageGraph is a pure cost description — it holds no device state —
 * so front-ends can build one per task shape and hand many tasks that
 * share a graph to the PipelineScheduler.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bzk::sched {

/** The module group a pipeline stage belongs to (paper Fig. 7). */
enum class StageKind
{
    Encoder,
    Merkle,
    FiatShamir,
    Sumcheck,
};

/** Number of stage kinds (for per-kind cost tables). */
constexpr size_t kNumStageKinds = 4;

/**
 * One module group of the per-task pipeline. Costs are amortized per
 * task: @c lane_cycles is the total lane-cycle budget the module spends
 * on one task, @c depth the number of pipeline cycles a task occupies
 * inside the module (its sub-stage count).
 */
struct Stage
{
    StageKind kind = StageKind::Encoder;
    /** Lane-cycles this module spends per task. */
    double lane_cycles = 0.0;
    /** Pipeline sub-stages (cycles a task spends inside the module). */
    size_t depth = 0;
    /** Host-to-device bytes streamed into the module per task. */
    uint64_t h2d_bytes = 0;
    /** Device-to-host bytes streamed out of the module per task. */
    uint64_t d2h_bytes = 0;
    /** Host-staging buffer bytes held while a task transits the stage. */
    uint64_t staging_bytes = 0;
};

/**
 * Ordered stage chain for one proof task, plus the device residency the
 * task needs while any of its stages is live (dynamic loading keeps one
 * task's slice resident per pipeline region).
 */
class StageGraph
{
  public:
    void
    addStage(const Stage &stage)
    {
        stages_.push_back(stage);
    }

    const std::vector<Stage> &
    stages() const
    {
        return stages_;
    }

    /** First stage of @p kind, or nullptr when the graph has none. */
    const Stage *
    findStage(StageKind kind) const
    {
        for (const Stage &s : stages_)
            if (s.kind == kind)
                return &s;
        return nullptr;
    }

    /** Lane-cycles of the first stage of @p kind (0 when absent). */
    double
    cyclesOf(StageKind kind) const
    {
        const Stage *s = findStage(kind);
        return s ? s->lane_cycles : 0.0;
    }

    /** Total lane-cycles per task, summed in stage order. */
    double
    totalCycles() const
    {
        double total = 0.0;
        for (const Stage &s : stages_)
            total += s.lane_cycles;
        return total;
    }

    /** Total pipeline depth in cycles (sum of stage depths). */
    size_t
    totalDepth() const
    {
        size_t depth = 0;
        for (const Stage &s : stages_)
            depth += s.depth;
        return depth;
    }

    /** Host-to-device bytes streamed per task. */
    uint64_t
    h2dBytes() const
    {
        uint64_t bytes = 0;
        for (const Stage &s : stages_)
            bytes += s.h2d_bytes;
        return bytes;
    }

    /** Device-to-host bytes streamed per task. */
    uint64_t
    d2hBytes() const
    {
        uint64_t bytes = 0;
        for (const Stage &s : stages_)
            bytes += s.d2h_bytes;
        return bytes;
    }

    void
    setDeviceBytes(uint64_t bytes)
    {
        device_bytes_ = bytes;
    }

    /** Device bytes resident while the task occupies the pipeline. */
    uint64_t
    deviceBytes() const
    {
        return device_bytes_;
    }

  private:
    std::vector<Stage> stages_;
    uint64_t device_bytes_ = 0;
};

} // namespace bzk::sched

#endif // BZK_SCHED_STAGEGRAPH_H_
