#include "sched/LaneAllocator.h"

namespace bzk::sched {

std::vector<double>
LaneAllocator::proportionalSplit(const StageGraph &graph) const
{
    std::vector<double> split;
    split.reserve(graph.stages().size());
    double total = graph.totalCycles();
    for (const Stage &s : graph.stages()) {
        if (total > 0.0)
            split.push_back(lanes_ * s.lane_cycles / total);
        else
            split.push_back(0.0);
    }
    return split;
}

StageKindCosts
LaneAllocator::kindSplit(const StageKindCosts &weights) const
{
    StageKindCosts split{};
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        return split;
    for (size_t k = 0; k < kNumStageKinds; ++k)
        split[k] = lanes_ * weights[k] / total;
    return split;
}

StageKindCosts
LaneAllocator::paperRatioWeights()
{
    StageKindCosts weights{};
    weights[static_cast<size_t>(StageKind::Encoder)] = 35.0;
    weights[static_cast<size_t>(StageKind::Merkle)] = 12.0;
    weights[static_cast<size_t>(StageKind::FiatShamir)] = 0.0;
    weights[static_cast<size_t>(StageKind::Sumcheck)] = 113.0;
    return weights;
}

StageKindCosts
LaneAllocator::measuredKindCosts(std::span<const ProofTask> tasks)
{
    StageKindCosts costs{};
    for (const ProofTask &task : tasks)
        for (const Stage &s : task.graph.stages())
            costs[static_cast<size_t>(s.kind)] += s.lane_cycles;
    return costs;
}

double
LaneAllocator::pacedCycleCycles(const StageGraph &graph,
                                const StageKindCosts &kind_lanes)
{
    double cycle = 0.0;
    for (const Stage &s : graph.stages()) {
        if (s.lane_cycles <= 0.0)
            continue;
        double lanes = std::max(1.0, kind_lanes[static_cast<size_t>(s.kind)]);
        cycle = std::max(cycle, s.lane_cycles / lanes);
    }
    return cycle;
}

std::vector<double>
LaneAllocator::halvingSplit(size_t rounds) const
{
    std::vector<double> split(rounds, 0.0);
    if (rounds == 0)
        return split;
    // Weights 2^-(i) normalized: sum of 2^-i for i in [0, rounds) is
    // 2 - 2^(1-rounds), so the head stage gets just over half the
    // budget and each later stage half of its predecessor.
    double weight_sum = 0.0;
    double w = 1.0;
    for (size_t i = 0; i < rounds; ++i, w *= 0.5)
        weight_sum += w;
    w = 1.0;
    for (size_t i = 0; i < rounds; ++i, w *= 0.5)
        split[i] = lanes_ * w / weight_sum;
    return split;
}

} // namespace bzk::sched
