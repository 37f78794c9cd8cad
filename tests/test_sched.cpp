/**
 * @file
 * The pipeline scheduler layer: golden parity pins proving the
 * re-hosted PipelinedZkpSystem reproduces the pre-refactor loop bit
 * for bit (proof bytes and every stat), heterogeneous-batch work
 * conservation, lane-allocation policies, degraded-lane re-allocation,
 * and the multi-GPU dispatcher's slice accounting (largest remainder,
 * idle surplus cards, per-device seeded Rng).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "core/MultiGpu.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "hash/Sha256.h"
#include "obs/Metrics.h"
#include "sched/CycleModel.h"
#include "sched/LaneAllocator.h"
#include "sched/PipelineScheduler.h"
#include "util/Hex.h"
#include "util/Rng.h"

namespace bzk {
namespace {

/** SHA-256 over the concatenated serialized proofs, hex. */
std::string
proofsSha256(const std::vector<SnarkProof<Fr>> &proofs)
{
    std::vector<uint8_t> all;
    for (const auto &p : proofs) {
        auto bytes = serializeProof(p);
        all.insert(all.end(), bytes.begin(), bytes.end());
    }
    auto digest = Sha256::digest(all);
    return toHex(std::span<const uint8_t>(digest.bytes));
}

// The goldens below were captured from the pre-refactor
// PipelinedZkpSystem::run() (the welded-in cycle loop) at %.17g, which
// round-trips doubles exactly. The rebuilt system must reproduce every
// value bit for bit: EXPECT_DOUBLE_EQ is exact equality.

TEST(SchedGolden, FunctionalV100Batch24)
{
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    SystemOptions opt;
    opt.functional = 2;
    opt.seed = 2024;
    Rng rng(2024);
    auto r = PipelinedZkpSystem(dev, opt).run(24, 10, rng);

    EXPECT_DOUBLE_EQ(r.stats.total_ms, 2.5170540433218758);
    EXPECT_DOUBLE_EQ(r.stats.first_latency_ms, 0.67296746323529433);
    EXPECT_DOUBLE_EQ(r.stats.item_latency_ms, 0.67296746323529422);
    EXPECT_DOUBLE_EQ(r.stats.throughput_per_ms, 9.5349561777092635);
    EXPECT_EQ(r.stats.peak_device_bytes, 67207168u);
    EXPECT_DOUBLE_EQ(r.stats.busy_lane_ms, 4134.7120941176472);
    EXPECT_DOUBLE_EQ(r.stats.utilization, 0.32083576354863497);
    EXPECT_DOUBLE_EQ(r.encoder_ms, 0.027909019607843137);
    EXPECT_DOUBLE_EQ(r.merkle_ms, 0.00091582414215686276);
    EXPECT_DOUBLE_EQ(r.sumcheck_ms, 0.00082352941176470592);
    EXPECT_DOUBLE_EQ(r.comm_ms_per_cycle, 0.10047907647907649);
    EXPECT_DOUBLE_EQ(r.comp_ms_per_cycle, 0.033648373161764708);
    EXPECT_DOUBLE_EQ(r.cycle_ms, 0.033648373161764708);
    EXPECT_EQ(r.h2d_bytes_per_cycle, 327680u);
    EXPECT_DOUBLE_EQ(r.lanes_encoder, 4819.6297183832276);
    EXPECT_DOUBLE_EQ(r.lanes_merkle, 158.15436422967773);
    EXPECT_DOUBLE_EQ(r.lanes_sumcheck, 142.215917387095);
    EXPECT_EQ(r.degraded_cycles, 0u);
    EXPECT_EQ(r.corrupt_detected, 0u);
    EXPECT_EQ(r.retried_tasks, 0u);
    EXPECT_TRUE(r.verified);
    ASSERT_EQ(r.proofs.size(), 2u);
    EXPECT_EQ(proofsSha256(r.proofs),
              "7afa49f7fc080fbb2f271490fe378a470711af662aa693d707ff4d"
              "cee32b6e6b");
}

TEST(SchedGolden, SimOnlyGh200Batch128)
{
    gpusim::Device dev(gpusim::DeviceSpec::gh200());
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = 2024;
    Rng rng(7);
    auto r = PipelinedZkpSystem(dev, opt).run(128, 18, rng);

    EXPECT_DOUBLE_EQ(r.stats.total_ms, 156.73408134110974);
    EXPECT_DOUBLE_EQ(r.stats.first_latency_ms, 34.610135046487613);
    EXPECT_DOUBLE_EQ(r.stats.item_latency_ms, 34.610135046487606);
    EXPECT_DOUBLE_EQ(r.stats.throughput_per_ms, 0.81666985830239402);
    EXPECT_EQ(r.stats.peak_device_bytes, 92274688u);
    EXPECT_DOUBLE_EQ(r.stats.busy_lane_ms, 2079192.3262060597);
    EXPECT_DOUBLE_EQ(r.stats.utilization, 0.7851403912289372);
    EXPECT_DOUBLE_EQ(r.encoder_ms, 0.8561072543617998);
    EXPECT_DOUBLE_EQ(r.merkle_ms, 0.051918994633838381);
    EXPECT_DOUBLE_EQ(r.sumcheck_ms, 0.049366391184573005);
    EXPECT_DOUBLE_EQ(r.comm_ms_per_cycle, 0.46037685950413221);
    EXPECT_DOUBLE_EQ(r.comp_ms_per_cycle, 0.9613926401802112);
    EXPECT_DOUBLE_EQ(r.cycle_ms, 0.9613926401802112);
    EXPECT_EQ(r.h2d_bytes_per_cycle, 83886080u);
    EXPECT_DOUBLE_EQ(r.lanes_encoder, 15108.52242082647);
    EXPECT_DOUBLE_EQ(r.lanes_merkle, 916.26287535301344);
    EXPECT_DOUBLE_EQ(r.lanes_sumcheck, 871.214703820517);
    EXPECT_TRUE(r.proofs.empty());
}

TEST(SchedGolden, FaultedV100Batch48)
{
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    auto plan = gpusim::FaultPlan::parse(
        "stall:1-4:2.5,lanes:5-25:0.1,corrupt:8,corrupt:30:2");
    gpusim::FaultInjector inj(plan, 7);
    dev.setFaultInjector(&inj);
    SystemOptions opt;
    opt.functional = 1;
    opt.seed = 7;
    Rng rng(7);
    auto r = PipelinedZkpSystem(dev, opt).run(48, 10, rng);

    EXPECT_DOUBLE_EQ(r.stats.total_ms, 4.6305931206630415);
    EXPECT_DOUBLE_EQ(r.stats.first_latency_ms, 0.78874607881599568);
    EXPECT_DOUBLE_EQ(r.stats.throughput_per_ms, 10.365842722352383);
    EXPECT_EQ(r.stats.peak_device_bytes, 67207168u);
    EXPECT_DOUBLE_EQ(r.stats.busy_lane_ms, 8583.7755294117687);
    EXPECT_DOUBLE_EQ(r.stats.utilization, 0.36205268189233175);
    EXPECT_EQ(r.degraded_cycles, 20u);
    EXPECT_DOUBLE_EQ(r.relocated_lane_fraction, 0.10000000000000002);
    EXPECT_EQ(r.corrupt_detected, 2u);
    EXPECT_EQ(r.retried_tasks, 2u);
    EXPECT_TRUE(r.verified);
    ASSERT_EQ(r.proofs.size(), 1u);
    EXPECT_EQ(proofsSha256(r.proofs),
              "3743432178de0cdbcc5a90b6a46950bffeececa84e977fffcbc30f"
              "bc66644757");
    // The two retried tasks show up in the per-task accounting.
    size_t retries = 0;
    for (const auto &ts : r.task_stats)
        retries += ts.retries;
    EXPECT_EQ(retries, 2u);
}

TEST(SchedGolden, PreloadNoOverlapA100Batch32)
{
    gpusim::Device dev(gpusim::DeviceSpec::a100());
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = 2024;
    opt.dynamic_loading = false;
    opt.overlap_transfers = false;
    Rng rng(3);
    auto r = PipelinedZkpSystem(dev, opt).run(32, 16, rng);

    EXPECT_DOUBLE_EQ(r.stats.total_ms, 81.991940988404664);
    EXPECT_DOUBLE_EQ(r.stats.first_latency_ms, 52.755289088740795);
    EXPECT_DOUBLE_EQ(r.stats.item_latency_ms, 28.545742191193852);
    EXPECT_DOUBLE_EQ(r.stats.throughput_per_ms, 0.3902822596250704);
    EXPECT_EQ(r.stats.peak_device_bytes, 723517440u);
    EXPECT_DOUBLE_EQ(r.stats.busy_lane_ms, 191329.13457021277);
    EXPECT_DOUBLE_EQ(r.stats.utilization, 0.33760293227435895);
    EXPECT_DOUBLE_EQ(r.comm_ms_per_cycle, 0.83220317460317461);
    EXPECT_DOUBLE_EQ(r.comp_ms_per_cycle, 0.86502249064223791);
    EXPECT_DOUBLE_EQ(r.cycle_ms, 0.86502249064223791);
    EXPECT_EQ(r.h2d_bytes_per_cycle, 20971520u);
}

TEST(SchedTasks, RunTasksMatchesUniformRun)
{
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = 2024;
    Rng rng(5);
    gpusim::Device d1(gpusim::DeviceSpec::v100());
    auto by_run = PipelinedZkpSystem(d1, opt).run(16, 12, rng);

    std::vector<sched::ProofTask> tasks;
    for (size_t i = 0; i < 16; ++i)
        tasks.push_back(makeProofTask(12, opt.seed, i));
    gpusim::Device d2(gpusim::DeviceSpec::v100());
    auto by_tasks =
        PipelinedZkpSystem(d2, opt).runTasks(std::move(tasks));

    EXPECT_EQ(by_run.stats.total_ms, by_tasks.stats.total_ms);
    EXPECT_EQ(by_run.stats.first_latency_ms,
              by_tasks.stats.first_latency_ms);
    EXPECT_EQ(by_run.stats.throughput_per_ms,
              by_tasks.stats.throughput_per_ms);
    EXPECT_EQ(by_run.stats.peak_device_bytes,
              by_tasks.stats.peak_device_bytes);
    EXPECT_EQ(by_run.stats.busy_lane_ms, by_tasks.stats.busy_lane_ms);
    EXPECT_EQ(by_run.cycle_ms, by_tasks.cycle_ms);
    EXPECT_EQ(by_run.lanes_encoder, by_tasks.lanes_encoder);
    EXPECT_EQ(by_run.h2d_bytes_per_cycle, by_tasks.h2d_bytes_per_cycle);
    ASSERT_EQ(by_tasks.task_stats.size(), 16u);
    // One admission per cycle, FIFO: task i waits i cycles.
    for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(by_tasks.task_stats[i].admit_cycle, i);
        EXPECT_EQ(by_tasks.task_stats[i].queue_wait_cycles, i);
    }
}

TEST(SchedTasks, MixedSizesConserveWork)
{
    SystemOptions opt;
    opt.functional = 0;
    std::vector<sched::ProofTask> tasks;
    std::map<unsigned, double> model_work;
    uint64_t id = 0;
    double expected_total = 0.0;
    for (unsigned n : {10u, 11u, 12u}) {
        model_work[n] = systemWorkModel(n, opt.seed).totalCycles();
        for (int i = 0; i < 4; ++i) {
            tasks.push_back(makeProofTask(n, opt.seed, id++));
            expected_total += model_work[n];
        }
    }

    gpusim::Device dev(gpusim::DeviceSpec::a100());
    auto r = PipelinedZkpSystem(dev, opt).runTasks(std::move(tasks));

    ASSERT_EQ(r.task_stats.size(), 12u);
    double total_work = 0.0;
    for (const auto &ts : r.task_stats) {
        // Every task completed and carries exactly its size's work.
        EXPECT_GT(ts.complete_ms, 0.0);
        EXPECT_GE(ts.complete_cycle, ts.admit_cycle);
        EXPECT_DOUBLE_EQ(ts.work_cycles, model_work[ts.n_vars]);
        total_work += ts.work_cycles;
    }
    EXPECT_DOUBLE_EQ(total_work, expected_total);
    // Aggregate per-cycle columns report the costliest (pacing) shape.
    EXPECT_EQ(r.h2d_bytes_per_cycle,
              systemWorkModel(12, opt.seed).h2d_bytes);
    EXPECT_EQ(r.stats.batch, 12u);
}

TEST(SchedTasks, PriorityAdmitsFirst)
{
    SystemOptions opt;
    opt.functional = 0;
    std::vector<sched::ProofTask> tasks;
    tasks.push_back(makeProofTask(10, opt.seed, /*id=*/0));
    tasks.push_back(makeProofTask(10, opt.seed, /*id=*/1,
                                  /*priority=*/5));
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    auto r = PipelinedZkpSystem(dev, opt).runTasks(std::move(tasks));
    ASSERT_EQ(r.task_stats.size(), 2u);
    EXPECT_EQ(r.task_stats[0].id, 1u); // high priority admitted first
    EXPECT_EQ(r.task_stats[0].admit_cycle, 0u);
    EXPECT_EQ(r.task_stats[1].id, 0u);
    EXPECT_EQ(r.task_stats[1].admit_cycle, 1u);
}

/** Half table-commit, half high-degree-gate, alternating by id. */
std::vector<sched::ProofTask>
protoMixBatch(size_t count, unsigned n_vars, uint64_t seed)
{
    std::vector<sched::ProofTask> tasks;
    for (size_t i = 0; i < count; ++i) {
        sched::ProtocolKind kind =
            (i % 2) ? sched::ProtocolKind::HighDegreeGate
                    : sched::ProtocolKind::TableCommit;
        tasks.push_back(makeProofTask(kind, n_vars, seed, i));
    }
    return tasks;
}

SystemRunResult
runWithPolicy(std::vector<sched::ProofTask> tasks,
              sched::LanePolicy policy,
              obs::MetricsRegistry *metrics = nullptr)
{
    gpusim::Device dev(gpusim::DeviceSpec::gh200());
    SystemOptions opt;
    opt.functional = 0;
    opt.lane_policy = policy;
    PipelinedZkpSystem system(dev, opt);
    if (metrics)
        system.setObservability(metrics, nullptr);
    return system.runTasks(std::move(tasks));
}

TEST(SchedLanePolicy, MeasuredCostMatchesProportionalOnLegacyBatch)
{
    // On the homogeneous table-commitment workload the paper was
    // calibrated for, re-deriving the split from amortized costs must
    // reproduce the proportional policy's makespan: the encoder group
    // is a single costed stage, so the most-contended-stage pacing
    // collapses to total/lanes (up to fp rounding).
    std::vector<sched::ProofTask> a, b;
    for (size_t i = 0; i < 24; ++i) {
        a.push_back(makeProofTask(14, 2024, i));
        b.push_back(makeProofTask(14, 2024, i));
    }
    auto prop =
        runWithPolicy(std::move(a), sched::LanePolicy::Proportional);
    auto meas =
        runWithPolicy(std::move(b), sched::LanePolicy::MeasuredCost);
    EXPECT_NEAR(meas.stats.total_ms, prop.stats.total_ms,
                1e-9 * prop.stats.total_ms);
    EXPECT_NEAR(meas.stats.throughput_per_ms,
                prop.stats.throughput_per_ms,
                1e-9 * prop.stats.throughput_per_ms);
}

TEST(SchedLanePolicy, MeasuredCostBeatsFixedRatioOnProtocolMix)
{
    // The heterogeneous batch shifts ~4x more work into the sum-check
    // group; the hard-coded 35:12:113 ratio starves it while the
    // measured split re-balances, so the derived policy must win on
    // makespan (the bench_sched baseline pins the exact numbers).
    auto ratio = runWithPolicy(protoMixBatch(32, 12, 2024),
                               sched::LanePolicy::FixedRatio);
    auto meas = runWithPolicy(protoMixBatch(32, 12, 2024),
                              sched::LanePolicy::MeasuredCost);
    EXPECT_LT(meas.stats.total_ms, ratio.stats.total_ms);
    EXPECT_GT(meas.stats.throughput_per_ms,
              ratio.stats.throughput_per_ms);
}

TEST(SchedLanePolicy, TaskStatsEchoProtocolKind)
{
    uint64_t seed = 2024;
    auto r = runWithPolicy(protoMixBatch(8, 10, seed),
                           sched::LanePolicy::Proportional);
    ASSERT_EQ(r.task_stats.size(), 8u);
    for (const auto &ts : r.task_stats) {
        sched::ProtocolKind want =
            (ts.id % 2) ? sched::ProtocolKind::HighDegreeGate
                        : sched::ProtocolKind::TableCommit;
        EXPECT_EQ(ts.kind, want) << "task " << ts.id;
        // Each task carries exactly its own protocol's modeled work.
        EXPECT_DOUBLE_EQ(
            ts.work_cycles,
            protocolWorkModel(ts.kind, ts.n_vars, seed).totalCycles());
    }
}

TEST(SchedLanePolicy, PerKindMetricsCountTasksAndWork)
{
    uint64_t seed = 2024;
    obs::MetricsRegistry metrics;
    auto r = runWithPolicy(protoMixBatch(10, 10, seed),
                           sched::LanePolicy::MeasuredCost, &metrics);
    ASSERT_EQ(r.task_stats.size(), 10u);
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_sched_tasks_table_commit_total").value(),
        5.0);
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_sched_tasks_high_degree_gate_total")
            .value(),
        5.0);
    double tc = 5.0 * protocolWorkModel(sched::ProtocolKind::TableCommit,
                                        10, seed)
                          .totalCycles();
    double hdg =
        5.0 *
        protocolWorkModel(sched::ProtocolKind::HighDegreeGate, 10, seed)
            .totalCycles();
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_sched_work_cycles_table_commit_total")
            .value(),
        tc);
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_sched_work_cycles_high_degree_gate_total")
            .value(),
        hdg);
    // The gate protocol's degree-6 rounds really are the heavier mix.
    EXPECT_GT(hdg, tc);
}

TEST(SchedWorkModel, ProtocolWorkModelGoldens)
{
    // Exact per-kind work models at seed 2024, captured before the
    // per-kind model code became a lookup of the relation's sum-check
    // costs. Every field is an integer, so the pins are exact.
    struct Golden
    {
        sched::ProtocolKind kind;
        unsigned n_vars;
        double encoder_cycles, merkle_cycles, sumcheck_cycles;
        size_t encoder_stages, merkle_stages, sumcheck_stages;
        uint64_t h2d_bytes, d2h_bytes, device_bytes;
    };
    const Golden goldens[] = {
        {sched::ProtocolKind::TableCommit, 10, 218628096.0, 7174200.0,
         6451200.0, 1, 7, 12, 327680, 1064960, 67207168},
        {sched::ProtocolKind::TableCommit, 14, 2268266496.0,
         109817400.0, 103219200.0, 3, 9, 16, 5242880, 1310720,
         68681728},
        {sched::ProtocolKind::HighDegreeGate, 10, 218628096.0,
         7174200.0, 20951040.0, 1, 7, 12, 327680, 1064960, 67207168},
        {sched::ProtocolKind::HighDegreeGate, 14, 2268266496.0,
         109817400.0, 335216640.0, 3, 9, 16, 5242880, 1310720,
         68681728},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(std::string(sched::protocolKindName(g.kind)) +
                     " n_vars " + std::to_string(g.n_vars));
        auto m = protocolWorkModel(g.kind, g.n_vars, 2024);
        EXPECT_EQ(m.encoder_cycles, g.encoder_cycles);
        EXPECT_EQ(m.merkle_cycles, g.merkle_cycles);
        EXPECT_EQ(m.sumcheck_cycles, g.sumcheck_cycles);
        EXPECT_EQ(m.encoder_stages, g.encoder_stages);
        EXPECT_EQ(m.merkle_stages, g.merkle_stages);
        EXPECT_EQ(m.sumcheck_stages, g.sumcheck_stages);
        EXPECT_EQ(m.h2d_bytes, g.h2d_bytes);
        EXPECT_EQ(m.d2h_bytes, g.d2h_bytes);
        EXPECT_EQ(m.device_bytes, g.device_bytes);
    }
}

TEST(LaneAllocatorTest, ProportionalSplitMatchesStageCosts)
{
    auto graph = systemStageGraph(systemWorkModel(12, 2024));
    sched::LaneAllocator alloc(5120.0);
    auto split = alloc.proportionalSplit(graph);
    ASSERT_EQ(split.size(), graph.stages().size());
    double sum = 0.0;
    for (size_t i = 0; i < split.size(); ++i) {
        sum += split[i];
        EXPECT_DOUBLE_EQ(split[i],
                         5120.0 * graph.stages()[i].lane_cycles /
                             graph.totalCycles());
    }
    EXPECT_NEAR(sum, 5120.0, 1e-9);
    // Fiat-Shamir is a real node but carries no lanes.
    const sched::Stage *fs =
        graph.findStage(sched::StageKind::FiatShamir);
    ASSERT_NE(fs, nullptr);
    EXPECT_EQ(fs->lane_cycles, 0.0);
}

TEST(LaneAllocatorTest, HalvingSplitIsGeometric)
{
    sched::LaneAllocator alloc(1024.0);
    auto split = alloc.halvingSplit(5);
    ASSERT_EQ(split.size(), 5u);
    double sum = 0.0;
    for (size_t i = 0; i < split.size(); ++i) {
        sum += split[i];
        if (i + 1 < split.size()) {
            EXPECT_DOUBLE_EQ(split[i], 2.0 * split[i + 1]);
        }
    }
    EXPECT_NEAR(sum, 1024.0, 1e-9);
    EXPECT_TRUE(alloc.halvingSplit(0).empty());
}

TEST(LaneAllocatorTest, KindSplitIsProportionalToWeights)
{
    sched::LaneAllocator alloc(160.0);
    sched::StageKindCosts w = sched::LaneAllocator::paperRatioWeights();
    EXPECT_DOUBLE_EQ(
        w[static_cast<size_t>(sched::StageKind::Encoder)], 35.0);
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(sched::StageKind::Merkle)],
                     12.0);
    EXPECT_DOUBLE_EQ(
        w[static_cast<size_t>(sched::StageKind::FiatShamir)], 0.0);
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(sched::StageKind::Sumcheck)],
                     113.0);
    auto lanes = alloc.kindSplit(w);
    double sum = 0.0;
    for (size_t k = 0; k < sched::kNumStageKinds; ++k) {
        sum += lanes[k];
        EXPECT_DOUBLE_EQ(lanes[k], 160.0 * w[k] / 160.0);
    }
    EXPECT_NEAR(sum, 160.0, 1e-9);
    // The zero-weight Fiat-Shamir group gets zero lanes, not NaN.
    EXPECT_DOUBLE_EQ(
        lanes[static_cast<size_t>(sched::StageKind::FiatShamir)], 0.0);
}

TEST(LaneAllocatorTest, MeasuredKindCostsSumOverTheBatch)
{
    uint64_t seed = 2024;
    auto tasks = protoMixBatch(4, 10, seed);
    auto costs = sched::LaneAllocator::measuredKindCosts(tasks);
    sched::StageKindCosts expect{};
    for (const auto &t : tasks)
        for (const auto &s : t.graph.stages())
            expect[static_cast<size_t>(s.kind)] += s.lane_cycles;
    for (size_t k = 0; k < sched::kNumStageKinds; ++k)
        EXPECT_DOUBLE_EQ(costs[k], expect[k]) << "kind " << k;
    // The gate protocol shifts the cost mix toward sum-check: its
    // share of the mixed batch exceeds its share of a pure legacy
    // batch — the signal the fixed 35:12:113 ratio cannot see.
    std::vector<sched::ProofTask> legacy;
    for (size_t i = 0; i < 4; ++i)
        legacy.push_back(makeProofTask(10, seed, i));
    auto legacy_costs = sched::LaneAllocator::measuredKindCosts(legacy);
    auto share = [](const sched::StageKindCosts &c) {
        double total = 0.0;
        for (double v : c)
            total += v;
        return c[static_cast<size_t>(sched::StageKind::Sumcheck)] /
               total;
    };
    EXPECT_GT(share(costs), share(legacy_costs));
}

TEST(LaneAllocatorTest, PacedCycleTracksMostContendedStage)
{
    auto graph = systemStageGraph(systemWorkModel(12, 2024));
    sched::LaneAllocator alloc(5120.0);
    sched::StageKindCosts costs =
        sched::LaneAllocator::measuredKindCosts(
            std::vector<sched::ProofTask>{makeProofTask(12, 2024, 0)});
    auto lanes = alloc.kindSplit(costs);
    double cycle = sched::LaneAllocator::pacedCycleCycles(graph, lanes);
    double expect = 0.0;
    for (const auto &s : graph.stages()) {
        double l = lanes[static_cast<size_t>(s.kind)];
        if (s.lane_cycles <= 0.0)
            continue;
        expect = std::max(expect, s.lane_cycles / std::max(l, 1.0));
    }
    EXPECT_DOUBLE_EQ(cycle, expect);
    // A split matched to the graph's own cost mix paces no slower than
    // the per-class proportional cycle.
    EXPECT_NEAR(cycle, graph.totalCycles() / 5120.0,
                1e-9 * cycle);
}

TEST(LaneAllocatorTest, SurvivorFractionFloorsAtFivePercent)
{
    EXPECT_DOUBLE_EQ(sched::LaneAllocator::survivorFraction(0.0), 1.0);
    EXPECT_DOUBLE_EQ(sched::LaneAllocator::survivorFraction(0.3), 0.7);
    EXPECT_DOUBLE_EQ(sched::LaneAllocator::survivorFraction(0.99),
                     0.05);
    EXPECT_DOUBLE_EQ(sched::LaneAllocator::survivorFraction(2.0), 0.05);
}

TEST(SchedDegradation, FailedLanesStretchOnlyTheFaultWindow)
{
    SystemOptions opt;
    opt.functional = 0;
    // Serialize transfers so the compute stretch cannot hide under an
    // overlapped (comm-dominated) cycle.
    opt.overlap_transfers = false;
    gpusim::Device healthy_dev(gpusim::DeviceSpec::v100());
    auto healthy = PipelinedZkpSystem(healthy_dev, opt).runTasks([&] {
        std::vector<sched::ProofTask> t;
        for (size_t i = 0; i < 32; ++i)
            t.push_back(makeProofTask(10, opt.seed, i));
        return t;
    }());

    gpusim::Device dev(gpusim::DeviceSpec::v100());
    auto plan = gpusim::FaultPlan::parse("lanes:3-10:0.5");
    gpusim::FaultInjector inj(plan, 9);
    dev.setFaultInjector(&inj);
    auto degraded = PipelinedZkpSystem(dev, opt).runTasks([&] {
        std::vector<sched::ProofTask> t;
        for (size_t i = 0; i < 32; ++i)
            t.push_back(makeProofTask(10, opt.seed, i));
        return t;
    }());

    // Cycles [3, 10) ran on half the lanes: the whole split is
    // re-scaled onto the survivors, so the run stretches but the task
    // count does not change.
    EXPECT_EQ(degraded.degraded_cycles, 7u);
    EXPECT_DOUBLE_EQ(degraded.relocated_lane_fraction, 0.5);
    EXPECT_GT(degraded.stats.total_ms, healthy.stats.total_ms);
    EXPECT_EQ(degraded.task_stats.size(), healthy.task_stats.size());
}

TEST(MultiGpuDispatch, SlicesSumExactlyToBatch)
{
    // Five identical cards, three tasks: the old rounded-then-clamped
    // slices forced one task per card and underflowed the last card's
    // share; largest remainder hands out exactly the batch.
    std::vector<gpusim::DeviceSpec> specs(5,
                                          gpusim::DeviceSpec::v100());
    SystemOptions opt;
    opt.functional = 0;
    MultiGpuZkpSystem fleet(specs, opt);
    auto slices = fleet.planSlices(3, 18);
    size_t sum = 0, idle = 0;
    for (size_t s : slices) {
        sum += s;
        EXPECT_LE(s, 1u);
        idle += s == 0;
    }
    EXPECT_EQ(sum, 3u);
    EXPECT_EQ(idle, 2u);
}

TEST(MultiGpuDispatch, DevicesExceedingTasksLeaveSurplusIdle)
{
    std::vector<gpusim::DeviceSpec> specs(4,
                                          gpusim::DeviceSpec::a100());
    SystemOptions opt;
    opt.functional = 0;
    MultiGpuZkpSystem fleet(specs, opt);
    Rng rng(1);
    auto r = fleet.run(2, 18, rng);
    ASSERT_EQ(r.per_device.size(), 4u);
    ASSERT_EQ(r.slices.size(), 4u);
    size_t busy = 0, total = 0;
    for (size_t d = 0; d < 4; ++d) {
        total += r.slices[d];
        if (r.slices[d] > 0) {
            ++busy;
            EXPECT_EQ(r.per_device[d].stats.batch, r.slices[d]);
            EXPECT_GT(r.per_device[d].stats.total_ms, 0.0);
        } else {
            // Idle surplus card: placeholder entry, no simulated time.
            EXPECT_EQ(r.per_device[d].stats.batch, 0u);
            EXPECT_EQ(r.per_device[d].stats.total_ms, 0.0);
        }
    }
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(busy, 2u);
    EXPECT_GT(r.makespan_ms, 0.0);
}

TEST(MultiGpuDispatch, IdenticalCardsSplitEvenly)
{
    std::vector<gpusim::DeviceSpec> specs(2,
                                          gpusim::DeviceSpec::h100());
    SystemOptions opt;
    opt.functional = 0;
    MultiGpuZkpSystem fleet(specs, opt);
    auto slices = fleet.planSlices(256, 18);
    EXPECT_EQ(slices[0], 128u);
    EXPECT_EQ(slices[1], 128u);
}

TEST(MultiGpuDispatch, PerDeviceRngIndependentOfFleetOrder)
{
    // Each card's functional proofs are drawn from its own seeded Rng
    // (deviceSeed), so a card's result is reproducible in isolation —
    // it does not depend on which cards ran before it.
    SystemOptions opt;
    opt.functional = 1;
    opt.seed = 77;
    std::vector<gpusim::DeviceSpec> specs(2,
                                          gpusim::DeviceSpec::v100());
    MultiGpuZkpSystem fleet(specs, opt);
    Rng r1(0), r2(0);
    auto a = fleet.run(4, 8, r1);
    auto b = fleet.run(4, 8, r2);
    ASSERT_EQ(a.per_device.size(), 2u);

    for (size_t d = 0; d < 2; ++d) {
        // Fleet runs are deterministic...
        ASSERT_EQ(a.per_device[d].proofs.size(),
                  b.per_device[d].proofs.size());
        EXPECT_EQ(proofsSha256(a.per_device[d].proofs),
                  proofsSha256(b.per_device[d].proofs));
        // ...and each device reproduces standalone from its own seed.
        gpusim::Device dev(gpusim::DeviceSpec::v100());
        PipelinedZkpSystem solo(dev, opt);
        Rng dev_rng(deviceSeed(opt.seed, d));
        auto direct = solo.run(a.slices[d], 8, dev_rng);
        EXPECT_EQ(proofsSha256(direct.proofs),
                  proofsSha256(a.per_device[d].proofs));
        EXPECT_EQ(direct.stats.total_ms,
                  a.per_device[d].stats.total_ms);
    }
}

TEST(CycleModelTest, MatchesSystemSteadyState)
{
    gpusim::Device dev(gpusim::DeviceSpec::gh200());
    auto graph = systemStageGraph(systemWorkModel(18, 2024));
    sched::CycleModel overlap(graph, dev, /*overlap=*/true);
    sched::CycleModel serial(graph, dev, /*overlap=*/false);
    EXPECT_DOUBLE_EQ(overlap.cycleMs(),
                     std::max(overlap.compMs(), overlap.commMs()));
    EXPECT_DOUBLE_EQ(serial.cycleMs(),
                     serial.compMs() + serial.commMs());
    EXPECT_EQ(overlap.depth(), graph.totalDepth());
    EXPECT_GT(overlap.compMs(), 0.0);
    EXPECT_GT(overlap.commMs(), 0.0);
}

} // namespace
} // namespace bzk
