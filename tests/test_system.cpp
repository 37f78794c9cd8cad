/**
 * @file
 * Tests for the fully pipelined ZKP system (Figure 7), the same-modules
 * CPU baseline, and the old-protocol (NTT+MSM) baselines.
 */

#include <gtest/gtest.h>

#include <thread>

#include "baseline/OldProtocol.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "ff/FieldBackend.h"
#include "gpusim/Device.h"

namespace bzk {
namespace {

class SystemTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::v100()};
};

TEST_F(SystemTest, FunctionalProofsVerify)
{
    SystemOptions opt;
    opt.functional = 2;
    Rng rng(1);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(4, 10, rng);
    EXPECT_EQ(result.proofs.size(), 2u);
    EXPECT_TRUE(result.verified);
}

TEST_F(SystemTest, ProofBytesBitIdenticalAcrossThreadCounts)
{
    // End-to-end pin of the host-parallel prover: the serialized proof
    // bytes (commitments, every sum-check round, every opening) must
    // not depend on SystemOptions::threads.
    auto proofBytes = [&](size_t threads) {
        SystemOptions opt;
        opt.functional = 1;
        opt.threads = threads;
        Rng rng(42);
        PipelinedZkpSystem system(dev_, opt);
        auto result = system.run(1, 10, rng);
        EXPECT_TRUE(result.verified) << "threads=" << threads;
        EXPECT_EQ(result.proofs.size(), 1u);
        return serializeProof(result.proofs.at(0));
    };
    auto reference = proofBytes(1);
    EXPECT_EQ(proofBytes(2), reference);
    size_t hw = std::thread::hardware_concurrency();
    EXPECT_EQ(proofBytes(hw ? hw : 4), reference);
}

TEST_F(SystemTest, WorkModelComponentsPositive)
{
    for (unsigned n : {12u, 16u, 20u}) {
        auto model = systemWorkModel(n, 2024);
        EXPECT_GT(model.encoder_cycles, 0.0) << n;
        EXPECT_GT(model.merkle_cycles, 0.0) << n;
        EXPECT_GT(model.sumcheck_cycles, 0.0) << n;
        EXPECT_GT(model.totalStages(), 10u) << n;
        EXPECT_GT(model.h2d_bytes, 0u) << n;
    }
}

TEST_F(SystemTest, WorkModelScalesWithSize)
{
    auto small = systemWorkModel(16, 2024);
    auto large = systemWorkModel(20, 2024);
    // 16x the rows should cost roughly 16x the work (within 2x slack
    // for shape effects).
    double ratio = large.totalCycles() / small.totalCycles();
    EXPECT_GT(ratio, 8.0);
    EXPECT_LT(ratio, 32.0);
}

TEST_F(SystemTest, ModuleBreakdownSumsToCycle)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(2);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(64, 18, rng);
    double sum =
        result.encoder_ms + result.merkle_ms + result.sumcheck_ms;
    EXPECT_NEAR(sum, result.comp_ms_per_cycle, result.comp_ms_per_cycle * 0.1);
}

TEST_F(SystemTest, LaneAllocationProportionalAndComplete)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(3);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(32, 18, rng);
    double total = result.lanes_encoder + result.lanes_merkle +
                   result.lanes_sumcheck;
    EXPECT_NEAR(total, dev_.spec().cuda_cores, 1.0);
    // Allocation follows cost: each module's lane share matches its
    // time share.
    double time_total =
        result.encoder_ms + result.merkle_ms + result.sumcheck_ms;
    EXPECT_NEAR(result.lanes_encoder / total,
                result.encoder_ms / time_total, 0.02);
}

TEST_F(SystemTest, SteadyStateThroughputApproachesCycleRate)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(4);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(512, 16, rng);
    double ideal = 1.0 / result.cycle_ms;
    EXPECT_GT(result.stats.throughput_per_ms, ideal * 0.8);
    EXPECT_LE(result.stats.throughput_per_ms, ideal * 1.05);
}

TEST_F(SystemTest, LatencyIsDepthTimesCycle)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(5);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(128, 16, rng);
    EXPECT_GT(result.stats.first_latency_ms,
              result.comp_ms_per_cycle * 10.0);
}

TEST_F(SystemTest, CommunicationOverlapsComputation)
{
    // Table 9's claim: with multi-stream loading, overall cycle time is
    // max(comm, comp) + epsilon, not comm + comp.
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(6);
    PipelinedZkpSystem system(dev_, opt);
    auto result = system.run(256, 18, rng);
    double serial = result.comm_ms_per_cycle + result.comp_ms_per_cycle;
    double actual = result.stats.total_ms / 256.0;
    EXPECT_LT(actual, serial * 0.95);
}

TEST_F(SystemTest, DeviceMemoryIndependentOfBatch)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(7);
    PipelinedZkpSystem system(dev_, opt);
    auto small = system.run(16, 16, rng);
    auto large = system.run(256, 16, rng);
    EXPECT_EQ(small.stats.peak_device_bytes,
              large.stats.peak_device_bytes);
}

TEST_F(SystemTest, CpuBaselineVerifiesAndIsSlower)
{
    SystemOptions opt;
    Rng rng(8);
    SameModulesCpuBaseline cpu(opt, /*measure_cap_vars=*/10);
    auto cpu_result = cpu.run(8, 10, rng);
    EXPECT_TRUE(cpu_result.verified);

    opt.functional = 0;
    PipelinedZkpSystem gpu(dev_, opt);
    auto gpu_result = gpu.run(8, 10, rng);
    EXPECT_GT(cpu_result.stats.first_latency_ms * 5.0,
              gpu_result.stats.item_latency_ms);
    EXPECT_GT(gpu_result.stats.throughput_per_ms,
              cpu_result.stats.throughput_per_ms);
}

TEST_F(SystemTest, CpuBaselineProvesOnceAndSplitsThatProve)
{
    // The module split comes from the one measured prove: the baseline
    // drives exactly the encoder rows of one prove plus its verify.
    SystemOptions opt;
    Rng rng(8);
    SameModulesCpuBaseline cpu(opt, /*measure_cap_vars=*/10);
    uint64_t before = ff::kernelCounters().u32_dot_rows;
    auto result = cpu.run(1, 10, rng);
    uint64_t baseline_rows = ff::kernelCounters().u32_dot_rows - before;
    ASSERT_TRUE(result.verified);

    Rng same(8);
    auto tables = randomInstance(10, same);
    Snark<Fr> snark(10, opt.seed, opt.column_openings);
    before = ff::kernelCounters().u32_dot_rows;
    EXPECT_TRUE(snark.verify(snark.prove(tables, {}), {}));
    EXPECT_EQ(baseline_rows, ff::kernelCounters().u32_dot_rows - before);

    double split = result.encoder_ms + result.merkle_ms + result.sumcheck_ms;
    EXPECT_DOUBLE_EQ(split, result.stats.first_latency_ms);
}

TEST_F(SystemTest, ThroughputScalesAcrossGpus)
{
    // Table 8's shape: newer cards with more lane-throughput give more
    // proofs per second.
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(9);
    gpusim::Device v100(gpusim::DeviceSpec::v100());
    gpusim::Device h100(gpusim::DeviceSpec::h100());
    auto on_v100 = PipelinedZkpSystem(v100, opt).run(128, 18, rng);
    auto on_h100 = PipelinedZkpSystem(h100, opt).run(128, 18, rng);
    double ratio = on_h100.stats.throughput_per_ms /
                   on_v100.stats.throughput_per_ms;
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 8.0);
}

TEST_F(SystemTest, RandomInstanceIsSatisfied)
{
    Rng rng(10);
    auto tables = randomInstance(10, rng);
    EXPECT_EQ(tables.n_vars, 10u);
    for (size_t i = 0; i < tables.a.size(); ++i)
        EXPECT_EQ(tables.a[i] * tables.b[i], tables.c[i]) << "row " << i;
}

class OldProtocolTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::v100()};
};

TEST_F(OldProtocolTest, CpuBaselineBreakdownPositive)
{
    Rng rng(11);
    LibsnarkLikeCpu cpu(/*measure_cap_log=*/10);
    auto result = cpu.run(4, 12, rng);
    EXPECT_GT(result.ntt_ms, 0.0);
    EXPECT_GT(result.msm_ms, 0.0);
    EXPECT_NEAR(result.proof_ms,
                result.synthesis_ms + result.ntt_ms + result.msm_ms,
                1e-9);
    EXPECT_GT(result.msm_ms, result.ntt_ms); // MSM dominates Groth16
}

TEST_F(OldProtocolTest, CpuScalesSuperlinearly)
{
    Rng rng(12);
    LibsnarkLikeCpu cpu(10);
    auto small = cpu.run(1, 12, rng);
    auto large = cpu.run(1, 16, rng);
    EXPECT_GT(large.proof_ms, small.proof_ms * 8.0);
}

TEST_F(OldProtocolTest, GpuBaselineFasterThanCpuBaseline)
{
    Rng rng(13);
    LibsnarkLikeCpu cpu(10);
    BellpersonLikeGpu gpu(dev_);
    auto cpu_result = cpu.run(1, 16, rng);
    auto gpu_result = gpu.run(1, 16, rng);
    EXPECT_LT(gpu_result.proof_ms, cpu_result.proof_ms);
}

TEST_F(OldProtocolTest, GpuBaselineDoesNotBatchPipeline)
{
    // Bellperson proves serially: throughput ~ 1/latency.
    Rng rng(14);
    BellpersonLikeGpu gpu(dev_);
    auto result = gpu.run(8, 14, rng);
    double serial_throughput = 1.0 / result.stats.first_latency_ms;
    EXPECT_NEAR(result.stats.throughput_per_ms, serial_throughput,
                serial_throughput * 0.25);
}

TEST_F(OldProtocolTest, PipelinedSystemBeatsOldProtocolGpu)
{
    // The headline Table 7/8 comparison at matched scale.
    Rng rng(15);
    SystemOptions opt;
    opt.functional = 0;
    auto ours = PipelinedZkpSystem(dev_, opt).run(128, 18, rng);
    auto bell = BellpersonLikeGpu(dev_).run(4, 18, rng);
    EXPECT_GT(ours.stats.throughput_per_ms /
                  bell.stats.throughput_per_ms,
              50.0);
}

TEST_F(OldProtocolTest, MemoryFootprintMuchSmallerThanBellperson)
{
    // Table 10's shape.
    Rng rng(16);
    SystemOptions opt;
    opt.functional = 0;
    auto ours = PipelinedZkpSystem(dev_, opt).run(16, 18, rng);
    auto bell = BellpersonLikeGpu(dev_).run(2, 18, rng);
    EXPECT_LT(ours.stats.peak_device_bytes,
              bell.stats.peak_device_bytes / 4);
}

} // namespace
} // namespace bzk
