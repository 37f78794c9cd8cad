/**
 * @file
 * Tests for the multi-GPU fleet.
 */

#include <gtest/gtest.h>

#include "core/MultiGpu.h"
#include "core/PipelinedSystem.h"
#include "gpusim/Device.h"

namespace bzk {
namespace {

TEST(MultiGpu, TwoIdenticalCardsNearlyDouble)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng r1(10), r2(10);
    MultiGpuZkpSystem one({gpusim::DeviceSpec::h100()}, opt);
    MultiGpuZkpSystem two(
        {gpusim::DeviceSpec::h100(), gpusim::DeviceSpec::h100()}, opt);
    auto a = one.run(256, 18, r1);
    auto b = two.run(256, 18, r2);
    double scaling =
        b.total_throughput_per_ms / a.total_throughput_per_ms;
    EXPECT_GT(scaling, 1.8);
    EXPECT_LT(scaling, 2.1);
}

TEST(MultiGpu, HeterogeneousFleetSplitsByCapability)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(11);
    MultiGpuZkpSystem fleet(
        {gpusim::DeviceSpec::h100(), gpusim::DeviceSpec::v100()}, opt);
    auto r = fleet.run(300, 18, rng);
    ASSERT_EQ(r.per_device.size(), 2u);
    // The H100 gets the bigger slice and both finish near each other.
    EXPECT_GT(r.per_device[0].stats.batch, r.per_device[1].stats.batch);
    double t0 = r.per_device[0].stats.total_ms;
    double t1 = r.per_device[1].stats.total_ms;
    EXPECT_LT(std::max(t0, t1) / std::min(t0, t1), 1.6);
}

TEST(MultiGpu, MemoryScalesWithFleetNotBatch)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng r1(12), r2(12);
    MultiGpuZkpSystem fleet(
        {gpusim::DeviceSpec::a100(), gpusim::DeviceSpec::a100()}, opt);
    auto small = fleet.run(64, 18, r1);
    auto large = fleet.run(512, 18, r2);
    EXPECT_EQ(small.total_device_bytes, large.total_device_bytes);
}

} // namespace
} // namespace bzk
