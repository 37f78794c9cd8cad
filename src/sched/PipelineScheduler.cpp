#include "sched/PipelineScheduler.h"

#include <algorithm>
#include <deque>
#include <string>

#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "merkle/GpuMerkle.h"
#include "merkle/MerkleTree.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sched/LaneAllocator.h"
#include "util/Rng.h"

namespace bzk::sched {

using gpusim::KernelDesc;
using gpusim::OpId;
using gpusim::StreamId;

namespace {

/**
 * Root re-check on a staged Merkle layer: commit to a small real tree,
 * stage its leaf layer to host bytes (as dynamic loading does), let the
 * injector flip bytes in the staged copy, rebuild the root from the
 * reloaded layer and compare with the committed root. Returns true when
 * the corruption is detected (roots differ) — with SHA-256 this is
 * every time any byte actually flipped.
 */
bool
merkleRecheckDetects(gpusim::FaultInjector &inj, uint64_t seed,
                     size_t cycle)
{
    Rng rng(seed ^ (0xc0de1abULL + cycle));
    auto blocks = randomBlocks(8, rng);
    MerkleTree committed = MerkleTree::build(blocks);

    const auto &leaves = committed.layers().front();
    std::vector<uint8_t> staged;
    staged.reserve(leaves.size() * 32);
    for (const auto &d : leaves)
        staged.insert(staged.end(), d.bytes.begin(), d.bytes.end());
    if (!inj.corruptLayer(staged))
        return false;

    std::vector<Digest> reloaded(leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i)
        std::copy_n(staged.begin() + static_cast<ptrdiff_t>(32 * i), 32,
                    reloaded[i].bytes.begin());
    MerkleTree rebuilt = MerkleTree::buildFromLeaves(std::move(reloaded));
    return rebuilt.root() != committed.root();
}

/**
 * Tasks sharing one shape (identical cost signature) form a class; the
 * per-cycle kernel is assembled from the classes with tasks in flight.
 */
struct TaskClass
{
    double total_cycles = 0.0;
    size_t depth = 0;
    uint64_t h2d_bytes = 0;
    uint64_t d2h_bytes = 0;
    uint64_t device_bytes = 0;
    ProtocolKind kind = ProtocolKind::TableCommit;
    /** Static share of the lane budget per in-flight task. */
    double per_stage_lanes = 0.0;
    /** Cycle duration contribution, lane-cycles per lane. */
    double cycle_cycles = 0.0;
    /** Approximate global-memory traffic per cycle, bytes. */
    uint64_t traffic_bytes = 0;
    /** Tasks of this class currently in the pipeline. */
    size_t in_flight = 0;
};

/** One admitted task instance transiting the pipeline. */
struct InFlight
{
    size_t task = 0;
    size_t cls = 0;
    size_t end_cycle = 0;
};

} // namespace

PipelineScheduler::PipelineScheduler(gpusim::Device &dev,
                                     SchedulerOptions opt)
    : dev_(dev), opt_(opt)
{
}

SchedulerResult
PipelineScheduler::run(std::vector<ProofTask> tasks)
{
    SchedulerResult result;
    if (tasks.empty())
        return result;

    // Admission order: priority-first, ties keep submission order.
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const ProofTask &a, const ProofTask &b) {
                         return a.priority > b.priority;
                     });

    double cores = dev_.spec().cuda_cores;

    // Non-proportional policies share one global kind->lanes partition
    // across every class: either the paper's hard-coded ratio or a
    // split re-derived from the batch's amortized per-stage costs.
    StageKindCosts kind_lanes{};
    if (opt_.lane_policy != LanePolicy::Proportional) {
        LaneAllocator alloc(cores);
        kind_lanes = alloc.kindSplit(
            opt_.lane_policy == LanePolicy::FixedRatio
                ? LaneAllocator::paperRatioWeights()
                : LaneAllocator::measuredKindCosts(tasks));
    }

    // Group tasks into shape classes so the per-cycle kernel costs are
    // assembled per class rather than per instance (and so a uniform
    // batch collapses to the single-shape arithmetic).
    std::vector<TaskClass> classes;
    std::vector<size_t> task_class(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
        const StageGraph &g = tasks[i].graph;
        double total = g.totalCycles();
        size_t depth = g.totalDepth();
        uint64_t h2d = g.h2dBytes();
        uint64_t d2h = g.d2hBytes();
        uint64_t dev_bytes = g.deviceBytes();
        size_t cls = classes.size();
        for (size_t k = 0; k < classes.size(); ++k) {
            if (classes[k].total_cycles == total &&
                classes[k].depth == depth &&
                classes[k].h2d_bytes == h2d &&
                classes[k].d2h_bytes == d2h &&
                classes[k].device_bytes == dev_bytes &&
                classes[k].kind == tasks[i].kind) {
                cls = k;
                break;
            }
        }
        if (cls == classes.size()) {
            TaskClass tc;
            tc.total_cycles = total;
            tc.depth = depth;
            tc.h2d_bytes = h2d;
            tc.d2h_bytes = d2h;
            tc.device_bytes = dev_bytes;
            tc.kind = tasks[i].kind;
            tc.per_stage_lanes = cores / static_cast<double>(depth);
            // Under the proportional policy each class's own split makes
            // the cycle pace exactly total / lanes; under a global
            // partition the most-contended module group paces the class.
            if (opt_.lane_policy == LanePolicy::Proportional)
                tc.cycle_cycles = total / cores;
            else
                tc.cycle_cycles =
                    LaneAllocator::pacedCycleCycles(g, kind_lanes);
            tc.traffic_bytes = static_cast<uint64_t>(total / 40.0);
            classes.push_back(tc);
        }
        task_class[i] = cls;
    }

    dev_.resetTimeline();
    dev_.resetMemoryPeak();
    // Dynamic loading keeps one task's data per pipeline region — the
    // costliest in-flight shape bounds the residency. The preloading
    // ablation stages every task's inputs on the device up front.
    uint64_t resident = 0;
    uint64_t all_inputs = 0;
    uint64_t max_input = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const TaskClass &tc = classes[task_class[i]];
        all_inputs += tc.h2d_bytes;
        if (tc.device_bytes > resident) {
            resident = tc.device_bytes;
            max_input = tc.h2d_bytes;
        }
    }
    if (!opt_.dynamic_loading)
        resident += all_inputs - max_input;
    int64_t device_mem = dev_.alloc(resident);

    StreamId compute = dev_.createStream();
    StreamId h2d = opt_.overlap_transfers ? dev_.createStream() : compute;
    StreamId d2h = opt_.overlap_transfers ? dev_.createStream() : compute;

    // Per-task bookkeeping, in admission order.
    result.tasks.resize(tasks.size());
    std::vector<size_t> arrival_cycle(tasks.size(), 0);
    for (size_t i = 0; i < tasks.size(); ++i) {
        result.tasks[i].id = tasks[i].id;
        result.tasks[i].n_vars = tasks[i].n_vars;
        result.tasks[i].kind = tasks[i].kind;
        result.tasks[i].work_cycles = classes[task_class[i]].total_cycles;
    }

    std::deque<size_t> pending;
    for (size_t i = 0; i < tasks.size(); ++i)
        pending.push_back(i);
    std::vector<InFlight> flight;

    double first_end = 0.0;
    bool first_done = false;
    OpId prev_load = gpusim::kNoOp;
    if (!opt_.dynamic_loading) {
        // Preloading ablation: one bulk transfer before the pipeline.
        prev_load = dev_.copyH2D(h2d, all_inputs);
    }
    gpusim::FaultInjector *inj = dev_.faultInjector();
    double relocated_sum = 0.0;

    for (size_t c = 0; !pending.empty() || !flight.empty(); ++c) {
        double surv = 1.0;
        if (inj) {
            inj->beginCycle(c);
            double failed_frac = inj->failedLaneFraction();
            if (failed_frac > 0.0) {
                surv = LaneAllocator::survivorFraction(failed_frac);
                ++result.degraded_cycles;
                relocated_sum += 1.0 - surv;
            }
        }

        // Admit at most one task per cycle; its streamed input rides
        // the h2d stream under dynamic loading.
        OpId load = gpusim::kNoOp;
        bool admitted_now = false;
        size_t admitted_task = 0;
        if (!pending.empty()) {
            size_t ti = pending.front();
            pending.pop_front();
            const TaskClass &tc = classes[task_class[ti]];
            if (opt_.dynamic_loading)
                load = dev_.copyH2D(h2d, tc.h2d_bytes);
            ++classes[task_class[ti]].in_flight;
            flight.push_back({ti, task_class[ti], c + tc.depth - 1});
            TaskStats &ts = result.tasks[ti];
            if (ts.queue_wait_cycles == 0 && ts.retries == 0)
                ts.admit_cycle = c;
            ts.queue_wait_cycles += c - arrival_cycle[ti];
            result.h2d_bytes_streamed += tc.h2d_bytes;
            ++result.admitted;
            admitted_now = true;
            admitted_task = ti;
        }

        // One cycle kernel: every in-flight task holds its static
        // 1/depth share of the lanes; the costliest in-flight shape
        // paces the cycle.
        double active = 0.0;
        const TaskClass *pace = nullptr;
        for (const TaskClass &tc : classes) {
            if (tc.in_flight == 0)
                continue;
            active += tc.per_stage_lanes *
                      static_cast<double>(tc.in_flight);
            // Pace by the policy-derived cycle length; for the
            // proportional policy this is total / cores, so the
            // comparison is unchanged from the legacy total-cycles one.
            if (!pace || tc.cycle_cycles > pace->cycle_cycles)
                pace = &tc;
        }
        KernelDesc k;
        k.name = "system_cycle";
        // Graceful degradation: on a cycle with failed lanes, the
        // static proportional split is re-scaled onto the survivors —
        // the same work runs on fewer lanes over a longer cycle.
        k.lanes = cores * surv;
        k.profile.push_back({pace->cycle_cycles / surv, active * surv});
        k.mem_bytes = pace->traffic_bytes;
        OpId op = dev_.launchKernel(compute, k, prev_load);
        prev_load = load;
        ++result.cycles_run;

        if (metrics_ || trace_) {
            double t0 = dev_.opStart(op);
            double t1 = dev_.opEnd(op);
            int64_t cyc = static_cast<int64_t>(c);
            if (metrics_)
                metrics_
                    ->histogram(
                        "bzk_cycle_ms",
                        {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500},
                        "per-cycle wall time, ms")
                    .observe(t1 - t0);
            if (trace_) {
                // The three module groups co-run on partitioned lanes
                // for the whole cycle; each gets its own track so
                // Perfetto shows the static split and any degraded
                // stretching.
                std::string tag = "[c" + std::to_string(c) + "]";
                trace_->span("lane:encoder", "encoder" + tag, "encoder",
                             t0, t1, cyc);
                trace_->span("lane:merkle", "merkle" + tag, "merkle",
                             t0, t1, cyc);
                trace_->span("lane:sumcheck", "sumcheck" + tag,
                             "sumcheck", t0, t1, cyc);
                if (surv < 1.0)
                    trace_->instant("faults", "lane-failure" + tag,
                                    "fault", t0, cyc);
            }
        }

        // Root re-check on the staged Merkle layers of the task
        // admitted this cycle: detected corruption re-enqueues the task
        // rather than letting an invalid proof leave the pipeline.
        if (inj && admitted_now && inj->corruptionBytes() > 0 &&
            merkleRecheckDetects(*inj, opt_.seed, c)) {
            ++result.corrupt_detected;
            ++result.retried_tasks;
            ++result.tasks[admitted_task].retries;
            arrival_cycle[admitted_task] = c;
            pending.push_back(admitted_task);
            if (trace_)
                trace_->instant("faults",
                                "merkle-retry[c" + std::to_string(c) +
                                    "]",
                                "retry", dev_.opEnd(op),
                                static_cast<int64_t>(c));
        }

        // Completions: each finishing task's staged layers ride back
        // on the d2h stream behind this cycle's kernel.
        for (auto it = flight.begin(); it != flight.end();) {
            if (it->end_cycle != c) {
                ++it;
                continue;
            }
            dev_.copyD2H(d2h, classes[it->cls].d2h_bytes, op);
            --classes[it->cls].in_flight;
            TaskStats &ts = result.tasks[it->task];
            ts.complete_cycle = c;
            ts.complete_ms = dev_.opEnd(op);
            if (!first_done) {
                first_done = true;
                first_end = dev_.opEnd(op);
            }
            it = flight.erase(it);
        }
    }
    if (result.degraded_cycles > 0)
        result.relocated_lane_fraction =
            relocated_sum / static_cast<double>(result.degraded_cycles);

    result.total_ms = dev_.now();
    result.first_latency_ms = first_end;
    result.peak_device_bytes = dev_.peakMemory();
    result.busy_lane_ms = dev_.busyLaneMs();
    result.utilization =
        result.busy_lane_ms / (result.total_ms * dev_.spec().cuda_cores);

    if (metrics_) {
        auto &wait_hist = metrics_->histogram(
            "bzk_task_queue_wait_cycles",
            {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
            "cycles a task queued before admission");
        auto &turnaround_hist = metrics_->histogram(
            "bzk_task_turnaround_ms",
            {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000},
            "submission-to-completion time per task, ms");
        for (const TaskStats &ts : result.tasks) {
            wait_hist.observe(static_cast<double>(ts.queue_wait_cycles));
            turnaround_hist.observe(ts.complete_ms);
            metrics_
                ->counter("bzk_sched_tasks_" +
                              std::string(protocolKindMetricName(
                                  ts.kind)) +
                              "_total",
                          "tasks scheduled, by protocol kind")
                .add(1.0);
            metrics_
                ->counter("bzk_sched_work_cycles_" +
                              std::string(protocolKindMetricName(
                                  ts.kind)) +
                              "_total",
                          "lane-cycles scheduled, by protocol kind")
                .add(ts.work_cycles);
        }
    }

    dev_.free(device_mem);
    return result;
}

} // namespace bzk::sched
