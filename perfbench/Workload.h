#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/**
 * @file
 * The three benchmark workloads and the seeded task stream each one
 * sends. The server only ever sees the generated Submits; the workload
 * seed picks the task ids and the kind order of the mixed stream.
 * Every task carries the same public encoder seed, as one fixed
 * circuit-size class would.
 */

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/Wire.h"
#include "sched/ProtocolKind.h"
#include "util/Rng.h"

namespace perfbench {

using bzk::sched::ProtocolKind;

/** Public encoder seed shared by every task (one circuit-size class). */
inline constexpr uint64_t kEncoderSeed = 2024;

/** PCS spot-check count; SnarkExecutor's default. */
inline constexpr size_t kColumnOpenings = 8;

/** Host wall clock, ms since the first call in this process. */
inline double
nowMs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

struct Workload
{
    std::string name;
    /** Kinds: table-commit only, high-degree-gate only, or 50/50. */
    bool mixed = false;
    ProtocolKind kind = ProtocolKind::TableCommit;
    uint32_t n_vars = 10;
    /** Client connections, each with one task outstanding (closed
     *  loop); more connections than server workers queue tasks. */
    size_t connections = 2;
    /** Latency limit for within_slo_fraction, ms. */
    double slo_ms = 0.0;
    /** Untimed tasks sent before the measured window. */
    size_t warmup_tasks = 4;
};

/**
 * The workload table. Each SLO limit is about 4x the median proof time
 * (exec.execute p50) measured when the benchmark was defined, on a
 * 4-core AVX-512 x86-64 VM: tc14 ~250 ms, hdg14 ~300 ms, mixed n_vars
 * 10 ~22 ms. See NOTES.md for why each workload exists.
 */
inline std::optional<Workload>
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "tc14-closed") {
        w.kind = ProtocolKind::TableCommit;
        w.n_vars = 14;
        w.slo_ms = 1000.0;
    } else if (name == "hdg14-closed") {
        w.kind = ProtocolKind::HighDegreeGate;
        w.n_vars = 14;
        w.slo_ms = 1200.0;
    } else if (name == "mixed10-closed") {
        w.mixed = true;
        w.n_vars = 10;
        w.connections = 4;
        w.slo_ms = 100.0;
        w.warmup_tasks = 16;
    } else {
        return std::nullopt;
    }
    return w;
}

inline const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tc14-closed", "hdg14-closed", "mixed10-closed"};
    return names;
}

/**
 * Seeded task stream: task i has id base+i and, for the mixed
 * workload, a kind drawn so each aligned pair holds one of each kind
 * in a seeded order (exactly 50/50, interleaved).
 */
class TaskStream
{
  public:
    TaskStream(const Workload &w, uint64_t seed)
        : w_(w), rng_(seed ^ 0x5eedba5eULL)
    {
        base_ = (rng_.next() & 0xffffffULL) << 24;
    }

    bzk::net::Submit
    next()
    {
        bzk::net::Submit s;
        s.task_id = base_ + issued_;
        s.n_vars = w_.n_vars;
        s.seed = kEncoderSeed;
        s.kind = w_.kind;
        if (w_.mixed) {
            if (issued_ % 2 == 0)
                pair_flip_ = (rng_.next() & 1) != 0;
            bool hdg = ((issued_ % 2) != 0) != pair_flip_;
            s.kind = hdg ? ProtocolKind::HighDegreeGate
                         : ProtocolKind::TableCommit;
        }
        ++issued_;
        return s;
    }

    /** Task ids at or above this are never issued by next(). */
    uint64_t
    reservedIdBase() const
    {
        return base_ + (uint64_t{1} << 23);
    }

  private:
    Workload w_;
    bzk::Rng rng_;
    uint64_t base_ = 0;
    uint64_t issued_ = 0;
    bool pair_flip_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H_
