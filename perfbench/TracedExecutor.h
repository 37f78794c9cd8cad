#ifndef PERFBENCH_TRACEDEXECUTOR_H_
#define PERFBENCH_TRACEDEXECUTOR_H_

/**
 * @file
 * The benchmark-owned executor of the traced run. It makes the calls
 * net::SnarkExecutor::execute makes — taskInstanceRng, the instance
 * builder, the prover with a serial ExecContext, serialization — and
 * timestamps each call from the outside: instance derivation, the
 * prover's ProveStage hooks, and the ExecContext region stats of the
 * encoder and Merkle modules. Nothing inside src/ is instrumented; the
 * hook only observes and always lets the prover continue, which keeps
 * the proof bytes those of prove() (checked per task by e2e.cpp).
 */

#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "Workload.h"
#include "core/DurableService.h"
#include "core/HighDegreeSnark.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "net/Executor.h"

namespace perfbench {

/** Host wall-clock timestamps (nowMs) of one traced execute(). */
struct ExecTimes
{
    double entry = 0, instance_begin = 0, instance_end = 0;
    double prove_begin = 0, merkle_hook = 0;
    double fiat_shamir_hook = 0, sumcheck_hook = 0, prove_end = 0;
    double serialize_end = 0, exit = 0;
    /** ExecContext::stats("encoder"/"merkle").wall_ms of this task. */
    double encoder_ms = 0, merkle_ms = 0;
};

class TracedExecutor : public bzk::net::ProofExecutor
{
  public:
    std::vector<uint8_t>
    execute(const bzk::net::Submit &task) override
    {
        using namespace bzk;
        ExecTimes t;
        t.entry = nowMs();
        Rng rng = taskInstanceRng(task.task_id, task.seed, task.n_vars);
        exec::ExecContext exec(exec::ExecConfig{.threads = 1});
        std::vector<uint8_t> bytes;
        if (task.kind == ProtocolKind::HighDegreeGate) {
            t.instance_begin = nowMs();
            auto tables = highDegreeInstance<Fr>(task.n_vars, rng);
            t.instance_end = nowMs();
            HighDegreeSnark<Fr> snark(task.n_vars, task.seed,
                                      kColumnOpenings);
            bytes = proveTimed(snark, tables, exec, t,
                               [](const auto &p) {
                                   return serializeHighDegreeProof(p);
                               });
        } else {
            t.instance_begin = nowMs();
            auto tables = randomInstance(task.n_vars, rng);
            t.instance_end = nowMs();
            Snark<Fr> snark(task.n_vars, task.seed, kColumnOpenings);
            bytes = proveTimed(snark, tables, exec, t,
                               [](const auto &p) {
                                   return serializeProof(p);
                               });
        }
        t.encoder_ms = exec.stats("encoder").wall_ms;
        t.merkle_ms = exec.stats("merkle").wall_ms;
        t.exit = nowMs();
        std::lock_guard<std::mutex> lock(mu_);
        times_[task.task_id] = t;
        return bytes;
    }

    /** Timestamps of task @p id, if it was executed. */
    std::optional<ExecTimes>
    times(uint64_t id) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = times_.find(id);
        if (it == times_.end())
            return std::nullopt;
        return it->second;
    }

  private:
    template <typename SnarkT, typename SerializeFn>
    static std::vector<uint8_t>
    proveTimed(SnarkT &snark, const bzk::ConstraintTables<bzk::Fr> &tables,
               const bzk::exec::ExecContext &exec, ExecTimes &t,
               SerializeFn &&serialize)
    {
        using bzk::ProveStage;
        snark.setExec(&exec);
        auto hook = [&t](ProveStage stage) {
            double now = nowMs();
            switch (stage) {
              case ProveStage::Encode:
                // Fires after the first of three commits; the encoder
                // and Merkle split comes from the ExecContext regions.
                break;
              case ProveStage::Merkle:
                t.merkle_hook = now;
                break;
              case ProveStage::FiatShamir:
                t.fiat_shamir_hook = now;
                break;
              case ProveStage::Sumcheck:
                t.sumcheck_hook = now;
                break;
            }
            return true;
        };
        t.prove_begin = nowMs();
        auto proof = snark.proveInterruptible(tables, {}, hook);
        t.prove_end = nowMs();
        auto bytes = serialize(*proof);
        t.serialize_end = nowMs();
        return bytes;
    }

    mutable std::mutex mu_;
    std::map<uint64_t, ExecTimes> times_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACEDEXECUTOR_H_
