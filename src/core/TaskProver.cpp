#include "core/TaskProver.h"

#include "core/Serialize.h"

namespace bzk {

Rng
taskInstanceRng(uint64_t task_id, uint64_t seed, uint32_t n_vars)
{
    uint64_t mix = seed ^ (task_id * 0x9e3779b97f4a7c15ULL);
    return Rng(mix ^ (uint64_t{n_vars} << 56));
}

std::optional<std::vector<uint8_t>>
proveTask(sched::ProtocolKind kind, uint64_t task_id, uint64_t seed,
          uint32_t n_vars, size_t column_openings,
          const exec::ExecContext *exec, const ProveStageHook &keep_going)
{
    return withRelation(
        kind, [&](auto rel) -> std::optional<std::vector<uint8_t>> {
            using Rel = decltype(rel);
            Rng rng = taskInstanceRng(task_id, seed, n_vars);
            auto tables = Rel::template instance<Fr>(n_vars, rng);
            TensorSnark<Fr, Rel> snark(n_vars, seed, column_openings);
            snark.setExec(exec);
            auto proof = snark.proveInterruptible(tables, {}, keep_going);
            if (!proof)
                return std::nullopt;
            return serializeProof(*proof);
        });
}

bool
verifyTaskProof(sched::ProtocolKind kind, std::span<const uint8_t> bytes,
                uint32_t n_vars, uint64_t seed, size_t column_openings)
{
    return withRelation(kind, [&](auto rel) {
        using Rel = decltype(rel);
        auto proof = deserializeProof<Fr, Rel>(bytes);
        TensorSnark<Fr, Rel> verifier(n_vars, seed, column_openings);
        return proof && verifier.verify(*proof, {});
    });
}

} // namespace bzk
