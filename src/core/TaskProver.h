#ifndef BZK_CORE_TASKPROVER_H_
#define BZK_CORE_TASKPROVER_H_

/**
 * @file
 * The one mapping from a protocol kind to the tensor-SNARK relation
 * that proves it, and the service-level prove/verify built on it. The
 * network executor, the durable service and the CLI dispatch through
 * here instead of branching on the kind themselves.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/TensorSnark.h"
#include "sched/ProtocolKind.h"
#include "util/Log.h"
#include "util/Rng.h"

namespace bzk {

/**
 * A list of tensor-SNARK relations. Relations lists one per row of
 * sched::kProtocols: adding a protocol kind is one row there plus one
 * relation type here.
 */
template <typename Rel, typename... Rest>
struct RelationList
{
    /** Call @p fn with the listed relation that proves @p kind. */
    template <typename Fn>
    static decltype(auto)
    with(sched::ProtocolKind kind, Fn &fn)
    {
        if (kind == Rel::kKind)
            return fn(Rel{});
        if constexpr (sizeof...(Rest) > 0)
            return RelationList<Rest...>::with(kind, fn);
        else
            panic("withRelation: unknown protocol kind %u",
                  static_cast<unsigned>(kind));
    }

    /** True when each kProtocols row has exactly one listed relation. */
    static constexpr bool
    coversEveryKindOnce()
    {
        for (const sched::ProtocolSpec &spec : sched::kProtocols)
            if ((int{Rel::kKind == spec.kind} + ... +
                 int{Rest::kKind == spec.kind}) != 1)
                return false;
        return 1 + sizeof...(Rest) == sched::kNumProtocolKinds;
    }
};

using Relations = RelationList<CubicRelation, Degree6Relation>;
static_assert(Relations::coversEveryKindOnce());

/**
 * Call @p fn with a value of the relation that proves @p kind and
 * return its result (the same type for every relation).
 */
template <typename Fn>
decltype(auto)
withRelation(sched::ProtocolKind kind, Fn &&fn)
{
    return Relations::with(kind, fn);
}

/** The kind whose proofs lead with serialization tag @p tag, if any. */
inline std::optional<sched::ProtocolKind>
kindOfProofTag(uint8_t tag)
{
    auto tag_of = [](auto rel) { return decltype(rel)::kTag; };
    for (const sched::ProtocolSpec &spec : sched::kProtocols)
        if (withRelation(spec.kind, tag_of) == tag)
            return spec.kind;
    return std::nullopt;
}

/**
 * Instance derivation shared by every service front end: the
 * idempotency key, the public seed, and the table log-size pin the
 * witness stream, so the same task re-proved anywhere (durable
 * replay, the network server) is bit-identical.
 */
Rng taskInstanceRng(uint64_t task_id, uint64_t seed, uint32_t n_vars);

/**
 * Prove one service task with the relation of @p kind: derive its
 * instance from taskInstanceRng, prove it under @p exec (may be null),
 * and serialize the proof. nullopt when @p keep_going abandons it.
 */
std::optional<std::vector<uint8_t>>
proveTask(sched::ProtocolKind kind, uint64_t task_id, uint64_t seed,
          uint32_t n_vars, size_t column_openings,
          const exec::ExecContext *exec,
          const ProveStageHook &keep_going = {});

/**
 * Decode @p bytes as a proof of @p kind and verify it for tables of
 * 2^n_vars rows under encoder @p seed, with no public inputs. False
 * when the bytes are malformed or tagged for another kind.
 */
bool verifyTaskProof(sched::ProtocolKind kind,
                     std::span<const uint8_t> bytes, uint32_t n_vars,
                     uint64_t seed, size_t column_openings = 8);

} // namespace bzk

#endif // BZK_CORE_TASKPROVER_H_
