#ifndef BZK_SCHED_PROTOCOLKIND_H_
#define BZK_SCHED_PROTOCOLKIND_H_

/**
 * @file
 * The protocol-kind abstraction: which proving protocol a task runs.
 *
 * Every layer that carries tasks — the scheduler, the durable journal,
 * the wire protocol, the CLI — tags them with a ProtocolKind so one
 * batch can mix protocols with different module cost ratios. The enum
 * values are wire/journal-stable: they are serialized as a single byte
 * in journal task records (body version 2) and in Submit messages
 * (wire version 2), so existing values must never be renumbered.
 * Every layer looks a kind up in kProtocols; what a kind proves is its
 * relation, listed in core/TaskProver.h.
 */

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>

namespace bzk::sched {

/** Which proving protocol a task runs. Byte-stable on wire and disk. */
enum class ProtocolKind : uint8_t {
    /**
     * The legacy BatchZK workload: Brakedown-style table commitment
     * plus the cubic constraint sum-check (paper Fig. 7).
     */
    TableCommit = 0,
    /**
     * HyperPlonk-style high-degree custom gate: the same tensor-PCS
     * commitments, but the constraint sum-check proves the degree-5
     * gate identity a^4*b - c = 0, giving degree-6 round polynomials
     * and a sum-check-dominated module cost mix.
     */
    HighDegreeGate = 1,
};

/** One row of kProtocols: everything that identifies a kind. */
struct ProtocolSpec
{
    ProtocolKind kind;
    const char *name;         // display name and CLI --kind value
    const char *metric_name;  // metric-safe name
    uint8_t min_wire_version; // oldest wire version whose Submit carries it
};

/** Every protocol kind; row i describes the kind with byte i. */
constexpr ProtocolSpec kProtocols[] = {
    {ProtocolKind::TableCommit, "table-commit", "table_commit", 1},
    {ProtocolKind::HighDegreeGate, "high-degree-gate", "high_degree_gate",
     2},
};

/** Number of protocol kinds (for per-kind tables). */
constexpr size_t kNumProtocolKinds = std::size(kProtocols);

static_assert(
    [] {
        for (size_t i = 0; i < kNumProtocolKinds; ++i)
            if (static_cast<size_t>(kProtocols[i].kind) != i)
                return false;
        return true;
    }(),
    "kProtocols row i must describe the kind with byte i");

/** The kind of journal task bodies v1 and wire v1 Submits (no byte). */
constexpr ProtocolKind kLegacyProtocolKind = ProtocolKind::TableCommit;

/** The row of @p kind; nullptr for a value outside the enum. */
constexpr const ProtocolSpec *
protocolSpec(ProtocolKind kind)
{
    size_t index = static_cast<size_t>(kind);
    return index < kNumProtocolKinds ? &kProtocols[index] : nullptr;
}

/** Stable display name ("table-commit", "high-degree-gate"). */
inline const char *
protocolKindName(ProtocolKind kind)
{
    const ProtocolSpec *spec = protocolSpec(kind);
    return spec ? spec->name : "?";
}

/** Metric-safe name ("table_commit", "high_degree_gate"). */
inline const char *
protocolKindMetricName(ProtocolKind kind)
{
    const ProtocolSpec *spec = protocolSpec(kind);
    return spec ? spec->metric_name : "unknown";
}

/** Decode a wire/journal byte; nullopt for unknown kinds. */
inline std::optional<ProtocolKind>
protocolKindFromByte(uint8_t byte)
{
    if (byte >= kNumProtocolKinds)
        return std::nullopt;
    return kProtocols[byte].kind;
}

/** The kind whose display name is @p name; nullopt if none. */
inline std::optional<ProtocolKind>
protocolKindByName(std::string_view name)
{
    for (const ProtocolSpec &spec : kProtocols)
        if (name == spec.name)
            return spec.kind;
    return std::nullopt;
}

/** True when a wire-version @p version Submit can carry @p kind. */
inline bool
wireCanCarry(ProtocolKind kind, uint8_t version)
{
    const ProtocolSpec *spec = protocolSpec(kind);
    return spec && version >= spec->min_wire_version;
}

} // namespace bzk::sched

#endif // BZK_SCHED_PROTOCOLKIND_H_
