#ifndef BZK_CORE_SERIALIZE_H_
#define BZK_CORE_SERIALIZE_H_

/**
 * @file
 * Wire format for proofs.
 *
 * The paper's deployment scenarios (MLaaS, zkBridge) ship proofs over
 * the network, so the library provides a deterministic, bounds-checked
 * byte encoding for every proof type. Layout is little-endian with
 * u32 length prefixes; a version byte leads each proof so the format
 * can evolve.
 */

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/Bytes.h"
#include "core/FullSnark.h"
#include "core/TensorSnark.h"
#include "gkr/Gkr.h"

namespace bzk {

namespace detail {

// Tensor-SNARK proofs lead with their relation's kTag (0x01, 0x04).
constexpr uint8_t kFullSnarkProofTag = 0x02;
constexpr uint8_t kGkrProofTag = 0x03;
/** Caps for hostile length prefixes. */
constexpr size_t kMaxRounds = 64;
constexpr size_t kMaxRowLen = size_t{1} << 24;
constexpr size_t kMaxColumns = 4096;
constexpr size_t kMaxPathLen = 64;

template <typename F>
void
writeEvalProof(ByteWriter &w, const PcsEvalProof<F> &open)
{
    w.u32(static_cast<uint32_t>(open.eval_row.size()));
    for (const F &v : open.eval_row)
        w.field(v);
    w.u32(static_cast<uint32_t>(open.proximity_row.size()));
    for (const F &v : open.proximity_row)
        w.field(v);
    w.u32(static_cast<uint32_t>(open.columns.size()));
    for (const auto &column : open.columns) {
        w.u32(static_cast<uint32_t>(column.size()));
        for (const F &v : column)
            w.field(v);
    }
    for (const auto &path : open.paths) {
        w.u64(path.leaf_index);
        w.u32(static_cast<uint32_t>(path.siblings.size()));
        for (const Digest &d : path.siblings)
            w.digest(d);
    }
}

template <typename F>
PcsEvalProof<F>
readEvalProof(ByteReader &r)
{
    PcsEvalProof<F> open;
    size_t n = r.length(kMaxRowLen);
    open.eval_row.resize(n);
    for (auto &v : open.eval_row)
        v = r.template field<F>();
    n = r.length(kMaxRowLen);
    open.proximity_row.resize(n);
    for (auto &v : open.proximity_row)
        v = r.template field<F>();
    size_t cols = r.length(kMaxColumns);
    open.columns.resize(cols);
    for (auto &column : open.columns) {
        size_t k = r.length(kMaxRowLen);
        column.resize(k);
        for (auto &v : column)
            v = r.template field<F>();
    }
    open.paths.resize(cols);
    for (auto &path : open.paths) {
        path.leaf_index = r.u64();
        size_t depth = r.length(kMaxPathLen);
        path.siblings.resize(depth);
        for (auto &d : path.siblings)
            d = r.digest();
    }
    return open;
}

template <typename F>
void
writeRounds(ByteWriter &w, const ProductSumcheckProof<F> &sc)
{
    w.u32(static_cast<uint32_t>(sc.rounds.size()));
    for (const auto &g : sc.rounds) {
        w.u32(static_cast<uint32_t>(g.size()));
        for (const F &v : g)
            w.field(v);
    }
}

template <typename F>
ProductSumcheckProof<F>
readRounds(ByteReader &r)
{
    ProductSumcheckProof<F> sc;
    size_t rounds = r.length(kMaxRounds);
    sc.rounds.resize(rounds);
    for (auto &g : sc.rounds) {
        size_t evals = r.length(8);
        g.resize(evals);
        for (auto &v : g)
            v = r.template field<F>();
    }
    return sc;
}

} // namespace detail

/** Encode a tensor-SNARK proof under its relation's tag. */
template <typename F, typename Rel>
std::vector<uint8_t>
serializeProof(const TensorProof<F, Rel> &proof)
{
    ByteWriter w;
    w.u8(Rel::kTag);
    w.digest(proof.commit_a.root);
    w.u8(static_cast<uint8_t>(proof.commit_a.n_vars));
    w.digest(proof.commit_b.root);
    w.u8(static_cast<uint8_t>(proof.commit_b.n_vars));
    w.digest(proof.commit_c.root);
    w.u8(static_cast<uint8_t>(proof.commit_c.n_vars));
    detail::writeRounds(w, proof.gate_sc);
    w.field(proof.va);
    w.field(proof.vb);
    w.field(proof.vc);
    detail::writeEvalProof(w, proof.open_a);
    detail::writeEvalProof(w, proof.open_b);
    detail::writeEvalProof(w, proof.open_c);
    return w.take();
}

/**
 * Decode a tensor-SNARK proof of relation @p Rel (table-commit by
 * default); nullopt when malformed or tagged for another relation.
 */
template <typename F, typename Rel = CubicRelation>
std::optional<TensorProof<F, Rel>>
deserializeProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != Rel::kTag)
        return std::nullopt;
    TensorProof<F, Rel> proof;
    proof.commit_a.root = r.digest();
    proof.commit_a.n_vars = r.u8();
    proof.commit_b.root = r.digest();
    proof.commit_b.n_vars = r.u8();
    proof.commit_c.root = r.digest();
    proof.commit_c.n_vars = r.u8();
    proof.gate_sc = detail::readRounds<F>(r);
    proof.va = r.field<F>();
    proof.vb = r.field<F>();
    proof.vc = r.field<F>();
    proof.open_a = detail::readEvalProof<F>(r);
    proof.open_b = detail::readEvalProof<F>(r);
    proof.open_c = detail::readEvalProof<F>(r);
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

/** Encode a high-degree-gate proof (serializeProof, kept by name). */
template <typename F>
std::vector<uint8_t>
serializeHighDegreeProof(const HighDegreeProof<F> &proof)
{
    return serializeProof(proof);
}

/** Decode a high-degree-gate proof; nullopt when malformed. */
template <typename F>
std::optional<HighDegreeProof<F>>
deserializeHighDegreeProof(std::span<const uint8_t> bytes)
{
    return deserializeProof<F, Degree6Relation>(bytes);
}

/** Encode a wiring-sound proof. */
template <typename F>
std::vector<uint8_t>
serializeFullProof(const FullSnarkProof<F> &proof)
{
    ByteWriter w;
    w.u8(detail::kFullSnarkProofTag);
    w.digest(proof.commit_w.root);
    w.u8(static_cast<uint8_t>(proof.commit_w.n_vars));
    detail::writeRounds(w, proof.phase1);
    w.field(proof.va);
    w.field(proof.vb);
    w.field(proof.vc);
    detail::writeRounds(w, proof.phase2);
    w.field(proof.vw);
    detail::writeEvalProof(w, proof.open_w);
    return w.take();
}

/** Decode a wiring-sound proof; nullopt when malformed. */
template <typename F>
std::optional<FullSnarkProof<F>>
deserializeFullProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != detail::kFullSnarkProofTag)
        return std::nullopt;
    FullSnarkProof<F> proof;
    proof.commit_w.root = r.digest();
    proof.commit_w.n_vars = r.u8();
    proof.phase1 = detail::readRounds<F>(r);
    proof.va = r.field<F>();
    proof.vb = r.field<F>();
    proof.vc = r.field<F>();
    proof.phase2 = detail::readRounds<F>(r);
    proof.vw = r.field<F>();
    proof.open_w = detail::readEvalProof<F>(r);
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

/** Encode a GKR proof. */
template <typename F>
std::vector<uint8_t>
serializeGkrProof(const GkrProof<F> &proof)
{
    ByteWriter w;
    w.u8(detail::kGkrProofTag);
    w.u32(static_cast<uint32_t>(proof.outputs.size()));
    for (const F &o : proof.outputs)
        w.field(o);
    w.u32(static_cast<uint32_t>(proof.layers.size()));
    for (const auto &layer : proof.layers) {
        w.u32(static_cast<uint32_t>(layer.rounds.size()));
        for (const auto &g : layer.rounds) {
            w.u32(static_cast<uint32_t>(g.size()));
            for (const F &v : g)
                w.field(v);
        }
        w.field(layer.vx);
        w.field(layer.vy);
    }
    return w.take();
}

/** Decode a GKR proof; nullopt when malformed. */
template <typename F>
std::optional<GkrProof<F>>
deserializeGkrProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != detail::kGkrProofTag)
        return std::nullopt;
    GkrProof<F> proof;
    size_t outs = r.length(detail::kMaxRowLen);
    proof.outputs.resize(outs);
    for (auto &o : proof.outputs)
        o = r.field<F>();
    size_t layers = r.length(256);
    proof.layers.resize(layers);
    for (auto &layer : proof.layers) {
        size_t rounds = r.length(2 * detail::kMaxRounds);
        layer.rounds.resize(rounds);
        for (auto &g : layer.rounds) {
            size_t evals = r.length(8);
            g.resize(evals);
            for (auto &v : g)
                v = r.field<F>();
        }
        layer.vx = r.field<F>();
        layer.vy = r.field<F>();
    }
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

} // namespace bzk

#endif // BZK_CORE_SERIALIZE_H_
