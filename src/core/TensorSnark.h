#ifndef BZK_CORE_TENSORSNARK_H_
#define BZK_CORE_TENSORSNARK_H_

/**
 * @file
 * The BatchZK proof system: an Orion/Brakedown-shaped SNARK composed
 * exactly from the paper's three modules (Figure 7 data flow), with the
 * gate relation as its only parameter:
 *
 *   1. commit the tables a, b, c with the tensor PCS
 *      (linear-time encoder -> column Merkle trees -> roots);
 *   2. derive the gate challenge tau from the roots (Fiat-Shamir);
 *   3. run the gate sum-check  sum_x eq(tau,x) * G(a(x),b(x),c(x)) = 0;
 *   4. open a, b, c at the sum-check's final point through the PCS;
 *   5. the verifier replays the transcript, checks the sum-check,
 *      checks eq(tau,r) * G(va,vb,vc) == final sum-check claim, and
 *      checks the three openings.
 *
 * Two relations instantiate it, one per tensor protocol kind:
 *
 *   - CubicRelation, G = a*b - c (table-commit, paper Fig. 7);
 *   - Degree6Relation, G = a^4*b - c (high-degree-gate, HyperPlonk
 *     style), whose degree-6 rounds shift cost toward the sum-check.
 *
 * Each relation has its own transcript domain, so a proof of one can
 * never replay as the other. Simplifications relative to a production
 * system are documented in DESIGN.md Sec. 6 (notably: wiring
 * consistency between gates is not proven — the committed tables are
 * only shown to be gate-consistent — and soundness parameters are
 * test-sized by default).
 */

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "circuit/Circuit.h"
#include "core/TensorPcs.h"
#include "ff/Fields.h"
#include "hash/Transcript.h"
#include "sched/ProtocolKind.h"
#include "sumcheck/GateSumcheck.h"
#include "util/Rng.h"

namespace bzk {

/**
 * Stage boundaries the interruptible prover reports, matching the
 * pipeline's module groups. The encoder and Merkle modules are fused
 * inside TensorPcs::commit, so their boundary is observed at commit
 * granularity: Encode fires once the first table is committed, Merkle
 * once all three are.
 */
enum class ProveStage : uint8_t {
    /** First table committed (encoder module has run). */
    Encode,
    /** All tables committed (Merkle module has run). */
    Merkle,
    /** Gate challenge derived from the transcript. */
    FiatShamir,
    /** Gate sum-check finished (openings still outstanding). */
    Sumcheck,
};

/**
 * Called at each ProveStage boundary of an interruptible prove. Return
 * false to abandon the proof there — the crash/recovery harness uses
 * this to model a process dying between pipeline stages.
 */
using ProveStageHook = std::function<bool(ProveStage)>;

/** x^4 via two squarings. */
template <typename F>
inline F
pow4(const F &x)
{
    F sq = x * x;
    return sq * sq;
}

/**
 * The table-commit relation: the multiplication gate a*b = c, proved
 * with cubic round polynomials (4 evaluations per round).
 */
struct CubicRelation
{
    static constexpr auto kKind = sched::ProtocolKind::TableCommit;
    static constexpr size_t kEvals = 4;
    static constexpr uint8_t kTag = 0x01;
    static constexpr std::string_view kDomain = "batchzk.snark.v1";
    static constexpr std::string_view kRoundLabel = "csc.g";
    static constexpr std::string_view kChallengeLabel = "csc.r";
    // Simulated sum-check work per row pair: the cubic round
    // evaluations plus the folds of four tables.
    static constexpr double kModelMulsPerPair = 12.0;
    static constexpr double kModelAddsPerPair = 30.0;

    template <typename F>
    static F
    gate(const F &a, const F &b, const F &c)
    {
        return a * b - c;
    }

    /** Tables of a random satisfied circuit filling 2^n_vars rows. */
    template <typename F>
    static ConstraintTables<F>
    instance(unsigned n_vars, Rng &rng)
    {
        size_t target = (size_t{1} << n_vars) - (size_t{1} << (n_vars - 2));
        auto circuit = randomCircuit<F>(target, 8, rng);
        std::vector<F> witness(circuit.numWitnesses());
        for (auto &w : witness)
            w = F::random(rng);
        return circuit.buildTables(circuit.evaluate({}, witness));
    }
};

/**
 * The high-degree-gate relation: the custom gate a^4*b = c, proved with
 * degree-6 round polynomials (7 evaluations per round).
 */
struct Degree6Relation
{
    static constexpr auto kKind = sched::ProtocolKind::HighDegreeGate;
    static constexpr size_t kEvals = 7;
    static constexpr uint8_t kTag = 0x04;
    static constexpr std::string_view kDomain = "batchzk.hdg.v1";
    static constexpr std::string_view kRoundLabel = "hdg.g";
    static constexpr std::string_view kChallengeLabel = "hdg.r";
    // Simulated sum-check work per row pair: eq * (a^4 b - c) at 7
    // points (five via affine folds, a^4 via two squarings) plus the
    // folds of four tables.
    static constexpr double kModelMulsPerPair = 56.0;
    static constexpr double kModelAddsPerPair = 70.0;

    template <typename F>
    static F
    gate(const F &a, const F &b, const F &c)
    {
        return pow4(a) * b - c;
    }

    /** Random a and b, c = a^4 * b row-wise. */
    template <typename F>
    static ConstraintTables<F>
    instance(unsigned n_vars, Rng &rng)
    {
        size_t size = size_t{1} << n_vars;
        ConstraintTables<F> tables;
        tables.n_vars = n_vars;
        tables.a.resize(size);
        tables.b.resize(size);
        tables.c.resize(size);
        for (size_t i = 0; i < size; ++i) {
            tables.a[i] = F::random(rng);
            tables.b[i] = F::random(rng);
            tables.c[i] = pow4(tables.a[i]) * tables.b[i];
        }
        return tables;
    }
};

/**
 * A satisfied table-commit instance. Deterministic in @p rng: the
 * durable service and the network executor derive identical instances
 * from taskInstanceRng, which keeps crash+replay bit-identical.
 */
inline ConstraintTables<Fr>
randomInstance(unsigned n_vars, Rng &rng)
{
    return CubicRelation::instance<Fr>(n_vars, rng);
}

/** A satisfied high-degree-gate instance (see randomInstance). */
template <typename F>
ConstraintTables<F>
highDegreeInstance(unsigned n_vars, Rng &rng)
{
    return Degree6Relation::instance<F>(n_vars, rng);
}

/** A complete proof of relation @p Rel. */
template <typename F, typename Rel>
struct TensorProof
{
    PcsCommitment commit_a;
    PcsCommitment commit_b;
    PcsCommitment commit_c;
    /** Gate sum-check: Rel::kEvals evaluations per round. */
    ProductSumcheckProof<F> gate_sc;
    /** Claimed openings of the three tables at the sum-check point. */
    F va{};
    F vb{};
    F vc{};
    PcsEvalProof<F> open_a;
    PcsEvalProof<F> open_b;
    PcsEvalProof<F> open_c;

    /** Rough wire size of the proof in bytes (paper: "several MB"). */
    size_t
    sizeBytes() const
    {
        size_t bytes = 3 * 32; // roots
        for (const auto &round : gate_sc.rounds)
            bytes += round.size() * F::kNumBytes;
        bytes += 3 * F::kNumBytes;
        for (const PcsEvalProof<F> *open : {&open_a, &open_b, &open_c}) {
            bytes += (open->eval_row.size() + open->proximity_row.size()) *
                     F::kNumBytes;
            for (const auto &column : open->columns)
                bytes += column.size() * F::kNumBytes;
            for (const auto &path : open->paths)
                bytes += path.siblings.size() * 32 + 8;
        }
        return bytes;
    }
};

/** Prover + verifier of relation @p Rel for a fixed table size. */
template <typename F, typename Rel>
class TensorSnark
{
  public:
    using Proof = TensorProof<F, Rel>;

    /**
     * @param n_vars tables have 2^n_vars rows.
     * @param seed   shared encoder seed (part of the public parameters).
     * @param column_openings PCS spot-check count.
     */
    TensorSnark(unsigned n_vars, uint64_t seed, size_t column_openings = 8)
        : n_vars_(n_vars), pcs_(n_vars, seed, column_openings)
    {
    }

    /** The PCS instance (exposed for cost accounting). */
    const TensorPcs<F> &pcs() const { return pcs_; }

    /**
     * Attach a host execution context: commits, sum-check rounds, and
     * openings run across its thread pool. The context must outlive the
     * prover calls; proofs are bit-identical for any thread count.
     */
    void setExec(const exec::ExecContext *exec) { exec_ = exec; }

    /** Prove that the tables satisfy Rel::gate(a, b, c) = 0 row-wise. */
    Proof
    prove(const ConstraintTables<F> &tables,
          std::span<const F> public_inputs) const
    {
        return *proveInterruptible(tables, public_inputs, {});
    }

    /**
     * prove() with a stage-boundary hook: @p keep_going is called at
     * each ProveStage boundary and may return false to abandon the
     * proof there (nullopt). With an empty hook this IS prove() — the
     * same statements in the same order — so completed proofs are
     * bit-identical either way.
     */
    std::optional<Proof>
    proveInterruptible(const ConstraintTables<F> &tables,
                       std::span<const F> public_inputs,
                       const ProveStageHook &keep_going) const
    {
        if (tables.n_vars != n_vars_)
            panic("TensorSnark::prove: tables have %u vars, system built "
                  "for %u",
                  tables.n_vars, n_vars_);

        Transcript transcript(Rel::kDomain);
        absorbStatement(transcript, public_inputs);

        // 1. Commit (encoder + Merkle modules).
        Proof proof;
        auto st_a = pcs_.commit(tables.a, exec_);
        if (keep_going && !keep_going(ProveStage::Encode))
            return std::nullopt;
        auto st_b = pcs_.commit(tables.b, exec_);
        auto st_c = pcs_.commit(tables.c, exec_);
        if (keep_going && !keep_going(ProveStage::Merkle))
            return std::nullopt;
        proof.commit_a = st_a.commitment;
        proof.commit_b = st_b.commitment;
        proof.commit_c = st_c.commitment;
        absorbCommitments(transcript, proof);

        // 2. Gate challenge.
        std::vector<F> tau = challengeTau(transcript);
        if (keep_going && !keep_going(ProveStage::FiatShamir))
            return std::nullopt;

        // 3. Gate sum-check over eq * G(a, b, c).
        std::vector<F> point;
        {
            std::vector<F> eq = eqTable(tau);
            std::vector<F> a = tables.a;
            std::vector<F> b = tables.b;
            std::vector<F> c = tables.c;
            proof.gate_sc = proveGateSumcheckFs<Rel>(eq, a, b, c, transcript,
                                                     &point, exec_);
        }
        if (keep_going && !keep_going(ProveStage::Sumcheck))
            return std::nullopt;

        // 4. Open the tables at the final point.
        proof.va = pcs_.evaluate(st_a, point);
        proof.vb = pcs_.evaluate(st_b, point);
        proof.vc = pcs_.evaluate(st_c, point);
        absorbOpenings(transcript, proof);

        proof.open_a = pcs_.open(st_a, point, transcript, exec_);
        proof.open_b = pcs_.open(st_b, point, transcript, exec_);
        proof.open_c = pcs_.open(st_c, point, transcript, exec_);
        return proof;
    }

    /** Verify a proof against the public inputs. */
    bool
    verify(const Proof &proof, std::span<const F> public_inputs) const
    {
        Transcript transcript(Rel::kDomain);
        absorbStatement(transcript, public_inputs);
        absorbCommitments(transcript, proof);
        std::vector<F> tau = challengeTau(transcript);

        // The claimed total is zero.
        auto verdict =
            verifyGateSumcheckFs<Rel>(F::zero(), proof.gate_sc, transcript);
        if (!verdict.ok || verdict.point.size() != n_vars_)
            return false;
        const std::vector<F> &point = verdict.point;

        // Final algebraic check against the claimed openings:
        // eq(tau, point) = prod_i ((1-tau_i)(1-r_i) + tau_i r_i).
        F eq_at_point = F::one();
        for (unsigned i = 0; i < n_vars_; ++i) {
            eq_at_point *= (F::one() - tau[i]) * (F::one() - point[i]) +
                           tau[i] * point[i];
        }
        if (eq_at_point * Rel::gate(proof.va, proof.vb, proof.vc) !=
            verdict.final_claim)
            return false;

        absorbOpenings(transcript, proof);
        return pcs_.verify(proof.commit_a, point, proof.va, proof.open_a,
                           transcript) &&
               pcs_.verify(proof.commit_b, point, proof.vb, proof.open_b,
                           transcript) &&
               pcs_.verify(proof.commit_c, point, proof.vc, proof.open_c,
                           transcript);
    }

  private:
    void
    absorbStatement(Transcript &transcript,
                    std::span<const F> public_inputs) const
    {
        uint8_t n = static_cast<uint8_t>(n_vars_);
        transcript.absorb("n_vars", std::span<const uint8_t>(&n, 1));
        for (const F &x : public_inputs)
            transcript.absorbField("public", x);
    }

    static void
    absorbCommitments(Transcript &transcript, const Proof &proof)
    {
        transcript.absorbDigest("com.a", proof.commit_a.root);
        transcript.absorbDigest("com.b", proof.commit_b.root);
        transcript.absorbDigest("com.c", proof.commit_c.root);
    }

    std::vector<F>
    challengeTau(Transcript &transcript) const
    {
        std::vector<F> tau(n_vars_);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");
        return tau;
    }

    static void
    absorbOpenings(Transcript &transcript, const Proof &proof)
    {
        transcript.absorbField("open.va", proof.va);
        transcript.absorbField("open.vb", proof.vb);
        transcript.absorbField("open.vc", proof.vc);
    }

    unsigned n_vars_;
    TensorPcs<F> pcs_;
    const exec::ExecContext *exec_ = nullptr;
};

/** The table-commit prover and its proof. */
template <typename F>
using Snark = TensorSnark<F, CubicRelation>;
template <typename F>
using SnarkProof = TensorProof<F, CubicRelation>;

/** The high-degree-gate prover and its proof. */
template <typename F>
using HighDegreeSnark = TensorSnark<F, Degree6Relation>;
template <typename F>
using HighDegreeProof = TensorProof<F, Degree6Relation>;

} // namespace bzk

#endif // BZK_CORE_TENSORSNARK_H_
