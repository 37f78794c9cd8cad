#ifndef BZK_SUMCHECK_GATESUMCHECK_H_
#define BZK_SUMCHECK_GATESUMCHECK_H_

/**
 * @file
 * Eq-weighted gate sum-check: proves
 *
 *   sum_x eq(tau,x) * G(a(x), b(x), c(x)) = 0
 *
 * for a gate polynomial G supplied by a relation type @p Rel. The
 * tensor SNARK runs this once per proof; only G changes between its
 * relations (core/TensorSnark.h). A relation provides:
 *
 *   - `static constexpr size_t kEvals`: evaluations per round, deg(G)+2
 *     (eq contributes one degree), sent at t = 0 .. kEvals-1;
 *   - `kRoundLabel` / `kChallengeLabel`: the transcript labels of the
 *     round evaluations and of the round challenge;
 *   - `template <typename F> static F gate(a, b, c)`: G itself.
 *
 * Round sums run under the fixed-shape chunked reduction, so proofs are
 * bit-identical for any thread count.
 */

#include <array>
#include <cstddef>
#include <vector>

#include "exec/ExecContext.h"
#include "hash/Transcript.h"
#include "sumcheck/Sumcheck.h"
#include "util/Log.h"

namespace bzk {

/**
 * Prove sum_x eq(x) * Rel::gate(a(x), b(x), c(x)) == 0 non-interactively.
 * All four tables must have the same power-of-two size; they are folded
 * in place round by round. @p transcript must already have absorbed the
 * statement; @p point_out accumulates the round challenges.
 */
template <typename Rel, typename F>
ProductSumcheckProof<F>
proveGateSumcheckFs(std::vector<F> &eq, std::vector<F> &a,
                    std::vector<F> &b, std::vector<F> &c,
                    Transcript &transcript,
                    std::vector<F> *point_out = nullptr,
                    const exec::ExecContext *exec = nullptr)
{
    constexpr size_t kEvals = Rel::kEvals;
    size_t size = eq.size();
    if (size == 0 || (size & (size - 1)) != 0)
        panic("proveGateSumcheckFs: table size %zu not a power of two",
              size);
    if (a.size() != size || b.size() != size || c.size() != size)
        panic("proveGateSumcheckFs: mismatched table sizes");
    unsigned n_vars = 0;
    while ((size_t{1} << n_vars) < size)
        ++n_vars;

    if (exec)
        exec->setRegion("sumcheck");
    ProductSumcheckProof<F> proof;
    proof.rounds.reserve(n_vars);
    using Sums = std::array<F, kEvals>;
    Sums zero;
    zero.fill(F::zero());
    for (unsigned round = 0; round < n_vars; ++round) {
        size_t half = a.size() / 2;
        auto chunk_sums = [&](size_t begin, size_t end) {
            Sums s = zero;
            for (size_t x = begin; x < end; ++x) {
                // Each table restricted to the round variable is affine
                // in t: t = 0 and t = 1 are the half-table values, and
                // every later point adds one more step hi - lo.
                F eq_t = eq[x + half], a_t = a[x + half];
                F b_t = b[x + half], c_t = c[x + half];
                F d_eq = eq_t - eq[x], d_a = a_t - a[x];
                F d_b = b_t - b[x], d_c = c_t - c[x];
                s[0] += eq[x] * Rel::gate(a[x], b[x], c[x]);
                s[1] += eq_t * Rel::gate(a_t, b_t, c_t);
                for (size_t t = 2; t < kEvals; ++t) {
                    eq_t += d_eq;
                    a_t += d_a;
                    b_t += d_b;
                    c_t += d_c;
                    s[t] += eq_t * Rel::gate(a_t, b_t, c_t);
                }
            }
            return s;
        };
        Sums sums = exec::reduceChunked<Sums>(
            exec, half, zero, chunk_sums,
            [](const Sums &l, const Sums &r) {
                Sums out;
                for (size_t t = 0; t < kEvals; ++t)
                    out[t] = l[t] + r[t];
                return out;
            });
        std::vector<F> g(sums.begin(), sums.end());
        for (const F &gi : g)
            transcript.absorbField(Rel::kRoundLabel, gi);
        F r = transcript.template challengeField<F>(Rel::kChallengeLabel);
        auto fold = [&](size_t begin, size_t end) {
            for (size_t x = begin; x < end; ++x) {
                eq[x] = eq[x] + r * (eq[x + half] - eq[x]);
                a[x] = a[x] + r * (a[x + half] - a[x]);
                b[x] = b[x] + r * (b[x + half] - b[x]);
                c[x] = c[x] + r * (c[x + half] - c[x]);
            }
        };
        if (exec)
            exec->parallelFor(half, fold);
        else
            fold(0, half);
        eq.resize(half);
        a.resize(half);
        b.resize(half);
        c.resize(half);
        if (point_out)
            point_out->push_back(r);
        proof.rounds.push_back(std::move(g));
    }
    return proof;
}

/**
 * Verifier side of proveGateSumcheckFs. Every round must carry exactly
 * Rel::kEvals evaluations; the caller checks the returned final_claim
 * against eq(tau, point) * Rel::gate(va, vb, vc) from its table oracles.
 */
template <typename Rel, typename F>
SumcheckVerdict<F>
verifyGateSumcheckFs(const F &claimed_sum,
                     const ProductSumcheckProof<F> &proof,
                     Transcript &transcript)
{
    SumcheckVerdict<F> verdict;
    std::vector<F> xs(Rel::kEvals);
    for (size_t t = 0; t < Rel::kEvals; ++t)
        xs[t] = F::fromUint(t);
    F claim = claimed_sum;
    for (const auto &g : proof.rounds) {
        if (g.size() != Rel::kEvals)
            return verdict;
        if (g[0] + g[1] != claim)
            return verdict;
        for (const F &gi : g)
            transcript.absorbField(Rel::kRoundLabel, gi);
        F r = transcript.template challengeField<F>(Rel::kChallengeLabel);
        claim = lagrangeEval(xs, g, r);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

} // namespace bzk

#endif // BZK_SUMCHECK_GATESUMCHECK_H_
