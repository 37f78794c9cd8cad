#ifndef BZK_ENCODER_SPIELMANCODE_H_
#define BZK_ENCODER_SPIELMANCODE_H_

/**
 * @file
 * Functional Spielman-style linear-time encoder (paper Sec. 2.4 / 3.3).
 *
 * encode() is implemented exactly as the paper's pipelined formulation
 * (Figure 6): a forward pass of first-multiplications (A matrices), the
 * dense base case, then a reverse pass of second-multiplications
 * (B matrices) — no recursion, so the same code path maps one-to-one
 * onto the stage kernels the GPU drivers charge for.
 *
 * Every stage writes straight into the one codeword buffer. Since
 * E(x) = [x | E(Ax) | B E(Ax)], level l's message and its codeword
 * start at the same fixed offset o_l (o_0 = 0, o_{l+1} = o_l + k_l):
 * A_l reads [o_l, o_l + k_l) and writes the next level's message at
 * o_{l+1}; B_l reads that level's codeword [o_{l+1}, o_{l+1} + k_l/2)
 * and writes the rest of level l's codeword behind it.
 *
 * All matrix coefficients, sparse and dense, are 32-bit integers that
 * the ff::gatherDotU32 / ff::dotU32 row kernels multiply in without
 * lifting them into the field.
 */

#include <span>
#include <vector>

#include "encoder/SparseMatrix.h"
#include "encoder/Topology.h"
#include "ff/FieldBackend.h"
#include "util/Log.h"

namespace bzk {

/** A concrete instance of the rate-1/2 recursive code. */
template <typename F>
class SpielmanCode
{
  public:
    /** Build all level matrices for message length @p k from @p seed. */
    SpielmanCode(size_t k, uint64_t seed) : topo_(k, seed)
    {
        for (size_t lvl = 0; lvl < topo_.levels().size(); ++lvl) {
            const EncoderLevel &level = topo_.levels()[lvl];
            Rng rng_a(topo_.seedA(lvl));
            Rng rng_b(topo_.seedB(lvl));
            a_.emplace_back(level.a_degrees, level.k, rng_a);
            b_.emplace_back(level.b_degrees, level.k / 2, rng_b);
        }
        // Dense base matrix M (base_k x base_k).
        Rng rng(topo_.seedBase());
        size_t bk = topo_.baseSize();
        base_.resize(bk * bk);
        for (auto &c : base_)
            c = static_cast<uint32_t>(rng.nextBounded(0xffffffffULL)) + 1;
    }

    /** Message length k. */
    size_t messageLength() const { return topo_.messageLength(); }

    /** Codeword length 2k. */
    size_t codewordLength() const { return topo_.codewordLength(); }

    /** The shared topology (degree sequences, seeds). */
    const EncoderTopology &topology() const { return topo_; }

    /** Level @p lvl's shrinking matrix A (k/4 x k). */
    const SparseMatrix<F> &matrixA(size_t lvl) const { return a_[lvl]; }

    /** Level @p lvl's expanding matrix B (k/2 x k/2). */
    const SparseMatrix<F> &matrixB(size_t lvl) const { return b_[lvl]; }

    /** The dense base matrix M, row-major, baseSize() squared. */
    std::span<const uint32_t> baseMatrix() const { return base_; }

    /**
     * Encode @p message (length k) into a codeword of length 2k.
     * Linear in the message by construction. With a non-null @p exec
     * every sparse stage (and the dense base case) splits its rows
     * across host threads; codewords are bit-identical either way.
     */
    std::vector<F>
    encode(std::span<const F> message,
           const exec::ExecContext *exec = nullptr) const
    {
        if (message.size() != messageLength())
            panic("SpielmanCode::encode: message length %zu != %zu",
                  message.size(), messageLength());
        if (exec)
            exec->setRegion("encoder");

        std::vector<F> cw(message.begin(), message.end());
        cw.resize(codewordLength());
        auto at = [&](size_t offset, size_t len) {
            return std::span<F>(cw.data() + offset, len);
        };

        // Forward pass: x_{l+1} = A_l x_l (first multiplications).
        // A_0 reads the caller's message rather than its fresh copy,
        // which on the parallel path would first have to move from
        // this thread's cache to every worker's.
        size_t off = 0;
        for (size_t l = 0; l < a_.size(); ++l) {
            size_t k_l = topo_.levels()[l].k;
            a_[l].mulVec(l == 0 ? message : at(off, k_l),
                         at(off + k_l, k_l / 4), exec);
            off += k_l;
        }

        // Base case: E(x) = [x | M x].
        size_t bk = topo_.baseSize();
        auto base_rows = [&](size_t begin, size_t end) {
            for (size_t r = begin; r < end; ++r)
                cw[off + bk + r] =
                    ff::dotU32(base_.data() + r * bk, cw.data() + off, bk);
        };
        if (exec)
            exec->parallelFor(bk, /*serial_cutoff=*/64, base_rows);
        else
            base_rows(0, bk);

        // Reverse pass: v_l = B_l E(x_{l+1}) completes level l's
        // codeword (second multiplications, smallest stage first —
        // Figure 6).
        for (size_t l = a_.size(); l-- > 0;) {
            size_t k_l = topo_.levels()[l].k;
            off -= k_l;
            b_[l].mulVec(at(off + k_l, k_l / 2),
                         at(off + k_l + k_l / 2, k_l / 2), exec);
        }
        return cw;
    }

  private:
    EncoderTopology topo_;
    std::vector<SparseMatrix<F>> a_;
    std::vector<SparseMatrix<F>> b_;
    std::vector<uint32_t> base_;
};

} // namespace bzk

#endif // BZK_ENCODER_SPIELMANCODE_H_
