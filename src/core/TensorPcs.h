#ifndef BZK_CORE_TENSORPCS_H_
#define BZK_CORE_TENSORPCS_H_

/**
 * @file
 * Tensor-code polynomial commitment (Brakedown/Orion style) — the
 * composition of the paper's modules in Figure 7: the polynomial's
 * evaluation table is arranged as a k x m matrix, every row is encoded
 * with the Spielman linear-time encoder, and the codeword columns are
 * hashed into a Merkle tree whose root is the commitment.
 *
 * Opening at a point r = (r_row, r_col) sends
 *  - the eq(r_row)-combination of the rows (the "evaluation row"),
 *  - a gamma-powers combination of the rows (the "proximity row"),
 *  - a few spot-checked codeword columns with Merkle paths.
 * The verifier re-encodes both combined rows and checks them against the
 * opened columns, then reads the evaluation off the evaluation row.
 *
 * Simplifications vs. production Orion are listed in DESIGN.md Sec. 6
 * (fixed soundness parameters, no zero-knowledge masking row).
 */

#include <cstddef>
#include <vector>

#include "encoder/SpielmanCode.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "hash/Sha256.h"
#include "hash/Transcript.h"
#include "merkle/MerkleTree.h"
#include "poly/Multilinear.h"
#include "util/Log.h"

namespace bzk {

/** Verifier-side commitment: just the Merkle root. */
struct PcsCommitment
{
    Digest root;
    unsigned n_vars = 0;
};

/** Prover-side state retained between commit and open. */
template <typename F>
struct PcsProverState
{
    PcsCommitment commitment;
    /** The committed evaluation table (k*m entries). */
    std::vector<F> poly;
    /** Row codewords, k rows of length 2m. */
    std::vector<std::vector<F>> encoded_rows;
    /** Merkle tree over the 2m column hashes. */
    MerkleTree tree = MerkleTree::buildFromLeaves({Digest{}});
};

/** Opening proof for one evaluation. */
template <typename F>
struct PcsEvalProof
{
    /** eq(r_row)-weighted row combination, length m. */
    std::vector<F> eval_row;
    /** gamma-powers row combination, length m. */
    std::vector<F> proximity_row;
    /** Spot-checked codeword columns (each k entries). */
    std::vector<std::vector<F>> columns;
    /** Merkle paths for the opened columns. */
    std::vector<MerklePath> paths;
};

/** The tensor-code PCS for 2^n-entry multilinear polynomials. */
template <typename F>
class TensorPcs
{
  public:
    /**
     * @param n_vars polynomial size is 2^n_vars; must be >= 6 so the
     *        column dimension reaches the encoder's base size.
     * @param seed   deterministic encoder graphs (shared with verifier).
     * @param column_openings spot-check count (soundness parameter).
     */
    TensorPcs(unsigned n_vars, uint64_t seed, size_t column_openings = 8)
        : n_vars_(n_vars),
          col_vars_(colVarsFor(n_vars)),
          row_vars_(n_vars - colVarsFor(n_vars)),
          column_openings_(column_openings),
          code_(size_t{1} << col_vars_, seed)
    {
    }

    /** log2 of the row count k. */
    unsigned rowVars() const { return row_vars_; }

    /** log2 of the row length m (the encoder's message length). */
    unsigned colVars() const { return col_vars_; }

    /** Spot-check count. */
    size_t columnOpenings() const { return column_openings_; }

    /** The underlying code (exposed for cost accounting). */
    const SpielmanCode<F> &code() const { return code_; }

    /**
     * Commit to a 2^n_vars evaluation table. With a non-null @p exec
     * the k row encodings, the 2m column hashes, and every Merkle
     * layer run across host threads; the commitment is bit-identical
     * for any thread count.
     */
    PcsProverState<F>
    commit(std::vector<F> poly, const exec::ExecContext *exec = nullptr)
        const
    {
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (poly.size() != k * m)
            panic("TensorPcs::commit: table size %zu != 2^%u", poly.size(),
                  n_vars_);

        // Rows are independent messages: parallelize across rows with
        // serial per-row encodes (the outer loop has enough slots; a
        // nested parallel encode would only add scheduling overhead).
        PcsProverState<F> state;
        state.encoded_rows.resize(k);
        if (exec)
            exec->setRegion("encoder");
        auto encode_rows = [&](size_t begin, size_t end) {
            for (size_t row = begin; row < end; ++row) {
                std::span<const F> message(poly.data() + row * m, m);
                state.encoded_rows[row] = code_.encode(message);
            }
        };
        if (exec)
            exec->parallelFor(k, /*serial_cutoff=*/2, encode_rows);
        else
            encode_rows(0, k);

        // Hash each of the 2m codeword columns into a leaf; one
        // serialization scratch buffer per worker chunk.
        std::vector<Digest> leaves(2 * m);
        if (exec)
            exec->setRegion("merkle");
        auto hash_cols = [&](size_t begin, size_t end) {
            std::vector<uint8_t> buf(k * F::kNumBytes);
            for (size_t col = begin; col < end; ++col) {
                for (size_t row = 0; row < k; ++row)
                    state.encoded_rows[row][col].toBytes(
                        buf.data() + row * F::kNumBytes);
                leaves[col] = Sha256::digest(buf);
            }
        };
        if (exec)
            exec->parallelFor(2 * m, /*serial_cutoff=*/2, hash_cols);
        else
            hash_cols(0, 2 * m);
        state.tree = MerkleTree::buildFromLeaves(std::move(leaves), exec);
        state.commitment.root = state.tree.root();
        state.commitment.n_vars = n_vars_;
        state.poly = std::move(poly);
        return state;
    }

    /**
     * Evaluate the committed polynomial at @p point (n_vars entries,
     * first row_vars select the row, the rest the column).
     */
    F
    evaluate(const PcsProverState<F> &state,
             const std::vector<F> &point) const
    {
        Multilinear<F> ml(state.poly);
        return ml.evaluate(point);
    }

    /**
     * Produce an opening proof for @p point. @p exec parallelizes the
     * two row-combination passes across columns; each output column
     * accumulates its rows in the same ascending order as the serial
     * pass, so the proof is bit-identical.
     */
    PcsEvalProof<F>
    open(const PcsProverState<F> &state, const std::vector<F> &point,
         Transcript &transcript,
         const exec::ExecContext *exec = nullptr) const
    {
        if (point.size() != n_vars_)
            panic("TensorPcs::open: point size %zu != %u", point.size(),
                  n_vars_);
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;

        std::vector<F> r_row(point.begin(), point.begin() + row_vars_);
        auto eq_row = eqTable(r_row);
        if (exec)
            exec->setRegion("open");

        PcsEvalProof<F> proof;
        proof.eval_row.assign(m, F::zero());
        // Row-outer axpy over each column chunk: the contiguous poly
        // rows feed the packed kernels, and every column still
        // accumulates its rows in the same ascending order as the
        // serial column-major pass, so the proof is bit-identical.
        auto eval_cols = [&](size_t begin, size_t end) {
            for (size_t row = 0; row < k; ++row)
                ff::axpyLanes(proof.eval_row.data() + begin,
                              state.poly.data() + row * m + begin,
                              eq_row[row], end - begin);
        };
        if (exec)
            exec->parallelFor(m, /*serial_cutoff=*/8, eval_cols);
        else
            eval_cols(0, m);

        // Proximity combination with gamma powers, gamma derived after
        // the commitment was absorbed by the caller.
        F gamma = transcript.template challengeField<F>("pcs.gamma");
        std::vector<F> gamma_pow(k);
        F g = F::one();
        for (size_t row = 0; row < k; ++row) {
            gamma_pow[row] = g;
            g *= gamma;
        }
        proof.proximity_row.assign(m, F::zero());
        auto prox_cols = [&](size_t begin, size_t end) {
            for (size_t row = 0; row < k; ++row)
                ff::axpyLanes(proof.proximity_row.data() + begin,
                              state.poly.data() + row * m + begin,
                              gamma_pow[row], end - begin);
        };
        if (exec)
            exec->parallelFor(m, /*serial_cutoff=*/8, prox_cols);
        else
            prox_cols(0, m);

        for (const F &v : proof.eval_row)
            transcript.absorbField("pcs.eval_row", v);
        for (const F &v : proof.proximity_row)
            transcript.absorbField("pcs.prox_row", v);

        auto cols = transcript.challengeDistinctIndices(
            "pcs.cols", column_openings_, 2 * m);
        for (uint64_t col : cols) {
            std::vector<F> column(k);
            for (size_t row = 0; row < k; ++row)
                column[row] = state.encoded_rows[row][col];
            proof.columns.push_back(std::move(column));
            proof.paths.push_back(state.tree.path(col));
        }
        return proof;
    }

    /**
     * Verify an opening: Merkle membership of each opened column,
     * consistency of both combined rows with the columns under the
     * code's linearity, and the claimed @p value against the evaluation
     * row. The @p transcript must be in the same state as the prover's
     * was at open().
     */
    bool
    verify(const PcsCommitment &commitment, const std::vector<F> &point,
           const F &value, const PcsEvalProof<F> &proof,
           Transcript &transcript) const
    {
        if (commitment.n_vars != n_vars_ || point.size() != n_vars_)
            return false;
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (proof.eval_row.size() != m || proof.proximity_row.size() != m)
            return false;
        if (proof.columns.size() != column_openings_ ||
            proof.paths.size() != column_openings_)
            return false;

        F gamma = transcript.template challengeField<F>("pcs.gamma");
        for (const F &v : proof.eval_row)
            transcript.absorbField("pcs.eval_row", v);
        for (const F &v : proof.proximity_row)
            transcript.absorbField("pcs.prox_row", v);
        auto cols = transcript.challengeDistinctIndices(
            "pcs.cols", column_openings_, 2 * m);

        // Re-encode both rows once; linearity makes the codeword of the
        // combination equal the combination of the row codewords.
        auto eval_code = code_.encode(proof.eval_row);
        auto prox_code = code_.encode(proof.proximity_row);

        std::vector<F> r_row(point.begin(), point.begin() + row_vars_);
        auto eq_row = eqTable(r_row);

        std::vector<F> gamma_pow(k);
        F g = F::one();
        for (size_t row = 0; row < k; ++row) {
            gamma_pow[row] = g;
            g *= gamma;
        }

        std::vector<uint8_t> buf(k * F::kNumBytes);
        for (size_t i = 0; i < cols.size(); ++i) {
            uint64_t col = cols[i];
            const auto &column = proof.columns[i];
            if (column.size() != k)
                return false;
            // Merkle membership.
            for (size_t row = 0; row < k; ++row)
                column[row].toBytes(buf.data() + row * F::kNumBytes);
            Digest leaf = Sha256::digest(buf);
            if (proof.paths[i].leaf_index != col)
                return false;
            if (!MerkleTree::verifyPath(commitment.root, leaf,
                                        proof.paths[i]))
                return false;

            // Consistency with the evaluation row.
            if (ff::dotLanes(eq_row.data(), column.data(), k) !=
                eval_code[col])
                return false;

            // Consistency with the proximity row.
            if (ff::dotLanes(gamma_pow.data(), column.data(), k) !=
                prox_code[col])
                return false;
        }

        // The evaluation itself: <eval_row, eq(r_col)>.
        std::vector<F> r_col(point.begin() + row_vars_, point.end());
        auto eq_col = eqTable(r_col);
        return ff::dotLanes(proof.eval_row.data(), eq_col.data(), m) ==
               value;
    }

  private:
    static unsigned
    colVarsFor(unsigned n_vars)
    {
        if (n_vars < 6)
            fatal("TensorPcs: need >= 6 variables, got %u", n_vars);
        unsigned col = (n_vars + 1) / 2;
        return col < 5 ? 5 : col;
    }

    unsigned n_vars_;
    unsigned col_vars_;
    unsigned row_vars_;
    size_t column_openings_;
    SpielmanCode<F> code_;
};

} // namespace bzk

#endif // BZK_CORE_TENSORPCS_H_
