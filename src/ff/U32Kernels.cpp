/**
 * @file
 * Integer-coefficient row kernels: sum_i c_i * x_i with c_i < 2^32, for
 * Goldilocks and the 4x64-limb Montgomery fields BN254 Fr and Fq. They
 * are the inner loop of the Spielman encoder, whose matrices store
 * 32-bit coefficients.
 *
 * No coefficient is lifted into the field. Montgomery form is linear:
 * c * (xR mod p) is congruent to (c x)R, so the stored limbs of x are
 * multiplied by c as plain integers, the products accumulate
 * unreduced, and one reduction per row yields the canonical Montgomery
 * form of the sum. That is the unique element the lifted
 * sum_i F::fromUint(c_i) * x_i produces, so codewords and proofs do
 * not change. Goldilocks works the same way on its canonical limb.
 */

#include <algorithm>

#include "ff/FieldBackend.h"
#include "ff/GoldilocksKernels.h"

namespace bzk::ff {
namespace {

/**
 * Terms per unreduced accumulation. A product is below 2^32 p, so
 * 2^30 of them stay below 2^316 for the 254-bit fields (five limbs,
 * the top one below p's top limb) and below 2^126 for Goldilocks.
 */
constexpr size_t kChunk = size_t{1} << 30;

/** a >= b for 4-limb little-endian integers. */
bool
geq4(const uint64_t *a, const uint64_t *b)
{
    for (int i = 3; i >= 0; --i) {
        if (a[i] != b[i])
            return a[i] > b[i];
    }
    return true;
}

/** a -= b over 4 limbs; returns the borrow out. */
uint64_t
sub4(uint64_t *a, const uint64_t *b)
{
    uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
        __uint128_t d = static_cast<__uint128_t>(a[i]) - b[i] - borrow;
        a[i] = static_cast<uint64_t>(d);
        borrow = (d >> 64) != 0 ? 1 : 0;
    }
    return borrow;
}

/**
 * Unreduced sum of c * x over 4-limb x, kept as one 128-bit column
 * sum per limb so the four multiply-add chains are independent.
 */
struct WideAcc
{
    __uint128_t col[4] = {0, 0, 0, 0};

    void
    add(const uint64_t *x, uint64_t c)
    {
        col[0] += static_cast<__uint128_t>(x[0]) * c;
        col[1] += static_cast<__uint128_t>(x[1]) * c;
        col[2] += static_cast<__uint128_t>(x[2]) * c;
        col[3] += static_cast<__uint128_t>(x[3]) * c;
    }

    /**
     * Reduce the sum (< 2^316) to its canonical residue mod @p p,
     * where p < 2^255 and p's top limb is at least 2^61.
     */
    void
    reduce(const uint64_t *p, uint64_t *out) const
    {
        // Carry the column sums into five limbs.
        uint64_t v[5];
        __uint128_t t = col[0];
        v[0] = static_cast<uint64_t>(t);
        t = (t >> 64) + static_cast<uint64_t>(col[1]);
        v[1] = static_cast<uint64_t>(t);
        t = (t >> 64) + (col[1] >> 64) + static_cast<uint64_t>(col[2]);
        v[2] = static_cast<uint64_t>(t);
        t = (t >> 64) + (col[2] >> 64) + static_cast<uint64_t>(col[3]);
        v[3] = static_cast<uint64_t>(t);
        v[4] = static_cast<uint64_t>((t >> 64) + (col[3] >> 64));

        // Quotient estimate q from the top two limbs. v[4] < 2^60 <
        // p[3] + 1, so q fits 64 bits. q never exceeds floor(v / p)
        // and falls short by less than top / p[3]^2 + 2 < 6, so a few
        // subtractions of p finish the reduction.
        __uint128_t top = (static_cast<__uint128_t>(v[4]) << 64) | v[3];
        uint64_t q = static_cast<uint64_t>(top / (p[3] + 1));
        uint64_t qp[4];
        uint64_t carry = 0;
        for (int j = 0; j < 4; ++j) {
            __uint128_t prod = static_cast<__uint128_t>(q) * p[j] + carry;
            qp[j] = static_cast<uint64_t>(prod);
            carry = static_cast<uint64_t>(prod >> 64);
        }
        v[4] -= carry + sub4(v, qp);
        while (v[4] != 0 || geq4(v, p))
            v[4] -= sub4(v, p);
        std::copy(v, v + 4, out);
    }
};

static_assert(sizeof(Bn254Fr) == 4 * sizeof(uint64_t) &&
                  sizeof(Bn254Fq) == 4 * sizeof(uint64_t) &&
                  sizeof(Goldilocks) == sizeof(uint64_t),
              "row kernels view field arrays as limb arrays");

template <typename P>
constexpr bool
reducible()
{
    return Fp<P>::kModulus.limb[3] >= (uint64_t{1} << 61) &&
           Fp<P>::kModulus.limb[3] < (uint64_t{1} << 63);
}
static_assert(reducible<Bn254FrParams>() && reducible<Bn254FqParams>(),
              "WideAcc::reduce needs 2^253 <= p < 2^255");

/**
 * The row sum of n terms, each added to an accumulator by
 * @p add_term(acc, i), reduced once per kChunk terms.
 */
template <typename P, typename AddTerm>
Fp<P>
wideRow(size_t n, AddTerm &&add_term)
{
    Fp<P> sum;
    for (size_t begin = 0;; begin += kChunk) {
        size_t end = std::min(n, begin + kChunk);
        WideAcc acc;
        for (size_t i = begin; i < end; ++i)
            add_term(acc, i);
        Fp<P> part;
        acc.reduce(Fp<P>::kModulus.limb.data(),
                   reinterpret_cast<uint64_t *>(&part));
        sum = begin == 0 ? part : sum + part;
        if (end == n)
            return sum;
    }
}

template <typename P>
Fp<P>
wideDot(const uint32_t *c, const Fp<P> *x, size_t n)
{
    detail::countKernel(detail::Kernel::kU32DotRows);
    const auto *xl = reinterpret_cast<const uint64_t *>(x);
    return wideRow<P>(n, [&](WideAcc &acc, size_t i) {
        acc.add(xl + 4 * i, c[i]);
    });
}

template <typename P>
void
wideGather(const size_t *offsets, const U32Term *terms, const Fp<P> *x,
           Fp<P> *out, size_t rows)
{
    detail::countKernel(detail::Kernel::kU32DotRows, rows);
    const auto *xl = reinterpret_cast<const uint64_t *>(x);
    for (size_t r = 0; r < rows; ++r) {
        const U32Term *row = terms + offsets[r];
        out[r] = wideRow<P>(offsets[r + 1] - offsets[r],
                            [&](WideAcc &acc, size_t i) {
                                acc.add(xl + 4 * size_t{row[i].col},
                                        row[i].coeff);
                            });
    }
}

/** Goldilocks analogue of wideRow: @p term(i) returns c_i * x_i. */
template <typename Term>
Goldilocks
glRow(size_t n, Term &&term)
{
    uint64_t sum = 0;
    for (size_t begin = 0;; begin += kChunk) {
        size_t end = std::min(n, begin + kChunk);
        __uint128_t acc = 0;
        for (size_t i = begin; i < end; ++i)
            acc += term(i);
        sum = detail::glAdd(sum, detail::glReduce128(acc));
        if (end == n)
            return Goldilocks::fromRaw(sum);
    }
}

} // namespace

template <>
Goldilocks
dotU32<Goldilocks>(const uint32_t *c, const Goldilocks *x, size_t n)
{
    detail::countKernel(detail::Kernel::kU32DotRows);
    return glRow(n, [&](size_t i) {
        return static_cast<__uint128_t>(x[i].toUint()) * c[i];
    });
}

template <>
void
gatherDotU32<Goldilocks>(const size_t *offsets, const U32Term *terms,
                         const Goldilocks *x, Goldilocks *out, size_t rows)
{
    detail::countKernel(detail::Kernel::kU32DotRows, rows);
    for (size_t r = 0; r < rows; ++r) {
        const U32Term *row = terms + offsets[r];
        out[r] = glRow(offsets[r + 1] - offsets[r], [&](size_t i) {
            return static_cast<__uint128_t>(x[row[i].col].toUint()) *
                   row[i].coeff;
        });
    }
}

template <>
Bn254Fr
dotU32<Bn254Fr>(const uint32_t *c, const Bn254Fr *x, size_t n)
{
    return wideDot(c, x, n);
}

template <>
void
gatherDotU32<Bn254Fr>(const size_t *offsets, const U32Term *terms,
                      const Bn254Fr *x, Bn254Fr *out, size_t rows)
{
    wideGather(offsets, terms, x, out, rows);
}

template <>
Bn254Fq
dotU32<Bn254Fq>(const uint32_t *c, const Bn254Fq *x, size_t n)
{
    return wideDot(c, x, n);
}

template <>
void
gatherDotU32<Bn254Fq>(const size_t *offsets, const U32Term *terms,
                      const Bn254Fq *x, Bn254Fq *out, size_t rows)
{
    wideGather(offsets, terms, x, out, rows);
}

} // namespace bzk::ff
