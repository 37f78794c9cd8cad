/**
 * @file
 * End-to-end tests of the tensor SNARK under both of its relations:
 * prove/verify round trips, rejection of tampered proofs and
 * unsatisfied tables, and proofs that do not cross between relations.
 */

#include <gtest/gtest.h>

#include "core/Serialize.h"
#include "core/TensorSnark.h"
#include "ff/Fields.h"

namespace bzk {
namespace {

/** One (field, relation) instantiation of the SNARK. */
template <typename F, typename R>
struct Case
{
    using Field = F;
    using Rel = R;
};

template <typename C>
class SnarkT : public ::testing::Test
{
  protected:
    using F = typename C::Field;
    using Rel = typename C::Rel;
    using Snark = TensorSnark<F, Rel>;

    static ConstraintTables<F>
    satisfiedTables(unsigned n_vars, Rng &rng)
    {
        auto tables = Rel::template instance<F>(n_vars, rng);
        EXPECT_EQ(tables.n_vars, n_vars);
        return tables;
    }
};

using Cases = ::testing::Types<
    Case<Fr, CubicRelation>, Case<Gl64, CubicRelation>,
    Case<Fr, Degree6Relation>, Case<Gl64, Degree6Relation>>;
TYPED_TEST_SUITE(SnarkT, Cases);

TYPED_TEST(SnarkT, ProveVerifyRoundTrip)
{
    Rng rng(1);
    for (unsigned n : {6u, 8u, 10u}) {
        auto tables = TestFixture::satisfiedTables(n, rng);
        typename TestFixture::Snark snark(n, /*seed=*/99);
        auto proof = snark.prove(tables, {});
        EXPECT_TRUE(snark.verify(proof, {})) << "n=" << n;
        for (const auto &g : proof.gate_sc.rounds)
            EXPECT_EQ(g.size(), TestFixture::Rel::kEvals);
    }
}

TYPED_TEST(SnarkT, ProofSizeIsNontrivial)
{
    // The paper notes proofs of this protocol family reach MBs; at toy
    // sizes we just check the accounting is sane and grows.
    Rng rng(2);
    auto t8 = TestFixture::satisfiedTables(8, rng);
    auto t10 = TestFixture::satisfiedTables(10, rng);
    typename TestFixture::Snark s8(8, 99), s10(10, 99);
    auto p8 = s8.prove(t8, {});
    auto p10 = s10.prove(t10, {});
    EXPECT_GT(p8.sizeBytes(), 1000u);
    EXPECT_GT(p10.sizeBytes(), p8.sizeBytes());
}

TYPED_TEST(SnarkT, RejectsUnsatisfiedTables)
{
    using F = typename TestFixture::F;
    Rng rng(3);
    auto tables = TestFixture::satisfiedTables(8, rng);
    tables.c[5] += F::one(); // break one constraint
    typename TestFixture::Snark snark(8, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedOpeningValue)
{
    using F = typename TestFixture::F;
    Rng rng(4);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.va += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedSumcheckRound)
{
    using F = typename TestFixture::F;
    Rng rng(5);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.gate_sc.rounds[2][1] += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedCommitment)
{
    Rng rng(6);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.commit_b.root.bytes[7] ^= 0x80;
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsSwappedOpenings)
{
    Rng rng(7);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark snark(8, 99);
    auto proof = snark.prove(tables, {});
    std::swap(proof.open_a, proof.open_b);
    std::swap(proof.va, proof.vb);
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, PublicInputsBindProof)
{
    using F = typename TestFixture::F;
    Rng rng(8);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark snark(8, 99);
    std::vector<F> pub{F::fromUint(123)};
    auto proof = snark.prove(tables, pub);
    EXPECT_TRUE(snark.verify(proof, pub));
    std::vector<F> other{F::fromUint(124)};
    EXPECT_FALSE(snark.verify(proof, other));
}

TYPED_TEST(SnarkT, DifferentSeedsIncompatible)
{
    // The encoder seed is a public parameter; a proof under one seed
    // must not verify under another (different code, different columns).
    Rng rng(9);
    auto tables = TestFixture::satisfiedTables(8, rng);
    typename TestFixture::Snark prover_side(8, 99);
    typename TestFixture::Snark verifier_side(8, 100);
    auto proof = prover_side.prove(tables, {});
    EXPECT_FALSE(verifier_side.verify(proof, {}));
}

TYPED_TEST(SnarkT, AllZeroTablesProveAndVerify)
{
    // Padding-only tables (G(0, 0, 0) = 0 everywhere) are valid.
    using F = typename TestFixture::F;
    ConstraintTables<F> tables;
    tables.n_vars = 6;
    tables.a.assign(64, F::zero());
    tables.b.assign(64, F::zero());
    tables.c.assign(64, F::zero());
    typename TestFixture::Snark snark(6, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_TRUE(snark.verify(proof, {}));
}

template <typename F>
class CrossRelationT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr, Gl64>;
TYPED_TEST_SUITE(CrossRelationT, Fields);

TYPED_TEST(CrossRelationT, RetaggedDegree6ProofRejectedByCubicVerifier)
{
    // Same PCS, same wire layout: only the tag, the transcript domain
    // and the gate tell the relations apart. A degree-6 proof whose tag
    // is rewritten to the cubic one decodes, but must not verify.
    using F = TypeParam;
    Rng rng(10);
    auto tables = Degree6Relation::instance<F>(8, rng);
    TensorSnark<F, Degree6Relation> prover(8, 99);
    auto bytes = serializeProof(prover.prove(tables, {}));
    ASSERT_EQ(bytes[0], Degree6Relation::kTag);
    bytes[0] = CubicRelation::kTag;
    auto retagged = deserializeProof<F, CubicRelation>(bytes);
    ASSERT_TRUE(retagged.has_value());
    TensorSnark<F, CubicRelation> verifier(8, 99);
    EXPECT_FALSE(verifier.verify(*retagged, {}));
}

} // namespace
} // namespace bzk
