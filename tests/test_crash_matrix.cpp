// Kill/restart crash matrix for the durable proof service: processing
// is killed at every ProveStage boundary of every task (a simulated
// power cut between pipeline stages), the service is restarted on the
// same journal directory, replay re-submits the unfinished tasks, and
// every admitted task must end with exactly one proof whose bytes are
// bit-identical to the proof of an uninterrupted run.
//
// Labeled `slow` in ctest: the matrix re-proves real (small) instances
// under every kill point, which is minutes under sanitizers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/DurableService.h"
#include "journal/Journal.h"
#include "obs/Metrics.h"

using namespace bzk;

namespace {

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/bzk_crash_XXXXXX";
        path = ::mkdtemp(tmpl);
    }

    ~TempDir()
    {
        for (uint64_t i = 1; i <= 64; ++i)
            ::unlink(
                journal::Journal::segmentPath(path, i).c_str());
        ::rmdir(path.c_str());
    }
};

/** The workload every scenario runs: mixed sizes and priorities. */
std::vector<DurableTaskSpec>
matrixTasks()
{
    return {
        {.id = 101, .n_vars = 8, .seed = 77, .priority = 0},
        {.id = 102, .n_vars = 9, .seed = 77, .priority = 2},
        {.id = 103, .n_vars = 8, .seed = 77, .priority = 1},
    };
}

/** A batch mixing both protocol kinds, interleaved by id. */
std::vector<DurableTaskSpec>
mixedKindTasks()
{
    return {
        {.id = 201,
         .n_vars = 8,
         .seed = 77,
         .priority = 0,
         .kind = sched::ProtocolKind::TableCommit},
        {.id = 202,
         .n_vars = 8,
         .seed = 77,
         .priority = 2,
         .kind = sched::ProtocolKind::HighDegreeGate},
        {.id = 203,
         .n_vars = 9,
         .seed = 77,
         .priority = 0,
         .kind = sched::ProtocolKind::HighDegreeGate},
        {.id = 204,
         .n_vars = 9,
         .seed = 77,
         .priority = 1,
         .kind = sched::ProtocolKind::TableCommit},
    };
}

constexpr ProveStage kStages[] = {ProveStage::Encode,
                                  ProveStage::Merkle,
                                  ProveStage::FiatShamir,
                                  ProveStage::Sumcheck};

const char *
stageName(ProveStage stage)
{
    switch (stage) {
      case ProveStage::Encode:
        return "encode";
      case ProveStage::Merkle:
        return "merkle";
      case ProveStage::FiatShamir:
        return "fiat-shamir";
      case ProveStage::Sumcheck:
        return "sumcheck";
    }
    return "?";
}

/** Uninterrupted run: the reference proof bytes per task. */
std::map<uint64_t, std::vector<uint8_t>>
baselineProofs()
{
    static std::map<uint64_t, std::vector<uint8_t>> cached = [] {
        TempDir dir;
        DurableProofService service({dir.path});
        for (const auto &spec : matrixTasks())
            EXPECT_TRUE(service.submit(spec));
        EXPECT_EQ(service.processAll(), matrixTasks().size());
        EXPECT_TRUE(service.verifyAll());
        std::map<uint64_t, std::vector<uint8_t>> proofs;
        for (const auto &[id, completion] : service.proofs())
            proofs[id] = completion.proof;
        return proofs;
    }();
    return cached;
}

} // namespace

TEST(CrashMatrix, EveryStageOfEveryTaskRecoversBitIdentically)
{
    auto baseline = baselineProofs();
    ASSERT_EQ(baseline.size(), matrixTasks().size());

    for (const auto &victim : matrixTasks()) {
        for (ProveStage stage : kStages) {
            SCOPED_TRACE(std::string("kill task ") +
                         std::to_string(victim.id) + " at " +
                         stageName(stage));
            TempDir dir;
            size_t completed_before_crash = 0;
            {
                DurableProofService service({dir.path});
                for (const auto &spec : matrixTasks())
                    ASSERT_TRUE(service.submit(spec));
                completed_before_crash = service.processAll(
                    [&](uint64_t task_id, ProveStage at) {
                        return !(task_id == victim.id &&
                                 at == stage);
                    });
                // The victim dies mid-prove, so it and everything
                // after it in process order stay pending.
                EXPECT_LT(completed_before_crash,
                          matrixTasks().size());
                EXPECT_EQ(service.pendingCount(),
                          matrixTasks().size() -
                              completed_before_crash);
                // The service is destroyed here without any shutdown
                // protocol: the journal is all that survives.
            }

            obs::MetricsRegistry metrics;
            DurableProofService restarted({dir.path}, {}, &metrics);
            EXPECT_EQ(restarted.recovery().proofs_restored,
                      completed_before_crash);
            EXPECT_EQ(restarted.recovery().tasks_resubmitted,
                      matrixTasks().size() - completed_before_crash);
            EXPECT_EQ(restarted.recovery().torn_records, 0u);
            EXPECT_EQ(restarted.processAll(),
                      matrixTasks().size() - completed_before_crash);
            EXPECT_TRUE(restarted.verifyAll());

            // Exactly one proof per admitted task, and each is
            // bit-identical to the uninterrupted run's proof.
            ASSERT_EQ(restarted.proofs().size(), baseline.size());
            for (const auto &[id, completion] : restarted.proofs())
                EXPECT_EQ(completion.proof, baseline.at(id))
                    << "task " << id;
            EXPECT_EQ(
                metrics.counter("bzk_journal_resubmitted_total")
                    .value(),
                static_cast<double>(matrixTasks().size() -
                                    completed_before_crash));
        }
    }
}

TEST(CrashMatrix, MixedProtocolBatchRecoversBitIdentically)
{
    // Uninterrupted reference run over the heterogeneous batch.
    std::map<uint64_t, std::vector<uint8_t>> baseline;
    {
        TempDir dir;
        DurableProofService service({dir.path});
        for (const auto &spec : mixedKindTasks())
            ASSERT_TRUE(service.submit(spec));
        ASSERT_EQ(service.processAll(), mixedKindTasks().size());
        ASSERT_TRUE(service.verifyAll());
        for (const auto &[id, completion] : service.proofs())
            baseline[id] = completion.proof;
    }
    ASSERT_EQ(baseline.size(), mixedKindTasks().size());

    // Kill each task of each kind at every stage boundary; replay must
    // resubmit it with its journaled kind, so recovery re-proves the
    // same protocol and the bytes match the uninterrupted run.
    for (const auto &victim : mixedKindTasks()) {
        for (ProveStage stage : kStages) {
            SCOPED_TRACE(std::string("kill task ") +
                         std::to_string(victim.id) + " (" +
                         sched::protocolKindName(victim.kind) +
                         ") at " + stageName(stage));
            TempDir dir;
            size_t completed_before_crash = 0;
            {
                DurableProofService service({dir.path});
                for (const auto &spec : mixedKindTasks())
                    ASSERT_TRUE(service.submit(spec));
                completed_before_crash = service.processAll(
                    [&](uint64_t task_id, ProveStage at) {
                        return !(task_id == victim.id &&
                                 at == stage);
                    });
                EXPECT_LT(completed_before_crash,
                          mixedKindTasks().size());
            }

            DurableProofService restarted({dir.path});
            EXPECT_EQ(restarted.recovery().tasks_resubmitted,
                      mixedKindTasks().size() -
                          completed_before_crash);
            EXPECT_EQ(restarted.processAll(),
                      mixedKindTasks().size() -
                          completed_before_crash);
            EXPECT_TRUE(restarted.verifyAll());
            ASSERT_EQ(restarted.proofs().size(), baseline.size());
            for (const auto &[id, completion] : restarted.proofs())
                EXPECT_EQ(completion.proof, baseline.at(id))
                    << "task " << id;
        }
    }
}

TEST(CrashMatrix, RepeatedCrashesAcrossRestartsStillConverge)
{
    auto baseline = baselineProofs();
    TempDir dir;
    {
        DurableProofService service({dir.path});
        for (const auto &spec : matrixTasks())
            ASSERT_TRUE(service.submit(spec));
    }
    // No single incarnation survives to the end: the first dies before
    // finishing anything, the second after one task. Each delivered
    // proof is captured when its incarnation delivers it — segment
    // retirement is free to drop completion records once delivered, so
    // a later replay need not resurface them.
    std::map<uint64_t, std::vector<uint8_t>> delivered;
    auto capture = [&](const DurableProofService &service) {
        for (const auto &[id, completion] : service.proofs()) {
            if (delivered.count(id)) {
                EXPECT_EQ(delivered[id], completion.proof)
                    << "task " << id << " re-proved differently";
            }
            delivered[id] = completion.proof;
        }
    };
    for (size_t allowed : {size_t{0}, size_t{1}}) {
        DurableProofService service({dir.path});
        size_t started = 0;
        uint64_t current = 0;
        size_t completed = service.processAll(
            [&](uint64_t task_id, ProveStage stage) {
                if (task_id != current) {
                    current = task_id;
                    ++started;
                }
                return !(started > allowed &&
                         stage == ProveStage::Encode);
            });
        EXPECT_EQ(completed, allowed);
        EXPECT_GT(service.pendingCount(), 0u);
        capture(service);
    }

    DurableProofService final_run({dir.path});
    final_run.processAll();
    EXPECT_EQ(final_run.pendingCount(), 0u);
    capture(final_run);

    // Exactly one proof per admitted task, every one bit-identical to
    // the uninterrupted run, no matter which incarnation produced it.
    ASSERT_EQ(delivered.size(), baseline.size());
    for (const auto &[id, proof] : delivered)
        EXPECT_EQ(proof, baseline.at(id)) << "task " << id;
}

TEST(CrashMatrix, DoubleReplayIsIdempotent)
{
    TempDir dir;
    {
        DurableProofService service({dir.path});
        for (const auto &spec : matrixTasks())
            ASSERT_TRUE(service.submit(spec));
        service.processAll([](uint64_t, ProveStage) { return false; });
    }
    // Two replays with no processing in between: the pending set must
    // not grow — replay is at-least-once, proving is exactly-once.
    {
        DurableProofService service({dir.path});
        EXPECT_EQ(service.pendingCount(), matrixTasks().size());
    }
    DurableProofService service({dir.path});
    EXPECT_EQ(service.pendingCount(), matrixTasks().size());
    EXPECT_EQ(service.processAll(), matrixTasks().size());
    EXPECT_TRUE(service.verifyAll());
}
