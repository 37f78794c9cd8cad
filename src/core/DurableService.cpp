#include "core/DurableService.h"

#include <algorithm>

#include "exec/ExecContext.h"
#include "obs/Metrics.h"
#include "util/Log.h"
#include "util/Timer.h"

namespace bzk {

DurableProofService::DurableProofService(
    journal::JournalOptions journal_opt, SystemOptions opt,
    obs::MetricsRegistry *metrics)
    : opt_(opt), metrics_(metrics)
{
    Timer timer;
    auto replayed = journal::replayJournal(journal_opt.dir, metrics_);
    journal_ = std::make_unique<journal::Journal>(
        std::move(journal_opt), metrics_);
    journal_->adoptReplayed(replayed);

    for (auto &[id, completion] : replayed.completions)
        proofs_.emplace(id, std::move(completion));
    pending_ = std::move(replayed.pending);

    recovery_.records_replayed = replayed.records_replayed;
    recovery_.proofs_restored = proofs_.size();
    recovery_.tasks_resubmitted = pending_.size();
    recovery_.torn_records = replayed.torn_records;
    recovery_.torn = replayed.torn;
    recovery_.duplicates = replayed.duplicate_tasks;
    recovery_.recovery_wall_ms = timer.milliseconds();

    if (metrics_) {
        metrics_
            ->gauge("bzk_journal_recovery_ms",
                    "replay wall time of the last recovery")
            .set(recovery_.recovery_wall_ms);
        metrics_
            ->counter("bzk_journal_resubmitted_total",
                      "unfinished tasks re-submitted by recovery")
            .add(static_cast<double>(recovery_.tasks_resubmitted));
    }
}

bool
DurableProofService::submit(const DurableTaskSpec &spec)
{
    bool known = proofs_.count(spec.id) ||
                 std::any_of(pending_.begin(), pending_.end(),
                             [&](const journal::TaskRecord &t) {
                                 return t.task_id == spec.id;
                             });
    if (known) {
        if (metrics_)
            metrics_
                ->counter("bzk_journal_duplicates_total",
                          "duplicate task submissions absorbed")
                .add(1.0);
        return false;
    }
    journal::TaskRecord record;
    record.task_id = spec.id;
    record.n_vars = spec.n_vars;
    record.priority = spec.priority;
    record.seed = spec.seed;
    record.kind = spec.kind;
    // Journal first, admit second: once append() returns the task is
    // on disk and can no longer be lost.
    journal_->append(record);
    pending_.push_back(record);
    return true;
}

std::vector<uint8_t>
DurableProofService::proveTask(const journal::TaskRecord &task,
                               const CrashHook &crash, bool &crashed)
{
    exec::ExecContext exec(
        exec::ExecConfig{.threads = opt_.threads});
    ProveStageHook hook;
    if (crash)
        hook = [&](ProveStage stage) {
            return crash(task.task_id, stage);
        };
    auto bytes = bzk::proveTask(task.kind, task.task_id, task.seed,
                                task.n_vars, opt_.column_openings, &exec,
                                hook);
    crashed = !bytes.has_value();
    if (crashed)
        return {};
    if (!verifyTaskProof(task.kind, *bytes, task.n_vars, task.seed,
                         opt_.column_openings))
        panic("DurableProofService: task %llu produced an invalid %s "
              "proof",
              static_cast<unsigned long long>(task.task_id),
              sched::protocolKindName(task.kind));
    return std::move(*bytes);
}

size_t
DurableProofService::processAll(const CrashHook &crash)
{
    // Priority-first, ties in admission order — the pipeline
    // scheduler's admission policy, applied to the durable queue.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const journal::TaskRecord &a,
                        const journal::TaskRecord &b) {
                         return a.priority > b.priority;
                     });

    size_t completed = 0;
    std::vector<uint64_t> done;
    for (const auto &task : pending_) {
        bool crashed = false;
        std::vector<uint8_t> proof_bytes =
            proveTask(task, crash, crashed);
        if (crashed)
            break; // power cut: nothing below is journaled

        journal::CompletionRecord completion;
        completion.task_id = task.task_id;
        completion.n_vars = task.n_vars;
        completion.seed = task.seed;
        completion.proof = std::move(proof_bytes);
        // Completion is durable before the proof counts as done.
        journal_->append(completion);
        proofs_[task.task_id] = std::move(completion);
        done.push_back(task.task_id);
        ++completed;
        if (metrics_) {
            metrics_
                ->counter("bzk_journal_proofs_completed_total",
                          "proofs completed and journaled")
                .add(1.0);
            metrics_
                ->counter(
                    "bzk_journal_proofs_completed_" +
                        std::string(
                            sched::protocolKindMetricName(task.kind)) +
                        "_total",
                    "proofs completed and journaled, by protocol kind")
                .add(1.0);
        }
    }

    pending_.erase(
        std::remove_if(pending_.begin(), pending_.end(),
                       [&](const journal::TaskRecord &t) {
                           return std::find(done.begin(), done.end(),
                                            t.task_id) != done.end();
                       }),
        pending_.end());
    return completed;
}

bool
DurableProofService::verifyAll() const
{
    for (const auto &[id, completion] : proofs_) {
        // Ack-only completions (empty proof) record that the task
        // finished while the proof artifact lives elsewhere (older
        // `batchzk prove --journal-dir` runs wrote them). Nothing to
        // re-check.
        if (completion.proof.empty())
            continue;
        // Completion records predate protocol kinds; the proof's own
        // leading tag byte says which verifier replays it.
        auto kind = kindOfProofTag(completion.proof[0]);
        if (!kind || !verifyTaskProof(*kind, completion.proof,
                                      completion.n_vars, completion.seed,
                                      opt_.column_openings))
            return false;
    }
    return true;
}

} // namespace bzk
