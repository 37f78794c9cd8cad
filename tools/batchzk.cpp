/**
 * @file
 * batchzk — command-line front end for the library.
 *
 *   batchzk prove   --log-gates N [--seed S] [--out FILE] [--kind K]
 *       generate a satisfied instance of kind K, prove it, write the
 *       proof (with its parameter header) to FILE;
 *   batchzk verify  --in FILE
 *       read a proof file and verify it with the relation its proof
 *       tag names (exit 2 if the header's system byte disagrees);
 *   batchzk info    --in FILE
 *       print a proof file's parameters and sizes;
 *   batchzk simulate [--gpu NAME] [--log-gates N] [--batch B]
 *       run the pipelined batch system on a simulated GPU and print
 *       throughput / latency / memory;
 *   batchzk trace   [FILE] [--gpu NAME] [--log-gates N] [--out FILE]
 *       record one batch run with a TraceRecorder and dump a Chrome
 *       trace (chrome://tracing / Perfetto) with per-module lane
 *       spans, device op spans, and fault/retry instants;
 *   batchzk metrics [--gpu NAME] [--log-gates N] [--batch B]
 *                   [--format prom|json] [--out FILE]
 *       run one batch with a MetricsRegistry attached and print the
 *       collected metrics in Prometheus text (default) or JSON;
 *   batchzk chaos   --faults PLAN [--gpu NAME] [--log-gates N]
 *                   [--batch B] [--seed S]
 *       run the batch system healthy and again under a deterministic
 *       fault plan, and print the before/after degradation table.
 *       PLAN is either `random:SEED:INTENSITY` or a comma list of
 *       stall:B-E:M, lanes:B-E:F, corrupt:C[:N] events;
 *   batchzk sched   [--gpu NAME] [--sizes N,N,...] [--log-gates N]
 *                   [--batch B] [--kind K|mixed]
 *       run a heterogeneous batch (mixed table log-sizes) through the
 *       pipeline scheduler and print per-task admission / completion
 *       accounting plus the aggregate schedule. --sizes takes a comma
 *       list of per-task log-sizes (e.g. 10,10,12,14); without it the
 *       batch is uniform at --log-gates;
 *   batchzk recover --journal-dir DIR [--threads T]
 *       replay a durable task journal, re-prove every admitted task
 *       that has no completion record, and print the recovery
 *       accounting (records replayed, torn offset, proofs restored);
 *   batchzk serve   [--port P] [--log-gates N] [--threads T]
 *                   [--rate R] [--window W] [--queue-cap C]
 *                   [--gpu NAME] [--seed S]
 *       run the proof service on 127.0.0.1:P until SIGINT/SIGTERM:
 *       real proofs, per-tenant rate limits (R submits/s), bounded
 *       admission queue (C), in-flight window W (0 derives the
 *       pipeline depth from the GPU model). --log-gates caps the task
 *       size a Submit may carry;
 *   batchzk submit  [--port P] [--tenant T] [--batch B]
 *                   [--log-gates N] [--seed S] [--kind K]
 *       submit B tasks to a running service, wait for the proofs,
 *       verify each one locally, and print the round-trip accounting.
 *
 * K is a sched::kProtocols name; `mixed` (sched only) cycles through
 * them. `serve` and `submit` speak the wire protocol in docs/SERVICE.md.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "BatchzkCli.h"
#include "core/DurableService.h"
#include "core/FullSnark.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "core/TaskProver.h"
#include "exec/ExecContext.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "net/Client.h"
#include "net/Executor.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "util/Log.h"
#include "util/Stats.h"
#include "util/Timer.h"

using namespace bzk;

namespace {

using cli::Args;

constexpr char kMagic[4] = {'B', 'Z', 'K', 'P'};
constexpr uint8_t kVersion = 2;
constexpr uint8_t kSystemTable = 0;
constexpr uint8_t kSystemFull = 1;
constexpr uint8_t kSystemHdg = 2;

/** The .bzkp system byte of a tensor-SNARK proof of @p kind. */
uint8_t
systemByteOf(sched::ProtocolKind kind)
{
    return kind == sched::ProtocolKind::HighDegreeGate ? kSystemHdg
                                                       : kSystemTable;
}

sched::LanePolicy
lanePolicyByName(const std::string &name)
{
    if (name == "fixed-ratio")
        return sched::LanePolicy::FixedRatio;
    if (name == "measured-cost")
        return sched::LanePolicy::MeasuredCost;
    return sched::LanePolicy::Proportional;
}

/**
 * Deterministic demo circuit with one public input, regenerable from
 * (log_gates, seed) so verify needs only the proof file.
 */
Circuit<Fr>
demoCircuit(unsigned log_gates, uint64_t seed)
{
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    Circuit<Fr> c;
    std::vector<WireId> pool{c.addInput(), c.addConst(Fr::fromUint(3))};
    for (int i = 0; i < 6; ++i)
        pool.push_back(c.addWitness());
    size_t target = (size_t{1} << log_gates) -
                    (size_t{1} << (log_gates - 2));
    while (c.numGates() < target) {
        WireId l = pool[rng.nextBounded(pool.size())];
        WireId r = pool[rng.nextBounded(pool.size())];
        pool.push_back((rng.next() & 1) ? c.mul(l, r) : c.add(l, r));
        if (pool.size() > 128)
            pool.erase(pool.begin() + 2);
    }
    return c;
}

gpusim::DeviceSpec
specByName(const std::string &name)
{
    for (const auto &spec : gpusim::DeviceSpec::allPresets())
        if (spec.name == name)
            return spec;
    fatal("unknown GPU '%s' (try V100, A100, 3090Ti, H100, GH200)",
          name.c_str());
}

void
writeProofFile(const Args &args, uint8_t system,
               const std::vector<uint8_t> &blob)
{
    std::ofstream out(args.out, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", args.out.c_str());
    out.write(kMagic, 4);
    uint8_t header[11];
    header[0] = kVersion;
    header[1] = static_cast<uint8_t>(args.log_gates);
    header[2] = system;
    for (int i = 0; i < 8; ++i)
        header[3 + i] = static_cast<uint8_t>(args.seed >> (8 * i));
    out.write(reinterpret_cast<const char *>(header), sizeof(header));
    out.write(reinterpret_cast<const char *>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    std::printf("wrote %s (%zu bytes)\n", args.out.c_str(),
                blob.size() + 15);
}

/**
 * The public inputs a CLI proof of @p kind binds: the demo circuit's
 * one input for table-commit, none for the high-degree gate.
 */
std::vector<Fr>
cliPublicInputs(sched::ProtocolKind kind)
{
    if (kind == sched::ProtocolKind::HighDegreeGate)
        return {};
    return {Fr::fromUint(11)};
}

int
cmdProve(const Args &args)
{
    if (args.log_gates < 8 || args.log_gates > 20)
        fatal("--log-gates must be in [8, 20] for the CLI prover");
    // Instances are regenerable from (log_gates, seed) alone, so verify
    // needs only the proof file. parse() admits no "mixed" here.
    sched::ProtocolKind kind = *sched::protocolKindByName(args.kind);
    std::vector<Fr> inputs = cliPublicInputs(kind);
    ConstraintTables<Fr> tables;
    if (kind == sched::ProtocolKind::HighDegreeGate) {
        std::printf("building a satisfied high-degree gate instance "
                    "with 2^%u rows...\n",
                    args.log_gates);
        Rng rng(args.seed);
        tables = highDegreeInstance<Fr>(args.log_gates, rng);
    } else {
        std::printf("building a deterministic satisfied instance with "
                    "~2^%u gates (%s system)...\n",
                    args.log_gates, args.system.c_str());
        auto circuit = demoCircuit(args.log_gates, args.seed);
        Rng wit_rng(args.seed + 1);
        std::vector<Fr> witness(circuit.numWitnesses());
        for (auto &w : witness)
            w = Fr::random(wit_rng);
        auto assignment = circuit.evaluate(inputs, witness);
        if (args.system == "full") {
            Timer timer;
            FullSnark<Fr> snark(buildR1cs(circuit), args.seed);
            auto proof = snark.prove(inputs, assignment);
            std::printf("proved in %.1f ms (%zu-byte wiring-sound "
                        "proof)\n",
                        timer.milliseconds(), proof.sizeBytes());
            writeProofFile(args, kSystemFull, serializeFullProof(proof));
            return 0;
        }
        if (args.system != "table")
            fatal("--system must be 'table' or 'full'");
        tables = circuit.buildTables(assignment);
    }

    Timer timer;
    auto blob = withRelation(kind, [&](auto rel) {
        TensorSnark<Fr, decltype(rel)> snark(tables.n_vars, args.seed);
        exec::ExecContext exec;
        snark.setExec(&exec);
        auto proof = snark.prove(tables, inputs);
        std::printf("proved in %.1f ms (%zu-byte proof)\n",
                    timer.milliseconds(), proof.sizeBytes());
        return serializeProof(proof);
    });
    writeProofFile(args, systemByteOf(kind), blob);
    return 0;
}

int
cmdRecover(const Args &args)
{
    if (args.journal_dir.empty())
        fatal("recover needs --journal-dir DIR");
    obs::MetricsRegistry metrics;
    SystemOptions opt;
    opt.threads = args.threads;
    DurableProofService service({args.journal_dir}, opt, &metrics);
    const RecoveryInfo &recovery = service.recovery();

    Timer timer;
    size_t reproved = service.processAll();
    double reprove_ms = timer.milliseconds();
    bool ok = service.verifyAll();

    std::printf("journal     : %s\n", args.journal_dir.c_str());
    TablePrinter table({"recovery metric", "value"});
    table.addRow({"records replayed",
                  std::to_string(recovery.records_replayed)});
    table.addRow({"proofs restored",
                  std::to_string(recovery.proofs_restored)});
    table.addRow({"tasks re-submitted",
                  std::to_string(recovery.tasks_resubmitted)});
    table.addRow({"duplicates absorbed",
                  std::to_string(recovery.duplicates)});
    table.addRow({"torn records",
                  std::to_string(recovery.torn_records)});
    if (recovery.torn.torn)
        table.addRow({"torn at",
                      "segment " +
                          std::to_string(recovery.torn.segment_index) +
                          " offset " +
                          std::to_string(recovery.torn.offset) + " (" +
                          recovery.torn.reason + ")"});
    table.addRow({"replay wall (ms)",
                  formatSig(recovery.recovery_wall_ms, 4)});
    table.addRow({"tasks re-proved", std::to_string(reproved)});
    table.addRow({"re-prove wall (ms)", formatSig(reprove_ms, 4)});
    table.addRow({"all proofs verify", ok ? "yes" : "NO"});
    std::printf("%s", table.render().c_str());
    if (!ok) {
        std::fprintf(stderr,
                     "recover: a journaled proof failed verification\n");
        return 1;
    }
    return 0;
}

/** A parsed .bzkp file. */
struct ProofFile
{
    unsigned log_gates = 0;
    uint8_t system = 0;
    uint64_t seed = 0;
    /** The tensor-SNARK kind its proof tag names; unset for full. */
    std::optional<sched::ProtocolKind> kind;
    std::vector<uint8_t> blob;
};

/**
 * Read @p path. nullopt (after a diagnostic) when the magic or version
 * is wrong, or a tensor-SNARK file's system byte disagrees with the
 * kind its proof tag names.
 */
std::optional<ProofFile>
readProofFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return std::nullopt;
    }
    char magic[4];
    uint8_t header[11];
    in.read(magic, 4);
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!in || std::memcmp(magic, kMagic, 4) != 0 ||
        header[0] != kVersion) {
        std::fprintf(stderr, "'%s' is not a batchzk proof file\n",
                     path.c_str());
        return std::nullopt;
    }
    ProofFile file;
    file.log_gates = header[1];
    file.system = header[2];
    for (int i = 0; i < 8; ++i)
        file.seed |= static_cast<uint64_t>(header[3 + i]) << (8 * i);
    file.blob.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    if (file.system == kSystemFull)
        return file;
    uint8_t tag = file.blob.empty() ? 0 : file.blob[0];
    file.kind = kindOfProofTag(tag);
    if (!file.kind || systemByteOf(*file.kind) != file.system) {
        std::fprintf(stderr,
                     "'%s': header system byte %u does not match proof "
                     "tag 0x%02x\n",
                     path.c_str(), unsigned{file.system}, unsigned{tag});
        return std::nullopt;
    }
    return file;
}

int
cmdVerify(const Args &args)
{
    auto file = readProofFile(args.in);
    if (!file)
        return 2;
    Timer timer;
    std::optional<bool> verdict; // nullopt: malformed proof
    if (!file->kind) {
        if (auto proof = deserializeFullProof<Fr>(file->blob)) {
            FullSnark<Fr> snark(
                buildR1cs(demoCircuit(file->log_gates, file->seed)),
                file->seed);
            timer.reset();
            verdict = snark.verify(
                *proof, cliPublicInputs(sched::ProtocolKind::TableCommit));
        }
    } else {
        verdict = withRelation(
            *file->kind, [&](auto rel) -> std::optional<bool> {
                using Rel = decltype(rel);
                auto proof = deserializeProof<Fr, Rel>(file->blob);
                if (!proof)
                    return std::nullopt;
                TensorSnark<Fr, Rel> snark(proof->commit_a.n_vars,
                                           file->seed);
                timer.reset();
                return snark.verify(*proof, cliPublicInputs(Rel::kKind));
            });
    }
    if (!verdict) {
        std::printf("REJECT (malformed proof)\n");
        return 1;
    }
    bool ok = *verdict;
    std::printf("%s (verified in %.1f ms)\n", ok ? "ACCEPT" : "REJECT",
                timer.milliseconds());
    return ok ? 0 : 1;
}

int
cmdInfo(const Args &args)
{
    auto file = readProofFile(args.in);
    if (!file)
        return 2;
    const std::vector<uint8_t> &blob = file->blob;
    std::printf("file        : %s\n", args.in.c_str());
    std::printf("format      : BZKP v%u\n", kVersion);
    std::printf("system      : %s\n",
                file->system == kSystemFull  ? "full (wiring-sound)"
                : file->system == kSystemHdg ? "high-degree-gate"
                                             : "table");
    std::printf("circuit     : ~2^%u gates\n", file->log_gates);
    std::printf("encoder seed: %llu\n",
                static_cast<unsigned long long>(file->seed));
    if (!file->kind) {
        auto proof = deserializeFullProof<Fr>(blob);
        std::printf("blob        : %zu bytes (%s)\n", blob.size(),
                    proof ? "well-formed" : "MALFORMED");
        if (proof)
            std::printf("sum-checks  : %zu + %zu rounds; %zu opened "
                        "columns\n",
                        proof->phase1.rounds.size(),
                        proof->phase2.rounds.size(),
                        proof->open_w.columns.size());
        return 0;
    }
    withRelation(*file->kind, [&](auto rel) {
        using Rel = decltype(rel);
        auto proof = deserializeProof<Fr, Rel>(blob);
        std::printf("blob        : %zu bytes (%s)\n", blob.size(),
                    proof ? "well-formed" : "MALFORMED");
        if (proof)
            std::printf("sum-check   : %zu degree-%zu rounds; %zu opened "
                        "columns per table\n",
                        proof->gate_sc.rounds.size(), Rel::kEvals - 1,
                        proof->open_a.columns.size());
    });
    return 0;
}

int
cmdSimulate(const Args &args)
{
    gpusim::Device dev(specByName(args.gpu));
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = args.seed;
    PipelinedZkpSystem system(dev, opt);
    Rng rng(args.seed);
    auto result = system.run(args.batch, args.log_gates, rng);
    std::printf("device      : %s (%u lanes @ %.2f GHz)\n",
                dev.spec().name.c_str(), dev.spec().cuda_cores,
                dev.spec().clock_ghz);
    std::printf("workload    : %zu proofs, 2^%u-gate circuits\n",
                args.batch, args.log_gates);
    std::printf("throughput  : %.2f proofs/s\n",
                result.stats.throughput_per_ms * 1e3);
    std::printf("latency     : %.2f ms (first proof)\n",
                result.stats.first_latency_ms);
    std::printf("memory      : %.3f GB peak\n",
                static_cast<double>(result.stats.peak_device_bytes) /
                    (1ULL << 30));
    std::printf("module split: enc %.3f / merkle %.3f / sumcheck %.3f "
                "ms per proof\n",
                result.encoder_ms, result.merkle_ms, result.sumcheck_ms);
    std::printf("comm vs comp: %.3f / %.3f ms per cycle (overlapped)\n",
                result.comm_ms_per_cycle, result.comp_ms_per_cycle);
    return 0;
}

int
cmdTrace(const Args &args)
{
    gpusim::Device dev(specByName(args.gpu));
    obs::TraceRecorder recorder;
    dev.setTraceRecorder(&recorder);
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = args.seed;
    PipelinedZkpSystem system(dev, opt);
    system.setObservability(nullptr, &recorder);
    Rng rng(args.seed);
    system.run(std::min<size_t>(args.batch, 64), args.log_gates, rng);
    std::string json = recorder.chromeTraceJson();
    std::string path = args.out == "proof.bzkp" ? "trace.json" : args.out;
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << json;
    std::printf("wrote %s (%zu bytes, %zu spans, %zu instants) — load "
                "in chrome://tracing or https://ui.perfetto.dev\n",
                path.c_str(), json.size(), recorder.spans().size(),
                recorder.instants().size());
    return 0;
}

int
cmdMetrics(const Args &args)
{
    if (args.format != "prom" && args.format != "json")
        fatal("--format must be 'prom' or 'json'");
    gpusim::Device dev(specByName(args.gpu));
    obs::MetricsRegistry metrics;
    SystemOptions opt;
    // Prove one task for real so the bzk_host_* gauges report actual
    // host-execution timing alongside the simulated counters.
    opt.functional = 1;
    opt.seed = args.seed;
    opt.threads = args.threads;
    PipelinedZkpSystem system(dev, opt);
    system.setObservability(&metrics, nullptr);
    Rng rng(args.seed);
    system.run(args.batch, args.log_gates, rng);
    std::string text = args.format == "json" ? metrics.toJson()
                                             : metrics.toPrometheus();
    if (args.out != "proof.bzkp") {
        std::ofstream out(args.out);
        if (!out)
            fatal("cannot open '%s' for writing", args.out.c_str());
        out << text;
        std::printf("wrote %s (%zu bytes, %zu metrics)\n",
                    args.out.c_str(), text.size(), metrics.size());
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

/** Resolve --faults into a plan: explicit spec or random:SEED:INTENS. */
gpusim::FaultPlan
resolveFaultPlan(const std::string &spec, size_t horizon)
{
    const std::string random_prefix = "random:";
    if (spec.rfind(random_prefix, 0) != 0)
        return gpusim::FaultPlan::parse(spec);
    std::string rest = spec.substr(random_prefix.size());
    size_t colon = rest.find(':');
    if (colon == std::string::npos)
        fatal("--faults random plan needs random:SEED:INTENSITY");
    uint64_t seed = 0;
    double intensity = 0.0;
    try {
        seed = std::stoull(rest.substr(0, colon));
        intensity = std::stod(rest.substr(colon + 1));
    } catch (...) {
        fatal("--faults random plan needs numeric SEED and INTENSITY");
    }
    if (intensity <= 0.0 || intensity > 1.0)
        fatal("--faults random intensity must be in (0, 1]");
    return gpusim::FaultPlan::random(seed, horizon, intensity);
}

int
cmdChaos(const Args &args)
{
    if (args.faults.empty())
        fatal("chaos needs --faults PLAN (explicit events or "
              "random:SEED:INTENSITY)");

    SystemOptions opt;
    opt.functional = 0;
    opt.seed = args.seed;
    Rng rng(args.seed);

    gpusim::Device healthy_dev(specByName(args.gpu));
    auto healthy =
        PipelinedZkpSystem(healthy_dev, opt).run(args.batch,
                                                 args.log_gates, rng);

    size_t horizon =
        args.batch + systemWorkModel(args.log_gates, opt.seed)
                         .totalStages();
    gpusim::FaultPlan plan = resolveFaultPlan(args.faults, horizon);
    gpusim::FaultInjector injector(plan, args.seed);
    gpusim::Device faulted_dev(specByName(args.gpu));
    faulted_dev.setFaultInjector(&injector);
    Rng frng(args.seed);
    auto faulted = PipelinedZkpSystem(faulted_dev, opt)
                       .run(args.batch, args.log_gates, frng);

    std::printf("device      : %s\n", healthy_dev.spec().name.c_str());
    std::printf("workload    : %zu proofs, 2^%u-gate circuits\n",
                args.batch, args.log_gates);
    std::printf("fault plan  :\n%s", plan.describe().c_str());

    auto pct_delta = [](double before, double after) {
        if (before == 0.0)
            return std::string("-");
        return formatSig((after / before - 1.0) * 100.0, 3) + "%";
    };
    TablePrinter table({"metric", "healthy", "faulted", "delta"});
    table.addRow({"throughput (proofs/s)",
                  formatSig(healthy.stats.throughput_per_ms * 1e3, 4),
                  formatSig(faulted.stats.throughput_per_ms * 1e3, 4),
                  pct_delta(healthy.stats.throughput_per_ms,
                            faulted.stats.throughput_per_ms)});
    table.addRow({"makespan (ms)",
                  formatSig(healthy.stats.total_ms, 4),
                  formatSig(faulted.stats.total_ms, 4),
                  pct_delta(healthy.stats.total_ms,
                            faulted.stats.total_ms)});
    table.addRow({"first latency (ms)",
                  formatSig(healthy.stats.first_latency_ms, 4),
                  formatSig(faulted.stats.first_latency_ms, 4),
                  pct_delta(healthy.stats.first_latency_ms,
                            faulted.stats.first_latency_ms)});
    table.addRow({"degraded cycles", "0",
                  std::to_string(faulted.degraded_cycles), "-"});
    table.addRow({"relocated lane fraction", "0",
                  formatSig(faulted.relocated_lane_fraction, 3), "-"});
    table.addRow({"corrupt layers detected", "0",
                  std::to_string(faulted.corrupt_detected), "-"});
    table.addRow({"tasks retried", "0",
                  std::to_string(faulted.retried_tasks), "-"});
    table.addRow({"stalled transfers", "0",
                  std::to_string(injector.stats().stalled_transfers),
                  "-"});
    std::printf("%s", table.render().c_str());
    if (faulted.corrupt_detected > 0 || faulted.degraded_cycles > 0)
        std::printf("faults absorbed: corrupted layers were re-proved "
                    "and degraded cycles ran on surviving lanes; no "
                    "invalid proof left the pipeline\n");
    return 0;
}

int
cmdSched(const Args &args)
{
    std::vector<unsigned> sizes;
    if (!args.sizes.empty()) {
        size_t pos = 0;
        while (pos < args.sizes.size()) {
            size_t comma = args.sizes.find(',', pos);
            if (comma == std::string::npos)
                comma = args.sizes.size();
            try {
                sizes.push_back(static_cast<unsigned>(
                    std::stoul(args.sizes.substr(pos, comma - pos))));
            } catch (...) {
                fatal("--sizes needs a comma list of log-sizes");
            }
            pos = comma + 1;
        }
    } else {
        sizes.assign(args.batch, args.log_gates);
    }
    for (unsigned n : sizes)
        if (n < 8 || n > 24)
            fatal("task log-size %u out of range [8, 24]", n);

    gpusim::Device dev(specByName(args.gpu));
    SystemOptions opt;
    opt.functional = 0;
    opt.seed = args.seed;
    opt.lane_policy = lanePolicyByName(args.lane_policy);
    PipelinedZkpSystem system(dev, opt);
    std::vector<sched::ProofTask> tasks;
    tasks.reserve(sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
        sched::ProtocolKind kind =
            args.kind == "mixed"
                ? sched::kProtocols[i % sched::kNumProtocolKinds].kind
                : *sched::protocolKindByName(args.kind);
        tasks.push_back(makeProofTask(kind, sizes[i], opt.seed, i));
    }
    auto result = system.runTasks(std::move(tasks));

    std::printf("device      : %s (%u lanes @ %.2f GHz)\n",
                dev.spec().name.c_str(), dev.spec().cuda_cores,
                dev.spec().clock_ghz);
    std::printf("workload    : %zu tasks, log-sizes %s, kind %s, "
                "lane policy %s\n",
                sizes.size(),
                args.sizes.empty()
                    ? ("uniform " + std::to_string(args.log_gates))
                          .c_str()
                    : args.sizes.c_str(),
                args.kind.c_str(), args.lane_policy.c_str());
    size_t cycles = 0;
    for (const auto &ts : result.task_stats)
        cycles = std::max(cycles, ts.complete_cycle + 1);
    std::printf("makespan    : %.3f ms over %zu pipeline cycles\n",
                result.stats.total_ms, cycles);
    std::printf("throughput  : %.2f proofs/s\n",
                result.stats.throughput_per_ms * 1e3);
    std::printf("pacing cycle: %.3f ms (comm %.3f / comp %.3f)\n",
                result.cycle_ms, result.comm_ms_per_cycle,
                result.comp_ms_per_cycle);

    TablePrinter table({"task", "kind", "log-size", "admit cyc",
                        "complete cyc", "wait cyc", "turnaround ms"});
    for (const auto &ts : result.task_stats)
        table.addRow({std::to_string(ts.id),
                      sched::protocolKindName(ts.kind),
                      std::to_string(ts.n_vars),
                      std::to_string(ts.admit_cycle),
                      std::to_string(ts.complete_cycle),
                      std::to_string(ts.queue_wait_cycles),
                      formatSig(ts.complete_ms, 4)});
    std::printf("%s", table.render().c_str());
    return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void
onServeSignal(int)
{
    g_serve_stop = 1;
}

int
cmdServe(const Args &args)
{
    if (args.log_gates < 8 || args.log_gates > 20)
        fatal("--log-gates must be in [8, 20] for the service");
    net::ServerOptions opt;
    opt.port = args.port;
    opt.queue_capacity = args.queue_cap;
    opt.window = args.window;
    opt.tenant_rate_per_s = static_cast<double>(args.rate);
    opt.workers = args.threads ? args.threads : 2;
    opt.max_n_vars = args.log_gates;
    opt.device = args.gpu;
    opt.seed = args.seed;
    specByName(args.gpu); // fail fast on a bad --gpu

    net::SnarkExecutor executor;
    obs::MetricsRegistry metrics;
    net::ProofServer server(opt, executor, &metrics);
    if (!server.start())
        fatal("cannot bind 127.0.0.1:%u", unsigned{args.port});

    std::signal(SIGINT, onServeSignal);
    std::signal(SIGTERM, onServeSignal);
    net::ServerStats boot = server.stats();
    std::printf("serving on 127.0.0.1:%u (window %zu, queue %zu, "
                "rate %llu/s per tenant, max log-size %u, %zu "
                "workers)\n",
                unsigned{server.port()}, boot.window,
                args.queue_cap,
                static_cast<unsigned long long>(args.rate),
                args.log_gates, opt.workers);
    std::fflush(stdout);
    while (!g_serve_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();

    net::ServerStats stats = server.stats();
    std::printf("shutdown: %llu connections, %llu submits, %llu "
                "proofs, %llu retries, %llu sheds, %llu protocol "
                "errors\n",
                static_cast<unsigned long long>(
                    stats.connections_accepted),
                static_cast<unsigned long long>(stats.submits),
                static_cast<unsigned long long>(stats.results_ok),
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.sheds),
                static_cast<unsigned long long>(
                    stats.protocol_errors));
    return 0;
}

int
cmdSubmit(const Args &args)
{
    if (args.log_gates < 8 || args.log_gates > 20)
        fatal("--log-gates must be in [8, 20] for the service");
    net::SyncClient client;
    if (!client.connect(args.port, args.tenant)) {
        std::fprintf(stderr,
                     "submit: cannot reach a service on "
                     "127.0.0.1:%u\n",
                     unsigned{args.port});
        return 2;
    }
    std::printf("connected (wire v%u, server window %u)\n",
                unsigned{client.ack().version}, client.ack().window);

    sched::ProtocolKind kind = *sched::protocolKindByName(args.kind);
    if (!sched::wireCanCarry(kind, client.version())) {
        std::fprintf(stderr,
                     "submit: server negotiated wire v%u, which "
                     "cannot carry --kind %s\n",
                     unsigned{client.version()}, args.kind.c_str());
        return 2;
    }
    size_t verified = 0, retried = 0;
    Timer timer;
    for (size_t i = 0; i < args.batch; ++i) {
        net::Submit task;
        task.task_id = args.tenant * 100000 + i + 1;
        task.n_vars = args.log_gates;
        task.seed = args.seed;
        task.kind = kind;
        std::optional<net::Result> result;
        for (int attempt = 0; attempt < 50; ++attempt) {
            result = client.roundTrip(task);
            if (!result)
                break;
            if (result->status == net::Status::Ok)
                break;
            if (result->status == net::Status::Invalid)
                break;
            // Retry/Shed: honor the hint and resubmit.
            ++retried;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::max<uint32_t>(result->retry_after_ms, 1)));
        }
        if (!result || result->status != net::Status::Ok) {
            std::fprintf(stderr,
                         "submit: task %llu got no proof (%s)\n",
                         static_cast<unsigned long long>(task.task_id),
                         result ? "rejected" : "connection lost");
            return 1;
        }
        bool proof_ok = verifyTaskProof(kind, result->proof, task.n_vars,
                                        task.seed);
        if (!proof_ok) {
            std::fprintf(stderr,
                         "submit: task %llu proof REJECTED\n",
                         static_cast<unsigned long long>(task.task_id));
            return 1;
        }
        ++verified;
    }
    std::printf("%zu/%zu proofs verified in %.1f ms (%zu "
                "backpressure retries)\n",
                verified, args.batch, timer.milliseconds(), retried);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::ParseResult parsed = cli::parse(argc, argv, args);
    if (!parsed.ok) {
        std::fprintf(stderr, "batchzk: %s\n%s", parsed.error.c_str(),
                     cli::usage());
        return 2;
    }
    // One process-wide default: every ExecContext resolved with
    // threads = 0 (prove, simulate, baselines) picks this up.
    exec::setDefaultThreads(args.threads);
    if (args.command == "prove")
        return cmdProve(args);
    if (args.command == "verify")
        return cmdVerify(args);
    if (args.command == "info")
        return cmdInfo(args);
    if (args.command == "simulate")
        return cmdSimulate(args);
    if (args.command == "trace")
        return cmdTrace(args);
    if (args.command == "metrics")
        return cmdMetrics(args);
    if (args.command == "chaos")
        return cmdChaos(args);
    if (args.command == "sched")
        return cmdSched(args);
    if (args.command == "serve")
        return cmdServe(args);
    if (args.command == "submit")
        return cmdSubmit(args);
    return cmdRecover(args); // parse() guarantees a known command
}
